import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from srdf_kit import (
    CovarianceModel,
    DimensionMismatch,
    InfeasibleDistortion,
    NoPrior,
    NotPositiveDefinite,
    ParamFamily,
    Spectrum,
    UnboundedBox,
    UnsupportedFamily,
    affine_family,
    as_sampling_set,
    atom_spectra,
    bayes_usrdf,
    fixed_var_corr_family,
    nonbayes_usrdf,
    project_family,
    srdf_spectrum,
)
from srdf_kit.srdf import RATE_CAP_BITS, _lift, _weight
from srdf_kit.universal import bayes_curve

from conftest import multi_atom_family

E1 = np.array([[1.0, 0.0], [0.0, 0.0]])
E2 = np.array([[0.0, 0.0], [0.0, 1.0]])
BASE = np.array([[1.0, 0.3], [0.3, 1.0]])


def bayes_rate_closed(delta, mean_r=0.5, sigma2=1.0):
    mode = sigma2 * (1.0 + mean_r ** 2)
    floor = sigma2 * (1.0 - mean_r ** 2)
    return 0.5 * math.log2(mode / (delta - floor))


def bayes_atoms(fam, sampled):
    """(stacked atom spectra, prior masses) of a family's ambiguity atoms."""
    part = project_family(fam, sampled)
    return atom_spectra(part), part.weights


def three_mode_atoms():
    """Bayes atoms of a drawn multi-atom family sampled at [1, 2, 3]."""
    return bayes_atoms(*multi_atom_family(np.random.default_rng(7), 3))


def nonbayes_rate_closed(delta, r_lo=0.2, sigma2=1.0):
    mode = sigma2 * (1.0 + r_lo ** 2)
    floor = sigma2 * (1.0 - r_lo ** 2)
    return 0.5 * math.log2(mode / (delta - floor))


class TestFamilyGrid:
    def test_weights_normalized(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=9)
        assert fam.node_weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert len(fam.nodes) == 9

    def test_symmetric_grid_mean(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=33)
        mean_r = float(np.sum(fam.node_weights * fam.nodes[:, 0]))
        assert mean_r == pytest.approx(0.5, abs=1e-15)

    def test_nodes_are_valid_covariances(self):
        fam = fixed_var_corr_family(2.0, -0.5, 0.5, prior="uniform", grid_res=5)
        for sig in fam.node_sigmas:
            assert np.all(np.linalg.eigvalsh(sig) > 0)

    def test_affine_two_params(self):
        fam = affine_family(BASE, [E1, E2], [(0.0, 0.4), (0.0, 0.4)], prior="uniform", grid_res=3)
        assert len(fam.nodes) == 9
        assert fam.m == 2
        assert fam.node_sigmas.shape == (9, 2, 2)
        assert np.allclose(fam.node_sigmas[6], BASE + 0.4 * E1)   # the node (0.4, 0.0)

    @pytest.mark.parametrize("density", [math.nan, math.inf, -1.0])
    def test_bad_prior_density_is_no_prior(self, density):
        with pytest.raises(NoPrior):
            affine_family(BASE, [E1], [(0.0, 0.4)], prior=lambda nodes: np.full(len(nodes), density),
                          grid_res=3)

    @pytest.mark.parametrize("box", [[(0.0, math.inf)], [(-math.inf, 0.0)], [(math.nan, 0.4)],
                                     [(-1e308, 1e308)], [(-1e200, 1e200), (-1e200, 1e200)]],
                             ids=["inf", "minus-inf", "nan", "width-overflows", "volume-overflows"])
    def test_unbounded_box_is_refused_before_any_node(self, box):
        # such a box used to leave every node weight NaN, with warnings and no error
        with warnings.catch_warnings(), mock.patch("srdf_kit.universal.validate_covariance") as validate:
            warnings.simplefilter("error")
            with pytest.raises(UnboundedBox) as caught:
                ParamFamily(BASE, [E1] * len(box), box, prior="uniform")
        assert caught.value.code == "universal.unbounded_box"
        validate.assert_not_called()

    def test_direction_shape_must_match_base(self):
        with pytest.raises(DimensionMismatch):
            affine_family(BASE, [np.eye(3)], [(0.0, 0.4)], prior="uniform", grid_res=3)

    @pytest.mark.parametrize("entry", [math.inf, -math.inf])
    def test_non_finite_direction_is_refused_without_a_warning(self, entry):
        # the box holds 0, and the node there formed 0 * inf, which warned before the node was refused
        direction = np.array([[entry, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NotPositiveDefinite) as raised:
                affine_family(BASE, [E2, direction], [(0.0, 0.4), (-0.4, 0.4)], prior="uniform", grid_res=3)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert raised.value.code == "model.not_positive_definite"
        assert str(raised.value) == "covariance has a non-finite entry"

    @pytest.mark.parametrize("build", [
        lambda: affine_family(np.eye(2), [[[1e308, 0.0], [0.0, 0.0]]], [(0.0, 10.0)], grid_res=3),
        lambda: fixed_var_corr_family(math.inf, -0.5, 0.5, grid_res=3),
        lambda: fixed_var_corr_family(1e182, 0.2, 1e308, grid_res=3),
    ], ids=["affine-overflow", "corr-inf-times-zero", "corr-overflow"])
    def test_a_node_that_overflows_is_refused_without_a_warning(self, build):
        # t * D overflowed, or met 0 * inf, and warned before the node was refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite) as raised:
                build()
        assert raised.value.code == "model.not_positive_definite"
        assert str(raised.value) == "covariance has a non-finite entry"

    def test_the_prior_runs_once_on_the_whole_grid(self):
        calls = []

        def prior(nodes):
            calls.append(nodes.shape)
            return 1.0 + nodes[:, 0]

        fam = ParamFamily(BASE, [E1, E2], ((0.0, 0.4), (0.0, 0.2)), prior=prior, grid_res=5)
        assert calls == [(25, 2)]
        assert fam.m == 2 and fam.node_sigmas.shape == (25, 2, 2)
        assert fam.node_weights[-1] / fam.node_weights[0] == pytest.approx(1.4)

    def test_a_prior_that_does_not_give_one_density_per_node_is_no_prior(self):
        with pytest.raises(NoPrior, match="one value per node"):
            affine_family(BASE, [E1], [(0.0, 0.4)], prior=lambda nodes: 1.0, grid_res=3)

    def test_no_prior_means_no_weights(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior=None, grid_res=5)
        assert fam.node_weights is None

    def test_a_family_is_its_base_directions_box_prior_and_grid(self):
        # no node-map callable and no structural tag: the matrices are the family
        fields = [f.name for f in dataclasses.fields(ParamFamily) if f.init]
        assert fields == ["base", "directions", "box", "prior", "grid_res"]


class TestAtoms:
    def test_fixed_var_corr_is_one_atom(self):
        # the sampled variance never moves, so no member is distinguishable
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=17)
        part = project_family(fam, [1])
        assert part.members == (tuple(range(17)),)
        assert part.weights == pytest.approx([1.0])
        assert part.sigma[:, :1, :1] == pytest.approx(np.array([[[1.0]]]))

    def test_distinct_sampled_blocks_split(self):
        fam = affine_family(BASE, [E1], [(0.0, 0.8)], prior="uniform", grid_res=5)
        part = project_family(fam, [1])
        assert part.members == tuple((i,) for i in range(5))
        assert part.sigma.shape == (5, 2, 2) and part.weights.shape == (5,)

    def test_unsampled_direction_collapses(self):
        fam = affine_family(BASE, [E2], [(0.0, 0.8)], prior="uniform", grid_res=7)
        part = project_family(fam, [1])
        assert len(part.members) == 1

    def test_two_param_split_count(self):
        # one direction moves the sampled block, the other does not
        fam = affine_family(BASE, [E1, E2], [(0.0, 0.4), (0.0, 0.4)], prior="uniform", grid_res=3)
        part = project_family(fam, [1])
        assert part.members == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        assert part.weights.sum() == pytest.approx(1.0)

    def test_near_duplicates_split(self):
        # a seen direction splits its grid values however little it moves the sampled block
        fam = affine_family(BASE, [E1], [(0.0, 1e-9)], prior="uniform", grid_res=2)
        part = project_family(fam, [1])
        assert part.members == ((0,), (1,))

    def test_independent_directions_far_apart_in_scale_split(self):
        # each block is scaled to a largest entry of 1 before the rank, so the strong one cannot hide the faint one
        fam = affine_family(2.0 * np.eye(2), [E1, [[0.0, 1e-300], [1e-300, 0.0]]], [(0.0, 1.0)] * 2, grid_res=3)
        assert project_family(fam, [1, 2]).members == tuple((i,) for i in range(9))

    def test_atom_data_floor_below_members(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=9)
        part = project_family(fam, [1])
        spectra = atom_spectra(part)
        sigma = part.sigma[0]
        # averaged coefficients explain less than the best member could
        assert spectra.delta_min[0] == pytest.approx(0.75, abs=1e-12)
        assert _weight(_lift(sigma[:1, :1], sigma[:1, 1:])) == pytest.approx(np.array([[1.25]]))
        assert spectra.delta_max[0] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("sampled", [[1], [2], [1, 2], [2, 4]])
    def test_atom_spectra_are_the_known_law_spectra_at_the_partition_set(self, sampled):
        # the partition carries its sampling set, so the spectra are those of the set it was built for
        fam, _ = multi_atom_family(np.random.default_rng(3), 2)
        part = project_family(fam, sampled)
        assert part.sampled == as_sampling_set(sampled)
        spectra = atom_spectra(part)
        assert len(spectra.delta_min) == len(part.members) == len(part.sigma)
        for sigma, floor, lams in zip(part.sigma, spectra.delta_min, spectra.lambdas):
            own = srdf_spectrum(CovarianceModel(sigma), sampled)
            assert floor == pytest.approx(own.delta_min, rel=1e-12, abs=1e-15)
            np.testing.assert_allclose(lams, own.lambdas, rtol=1e-12, atol=0.0)

    def test_atom_data_needs_prior(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior=None, grid_res=5)
        part = project_family(fam, [1])
        assert part.weights is None
        with pytest.raises(NoPrior):
            bayes_curve(atom_spectra(part), part.weights, [1.0])


class TestBayesCurve:
    def test_matches_closed_form_on_grid(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=33)
        for delta in np.linspace(1.0, 1.9, 30):
            got = bayes_usrdf(fam, [1], float(delta))
            assert got.rate_bits == pytest.approx(bayes_rate_closed(delta), abs=1e-6)

    def test_frozen_point(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=33)
        assert bayes_usrdf(fam, [1], 1.0).rate_bits == pytest.approx(1.160964, abs=1e-6)

    def test_equalizes_rates_across_atoms(self):
        fam = affine_family(BASE, [E1], [(0.0, 0.5)], prior="uniform", grid_res=5)
        rate = bayes_usrdf(fam, [1], 1.1).rate_bits
        spectra, weights = bayes_atoms(fam, [1])
        # the same rate in every atom meets the prior-averaged distortion
        per_atom = spectra.distortion(rate)
        assert len(per_atom) == len(weights) > 1
        weighted = sum(w * x for w, x in zip(weights, per_atom))
        assert weighted == pytest.approx(1.1, abs=1e-7)

    def test_infeasible_and_trivial(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=9)
        with pytest.raises(InfeasibleDistortion):
            bayes_usrdf(fam, [1], 0.75)
        top = bayes_usrdf(fam, [1], 2.5)
        assert top.rate_bits == 0.0 and top.delta_max <= 2.5

    def test_needs_prior(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior=None, grid_res=9)
        with pytest.raises(NoPrior):
            bayes_usrdf(fam, [1], 1.0)

    @pytest.mark.parametrize("which", ["one-atom", "three-atom"])
    def test_newton_needs_few_distortion_calls(self, which, monkeypatch):
        if which == "one-atom":
            fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=33)
            spectra, weights = bayes_atoms(fam, [1])
        else:
            spectra, weights = three_mode_atoms()
        dmin = sum(weights * spectra.delta_min)
        dmax = sum(weights * spectra.delta_max)
        fractions = np.concatenate([[1e-12, 1e-9, 1e-6, 1e-3], np.linspace(0.01, 1.0, 40)])
        calls = []
        distortion = Spectrum.distortion
        monkeypatch.setattr(Spectrum, "distortion", lambda spec, r: calls.append(r) or distortion(spec, r))
        rates = bayes_curve(spectra, weights, dmin + fractions * (dmax - dmin)).rate_bits
        # one call per Newton step
        assert 1 <= len(calls) <= 23
        assert np.all((0.0 < rates[:-1]) & (rates[:-1] < RATE_CAP_BITS)) and rates[-1] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_rate_caps_just_above_the_floor(self):
        spectra, weights = three_mode_atoms()
        dmin = sum(weights * spectra.delta_min)
        rate = bayes_curve(spectra, weights, dmin * (1.0 + 1e-14)).rate_bits
        assert rate == RATE_CAP_BITS
        assert spectra.distortion(rate).tobytes() == spectra.delta_min.tobytes()


class TestNonBayesCurve:
    def test_matches_closed_form_on_grid(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=33)
        for delta in np.linspace(1.0, 1.9, 30):
            got = nonbayes_usrdf(fam, [1], float(delta))
            assert got.rate_bits == pytest.approx(nonbayes_rate_closed(delta), abs=1e-6)

    def test_frozen_point(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=33)
        got = nonbayes_usrdf(fam, [1], 1.0).rate_bits
        assert got == pytest.approx(0.5 * math.log2(26.0), abs=1e-9)

    def test_strictly_dominates_bayes(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=33)
        for delta in np.linspace(1.0, 1.9, 30):
            nb = nonbayes_usrdf(fam, [1], float(delta)).rate_bits
            b = bayes_usrdf(fam, [1], float(delta)).rate_bits
            assert nb > b

    def test_singleton_atoms_take_worst_member(self):
        fam = affine_family(BASE, [E1], [(0.0, 0.5)], prior="uniform", grid_res=5)
        delta = 1.2
        got = nonbayes_usrdf(fam, [1], delta)
        worst = 0.0
        for sig in fam.node_sigmas:
            lam = float(sig[0, 0]) + float(sig[0, 1]) ** 2 / float(sig[0, 0])
            floor = float(sig[1, 1]) - float(sig[0, 1]) ** 2 / float(sig[0, 0])
            worst = max(worst, 0.5 * math.log2(lam / (delta - floor)))
        assert got.rate_bits == pytest.approx(worst, abs=1e-9)

    def test_multi_member_atom_without_template_rejected(self):
        fam = affine_family(BASE, [E2], [(0.0, 0.5)], prior="uniform", grid_res=5)
        with pytest.raises(UnsupportedFamily):
            nonbayes_usrdf(fam, [1], 1.2)

    @pytest.mark.parametrize("base, direction", [
        ([[1.0, 0.5], [0.5, 3.0]], np.zeros((2, 2))),
        (2.0 * np.eye(2), [[0.0, 1.0], [1.0, 0.0]]),
    ], ids=["constant", "direction-off-the-variance"])
    def test_multi_member_atom_outside_the_correlation_family_rejected(self, base, direction):
        # one atom of five members whose matrices are not sigma2 I plus sigma2 off the diagonal
        fam = ParamFamily(base, [direction], ((0.2, 0.8),), prior="uniform", grid_res=5)
        assert project_family(fam, [1]).members == ((0, 1, 2, 3, 4),)
        with pytest.raises(UnsupportedFamily):
            nonbayes_usrdf(fam, [1], 1.2)

    @pytest.mark.parametrize("sigma2, r_lo, r_hi", [(1.0, 0.2, 0.8), (2.5, -0.7, 0.4), (1e-200, -0.3, -0.1)])
    def test_the_affine_spelling_of_the_correlation_family_has_its_worst_case(self, sigma2, r_lo, r_hi):
        # the closed form is read from the matrices, so the affine spelling takes it too, to the byte
        fam = affine_family(sigma2 * np.eye(2), [sigma2 * np.array([[0.0, 1.0], [1.0, 0.0]])], [(r_lo, r_hi)],
                            prior="uniform", grid_res=9)
        want = fixed_var_corr_family(sigma2, r_lo, r_hi, grid_res=9)
        deltas = sigma2 * np.linspace(1.05, 2.2, 13)
        assert fam.node_sigmas.tobytes() == want.node_sigmas.tobytes()
        assert nonbayes_usrdf(fam, [1], deltas).rate_bits.tobytes() == \
            nonbayes_usrdf(want, [1], deltas).rate_bits.tobytes()

    @pytest.mark.parametrize("r_lo, r_hi", [(-0.5, 0.5), (-0.9, 0.1), (0.0, 0.6), (-0.6, -0.2), (0.3, 0.3),
                                            (-0.4, -0.4)])
    def test_correlation_worst_case_covers_every_box(self, r_lo, r_hi):
        # a member's rate falls as r^2 grows, so the worst is the box's correlation nearest 0:
        # on [-0.5, 0.5] at delta 1.5 that is r = 0, at 0.5 bits, and delta 1 is infeasible
        fam = fixed_var_corr_family(1.0, r_lo, r_hi, grid_res=9)
        members = np.concatenate((np.linspace(r_lo, r_hi, 2001), [0.0] if r_lo <= 0.0 <= r_hi else []))
        for delta in (1.0, 1.05, 1.3, 1.5, 1.95):
            if delta <= 1.0 - min(members ** 2):
                with pytest.raises(InfeasibleDistortion):
                    nonbayes_usrdf(fam, [2], delta)
                continue
            worst = np.max(0.5 * np.log2((1.0 + members ** 2) / (delta - (1.0 - members ** 2))))
            assert nonbayes_usrdf(fam, [2], delta).rate_bits == pytest.approx(worst, rel=1e-12, abs=1e-15)


class TestRefinement:
    def test_bayes_stable_under_grid_refinement(self):
        # symmetric grids share the exact prior mean, so the curves coincide
        coarse = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=9)
        fine = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=65)
        for delta in (1.0, 1.4, 1.8):
            a = bayes_usrdf(coarse, [1], delta).rate_bits
            b = bayes_usrdf(fine, [1], delta).rate_bits
            assert a == pytest.approx(b, abs=1e-9)

    def test_degenerate_box_single_node(self):
        fam = affine_family(BASE, [E1], [(0.2, 0.2)], prior="uniform", grid_res=1)
        part = project_family(fam, [1])
        assert part.members == ((0,),)
        pt = bayes_usrdf(fam, [1], 1.1)
        sig = BASE + 0.2 * E1
        lam = float(sig[0, 0]) + float(sig[0, 1]) ** 2 / float(sig[0, 0])
        floor = float(sig[1, 1]) - float(sig[0, 1]) ** 2 / float(sig[0, 0])
        assert pt.rate_bits == pytest.approx(0.5 * math.log2(lam / (1.1 - floor)), abs=1e-9)
