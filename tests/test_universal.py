import math
import warnings

import numpy as np
import pytest

from srdf_kit import (
    CovarianceModel,
    DimensionMismatch,
    InfeasibleDistortion,
    NoPrior,
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
        got = fam.cov_at((0.4, 0.0))
        assert np.allclose(got, BASE + 0.4 * E1)

    @pytest.mark.parametrize("density", [math.nan, math.inf, -1.0])
    def test_bad_prior_density_is_no_prior(self, density):
        with pytest.raises(NoPrior):
            affine_family(BASE, [E1], [(0.0, 0.4)], prior=lambda tau: density, grid_res=3)

    @pytest.mark.parametrize("box", [[(0.0, math.inf)], [(-math.inf, 0.0)], [(math.nan, 0.4)],
                                     [(-1e308, 1e308)], [(-1e200, 1e200), (-1e200, 1e200)]],
                             ids=["inf", "minus-inf", "nan", "width-overflows", "volume-overflows"])
    def test_unbounded_box_is_refused_before_any_node(self, box):
        # such a box used to leave every node weight NaN, with warnings and no error
        def cov_at(tau):
            raise AssertionError("a node was built")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnboundedBox) as caught:
                ParamFamily(box=tuple(box), cov_at=cov_at, m=2, prior="uniform")
        assert caught.value.code == "universal.unbounded_box"

    def test_direction_shape_must_match_base(self):
        with pytest.raises(DimensionMismatch):
            affine_family(BASE, [np.eye(3)], [(0.0, 0.4)], prior="uniform", grid_res=3)

    def test_no_prior_means_no_weights(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior=None, grid_res=5)
        assert fam.node_weights is None


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

    def test_near_duplicates_merge(self):
        fam = affine_family(BASE, [E1], [(0.0, 1e-9)], prior="uniform", grid_res=2)
        part = project_family(fam, [1])
        assert part.members == ((0, 1),)

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
