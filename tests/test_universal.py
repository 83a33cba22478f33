import math

import numpy as np
import pytest

from srdf_kit import (
    DimensionMismatch,
    InfeasibleDistortion,
    NoPrior,
    Spectrum,
    UnsupportedFamily,
    affine_family,
    bayes_atom_data,
    bayes_usrdf,
    fixed_var_corr_family,
    nonbayes_usrdf,
    project_family,
)
from srdf_kit.srdf import RATE_CAP_BITS
from srdf_kit.universal import bayes_curve

from conftest import multi_atom_family

E1 = np.array([[1.0, 0.0], [0.0, 0.0]])
E2 = np.array([[0.0, 0.0], [0.0, 1.0]])
BASE = np.array([[1.0, 0.3], [0.3, 1.0]])


def bayes_rate_closed(delta, mean_r=0.5, sigma2=1.0):
    mode = sigma2 * (1.0 + mean_r ** 2)
    floor = sigma2 * (1.0 - mean_r ** 2)
    return 0.5 * math.log2(mode / (delta - floor))


def three_mode_atoms():
    """Bayes atom data of a drawn multi-atom family sampled at [1, 2, 3]."""
    fam, sampled = multi_atom_family(np.random.default_rng(7), 3)
    return [bayes_atom_data(fam, sampled, atom) for atom in project_family(fam, sampled).atoms]


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
        assert len(part.atoms) == 1
        atom = part.atoms[0]
        assert len(atom.members) == 17
        assert atom.weight == pytest.approx(1.0)
        assert atom.tau1 == pytest.approx(np.array([[1.0]]))

    def test_distinct_sampled_blocks_split(self):
        fam = affine_family(BASE, [E1], [(0.0, 0.8)], prior="uniform", grid_res=5)
        part = project_family(fam, [1])
        assert len(part.atoms) == 5
        assert all(len(a.members) == 1 for a in part.atoms)

    def test_unsampled_direction_collapses(self):
        fam = affine_family(BASE, [E2], [(0.0, 0.8)], prior="uniform", grid_res=7)
        part = project_family(fam, [1])
        assert len(part.atoms) == 1

    def test_two_param_split_count(self):
        # one direction moves the sampled block, the other does not
        fam = affine_family(BASE, [E1, E2], [(0.0, 0.4), (0.0, 0.4)], prior="uniform", grid_res=3)
        part = project_family(fam, [1])
        assert len(part.atoms) == 3
        assert all(len(a.members) == 3 for a in part.atoms)
        assert sum(a.weight for a in part.atoms) == pytest.approx(1.0)

    def test_near_duplicates_merge(self):
        fam = affine_family(BASE, [E1], [(0.0, 1e-9)], prior="uniform", grid_res=2)
        part = project_family(fam, [1])
        assert len(part.atoms) == 1

    def test_atom_data_floor_below_members(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=9)
        part = project_family(fam, [1])
        data = bayes_atom_data(fam, [1], part.atoms[0])
        # averaged coefficients explain less than the best member could
        assert data.spectrum.delta_min == pytest.approx(0.75, abs=1e-12)
        assert data.g_tau1 == pytest.approx(np.array([[1.25]]))
        assert data.spectrum.delta_max == pytest.approx(2.0, abs=1e-12)

    def test_atom_data_needs_prior(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior=None, grid_res=5)
        part = project_family(fam, [1])
        with pytest.raises(NoPrior):
            bayes_atom_data(fam, [1], part.atoms[0])


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
        pt = bayes_usrdf(fam, [1], 1.1)
        part = project_family(fam, [1])
        datas = [bayes_atom_data(fam, [1], atom) for atom in part.atoms]
        # the reported allocation spends the same rate in every atom
        assert len(pt.per_atom_delta) == len(datas)
        weighted = sum(d.weight * x for d, x in zip(datas, pt.per_atom_delta))
        assert weighted == pytest.approx(1.1, abs=1e-7)
        for d, x in zip(datas, pt.per_atom_delta):
            back = d.spectrum.distortion(pt.rate_bits)
            assert back == pytest.approx(x, rel=1e-6, abs=1e-9)

    def test_infeasible_and_trivial(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=9)
        with pytest.raises(InfeasibleDistortion):
            bayes_usrdf(fam, [1], 0.75)
        top = bayes_usrdf(fam, [1], 2.5)
        assert top.rate_bits == 0.0 and top.trivial

    def test_needs_prior(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior=None, grid_res=9)
        with pytest.raises(NoPrior):
            bayes_usrdf(fam, [1], 1.0)

    @pytest.mark.parametrize("which", ["one-atom", "three-atom"])
    def test_newton_needs_few_distortion_calls(self, which, monkeypatch):
        if which == "one-atom":
            fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=33)
            data = [bayes_atom_data(fam, [1], atom) for atom in project_family(fam, [1]).atoms]
        else:
            data = three_mode_atoms()
        dmin = sum(d.weight * d.spectrum.delta_min for d in data)
        dmax = sum(d.weight * d.spectrum.delta_max for d in data)
        fractions = np.concatenate([[1e-12, 1e-9, 1e-6, 1e-3], np.linspace(0.01, 1.0, 40)])
        calls = []
        distortion = Spectrum.distortion
        monkeypatch.setattr(Spectrum, "distortion", lambda spec, r: calls.append(r) or distortion(spec, r))
        points = bayes_curve(data, dmin + fractions * (dmax - dmin))
        # one call per Newton step plus one for the allocation
        assert 2 <= len(calls) <= 24
        assert all(0.0 < p.rate_bits < RATE_CAP_BITS for p in points[:-1]) and points[-1].trivial

    @pytest.mark.filterwarnings("error")
    def test_rate_caps_just_above_the_floor(self):
        data = three_mode_atoms()
        dmin = sum(d.weight * d.spectrum.delta_min for d in data)
        pt = bayes_curve(data, [dmin * (1.0 + 1e-14)])[0]
        assert pt.rate_bits == RATE_CAP_BITS
        assert pt.per_atom_delta == tuple(d.spectrum.delta_min for d in data)


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
        assert len(part.atoms) == 1 and len(part.atoms[0].members) == 1
        pt = bayes_usrdf(fam, [1], 1.1)
        sig = BASE + 0.2 * E1
        lam = float(sig[0, 0]) + float(sig[0, 1]) ** 2 / float(sig[0, 0])
        floor = float(sig[1, 1]) - float(sig[0, 1]) ** 2 / float(sig[0, 0])
        assert pt.rate_bits == pytest.approx(0.5 * math.log2(lam / (1.1 - floor)), abs=1e-9)
