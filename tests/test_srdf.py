import math

import numpy as np
import pytest

from srdf_kit import (
    BlockPartition,
    BudgetOutOfRange,
    CovarianceModel,
    EigenFailure,
    FieldModel,
    GaussMarkovKernel,
    InfeasibleDistortion,
    SamplingSet,
    SingularSigmaA,
    Spectrum,
    TabulatedKernel,
    best_fixed_set,
    correlation_model,
    distortion_rate,
    field_min_distortion,
    field_srdf_spectrum,
    max_distortion,
    min_distortion,
    partition,
    single_site_min_distortion,
    single_site_srdf,
    srdf,
    srdf_spectrum,
    waterfill,
    waterfill_inverse,
)
from srdf_kit.srdf import _lift, _weight

from conftest import random_model


def brute_force_rate(lams, budget):
    """Allocation minimizer by pairwise-exchange descent.

    Independent of the water-filling solver: start from the proportional
    allocation, then repeatedly move distortion between pairs by ternary
    search on the exact two-mode rate.  The objective is convex and
    separable, so pairwise exchanges reach the global minimum.
    """
    lams = np.asarray(lams, dtype=float)
    k = len(lams)
    d = np.minimum(lams, budget * lams / np.sum(lams))
    d *= budget / np.sum(d)
    d = np.minimum(d, lams)

    def rate_pair(di, dj, li, lj):
        ri = 0.5 * math.log2(li / di) if di < li else 0.0
        rj = 0.5 * math.log2(lj / dj) if dj < lj else 0.0
        return ri + rj

    stall = 0
    for _ in range(200):
        moved = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                s = d[i] + d[j]
                lo = max(1e-18, s - lams[j])
                hi = min(lams[i], s - 1e-18)
                if lo >= hi:
                    continue
                a, b = lo, hi
                for _ in range(90):
                    m1 = a + (b - a) / 3.0
                    m2 = b - (b - a) / 3.0
                    if rate_pair(m1, s - m1, lams[i], lams[j]) <= rate_pair(
                        m2, s - m2, lams[i], lams[j]
                    ):
                        b = m2
                    else:
                        a = m1
                best = 0.5 * (a + b)
                moved = max(moved, abs(best - d[i]))
                d[i], d[j] = best, s - best
        if moved < 1e-13:
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
    return float(sum(0.5 * math.log2(l / x) for l, x in zip(lams, d) if x < l))


class TestWaterfill:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(1, 7))
            lams = np.sort(rng.uniform(0.05, 5.0, size=k))[::-1]
            budget = float(rng.uniform(0.05, 0.95)) * float(np.sum(lams))
            sol = waterfill(lams, budget)
            assert abs(sol.rate_bits - brute_force_rate(lams, budget)) < 1e-6

    def test_two_mode_known_case(self):
        # lambdas {4, 1}, budget 2: water level 1 keeps the small mode whole
        lams = np.array([4.0, 1.0])
        sol = waterfill(lams, 2.0)
        assert sol.rate_bits == pytest.approx(1.0, abs=1e-9)
        assert np.minimum(sol.alpha, lams) == pytest.approx([1.0, 1.0], abs=1e-7)

    def test_two_mode_interior_level(self):
        # budget 1.0 splits evenly below both modes: rate = 0.5 log2(4/0.5) + 0.5 log2(1/0.5)
        sol = waterfill(np.array([4.0, 1.0]), 1.0)
        expect = 0.5 * math.log2(4.0 / 0.5) + 0.5 * math.log2(1.0 / 0.5)
        assert sol.rate_bits == pytest.approx(expect, abs=1e-8)

    def test_full_budget_zero_rate(self):
        lams = np.array([3.0, 2.0, 1.0])
        sol = waterfill(lams, 6.0)
        assert sol.rate_bits == 0.0
        assert np.minimum(sol.alpha, lams) == pytest.approx(list(lams))

    def test_distortions_sum_to_budget(self):
        lams = np.array([2.5, 1.5, 0.25])
        sol = waterfill(lams, 1.3)
        dist = np.minimum(sol.alpha, lams)
        assert sum(dist) == pytest.approx(1.3, abs=1e-9)
        assert all(d <= l + 1e-12 for d, l in zip(dist, lams))

    @pytest.mark.parametrize("budget", [0.0, -1.0, 100.0])
    def test_rejects_out_of_range_budget(self, budget):
        with pytest.raises(BudgetOutOfRange):
            waterfill(np.array([4.0, 1.0]), budget)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            lams = rng.uniform(0.1, 4.0, size=k)
            budget = float(rng.uniform(0.1, 0.9)) * float(np.sum(lams))
            rate = waterfill(lams, budget).rate_bits
            back = waterfill_inverse(lams, rate)
            assert back == pytest.approx(budget, rel=1e-8, abs=1e-9)

    def test_inverse_extremes(self):
        lams = np.array([2.0, 1.0])
        assert waterfill_inverse(lams, 0.0) == pytest.approx(3.0)
        assert waterfill_inverse(lams, 64.0) == 0.0

    def test_nan_eigenvalue_is_eigen_failure(self):
        with pytest.raises(EigenFailure):
            waterfill([math.nan, 1.0], 0.5)

    def test_infinite_eigenvalue_is_eigen_failure(self):
        with pytest.raises(EigenFailure):
            waterfill([math.inf, 1.0], 0.5)

    def test_negative_eigenvalue_is_eigen_failure(self):
        with pytest.raises(EigenFailure):
            waterfill_inverse([-1.0, 1.0], 1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -0.5])
    def test_inverse_rejects_bad_rate(self, rate):
        with pytest.raises(BudgetOutOfRange):
            waterfill_inverse(np.array([2.0, 1.0]), rate)

    def test_nan_budget_is_out_of_range(self):
        with pytest.raises(BudgetOutOfRange):
            waterfill(np.array([2.0, 1.0]), math.nan)


class TestSpectrum:
    def test_exact_levels_on_known_cases(self):
        spec = Spectrum(0.0, [1.0, 4.0])
        assert np.array_equal(spec.lambdas, [4.0, 1.0])
        # budget 2 levels at 1 with the small mode kept whole; budget 1 splits evenly
        assert spec.level(2.0) == 1.0
        assert spec.level(1.0) == 0.5
        # inverse: one bit spent on the top mode alone leaves level 1
        assert spec.distortion(1.0) == pytest.approx(2.0, abs=1e-15)

    def test_grid_matches_points(self):
        rng = np.random.default_rng(21)
        spec = Spectrum(0.3, rng.uniform(0.1, 5.0, size=30))
        deltas = np.linspace(0.31, spec.delta_max, 50)
        rates = spec.rate(deltas)
        assert [spec.rate(float(d)) for d in deltas] == list(rates)
        assert rates[-1] == 0.0
        grid = np.linspace(0.0, 12.0, 40)
        assert [spec.distortion(float(r)) for r in grid] == list(spec.distortion(grid))

    def test_stacked_rows_match_single_spectra(self):
        rng = np.random.default_rng(22)
        lams = rng.uniform(0.1, 3.0, size=(4, 3))
        floors = rng.uniform(0.0, 1.0, size=4)
        stack = Spectrum(floors, lams)
        singles = [Spectrum(f, lam) for f, lam in zip(floors, lams)]
        delta = float(np.max(floors)) + 0.5
        assert list(stack.rate(delta)) == [s.rate(delta) for s in singles]
        assert list(stack.distortion(1.5)) == [s.distortion(1.5) for s in singles]
        assert stack.rate(np.array([[delta], [delta + 1.0]])).shape == (2, 4)

    def test_rate_rejects_infeasible_and_non_finite(self):
        spec = Spectrum(1.0, [2.0, 1.0])
        with pytest.raises(InfeasibleDistortion):
            spec.rate(np.array([0.5, 2.0]))
        with pytest.raises(BudgetOutOfRange):
            spec.rate(math.nan)


class TestSrdfCore:
    def test_weight_matrix_identity_when_independent(self):
        model = CovarianceModel(np.diag([2.0, 3.0, 4.0]))
        bp = partition(model, [1, 2])
        assert np.allclose(_weight(_lift(bp.sigma_a, bp.sigma_a_ac)), np.eye(2))
        assert min_distortion(bp) == pytest.approx(4.0)

    def test_full_sampling_reduces_to_plain_rd(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 4)
        bp = partition(model, [1, 2, 3, 4])
        assert np.allclose(_weight(_lift(bp.sigma_a, bp.sigma_a_ac)), np.eye(4))
        assert min_distortion(bp) == pytest.approx(0.0, abs=1e-12)
        lams = srdf_spectrum(bp).lambdas
        assert np.allclose(np.sort(lams), np.sort(np.linalg.eigvalsh(model.sigma)))

    def test_spectrum_sum_identity(self):
        # trace identity: sum of weighted eigenvalues = delta_max - delta_min
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            model = random_model(rng, m)
            k = int(rng.integers(1, m + 1))
            subset = tuple(sorted(rng.choice(np.arange(1, m + 1), size=k, replace=False).tolist()))
            bp = partition(model, subset)
            lams = srdf_spectrum(bp).lambdas
            expect = max_distortion(model) - min_distortion(bp)
            assert float(np.sum(lams)) == pytest.approx(expect, rel=1e-9, abs=1e-9)

    def test_srdf_infeasible_and_trivial(self):
        model = CovarianceModel(np.array([[1.0, 0.6], [0.6, 1.0]]))
        bp = partition(model, [1])
        dmin = min_distortion(bp)
        with pytest.raises(InfeasibleDistortion):
            srdf(model, [1], dmin)
        with pytest.raises(InfeasibleDistortion):
            srdf(model, [1], dmin - 0.1)
        top = srdf(model, [1], max_distortion(model) + 1.0)
        assert top.rate_bits == 0.0 and top.trivial

    def test_srdf_matches_distortion_rate(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 4)
        bp = partition(model, [2, 4])
        dmin, dmax = min_distortion(bp), max_distortion(model)
        for f in (0.15, 0.4, 0.8):
            delta = dmin + f * (dmax - dmin)
            rate = srdf(model, [2, 4], delta).rate_bits
            assert distortion_rate(model, [2, 4], rate) == pytest.approx(delta, rel=1e-8)

    def test_non_finite_inputs_are_out_of_range(self):
        model = CovarianceModel(np.array([[1.0, 0.6], [0.6, 1.0]]))
        with pytest.raises(BudgetOutOfRange):
            distortion_rate(model, [1], math.nan)
        with pytest.raises(BudgetOutOfRange):
            srdf(model, [1], math.nan)


class TestOneSpectralCore:
    """Every spectrum comes from one Cholesky reduction and one eigvalsh; a floor needs no eigenvalues."""

    FIELDS = (
        FieldModel(GaussMarkovKernel(0.4)),
        FieldModel(TabulatedKernel(0.5 ** np.abs(np.linspace(0.0, 1.0, 9)[:, None] - np.linspace(0.0, 1.0, 9)))),
    )
    POINTS = (0.1, 0.45, 0.8)

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    def test_each_spectrum_takes_one_eigvalsh(self, calls):
        model = random_model(np.random.default_rng(7), 6)
        runs = [
            lambda: srdf_spectrum(partition(model, [2, 5])),
            # C(6, 3) = 20 subsets: one stack
            lambda: best_fixed_set(model, 3, ("min_rate_at", 0.5 * max_distortion(model))),
            *(lambda field=field: field_srdf_spectrum(field, self.POINTS) for field in self.FIELDS),
        ]
        for run in runs:
            calls.update(eigh=0, eigvalsh=0)
            run()
            assert calls == {"eigh": 0, "eigvalsh": 1}

    def test_floors_take_no_eigendecomposition(self, calls):
        model = random_model(np.random.default_rng(7), 6)
        min_distortion(partition(model, [2, 5]))
        best_fixed_set(model, 3)
        for field in self.FIELDS:
            field_min_distortion(field, self.POINTS)
        assert calls == {"eigh": 0, "eigvalsh": 0}

    def test_indefinite_sampled_block_is_singular(self):
        bp = BlockPartition(
            sigma_a=np.array([[1.0, 2.0], [2.0, 1.0]]),
            sigma_a_ac=np.array([[0.5], [0.5]]),
            sigma_ac=np.eye(1),
            sampled=SamplingSet((1, 2)),
        )
        with pytest.raises(SingularSigmaA):
            min_distortion(bp)
        with pytest.raises(SingularSigmaA):
            srdf_spectrum(bp)


class TestSingleSiteClosedForm:
    def test_correlation_model_requires_unit_diagonal(self):
        with pytest.raises(Exception):
            correlation_model(np.array([1.0, 1.0]), np.array([[1.0, 0.2], [0.2, 0.9]]))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_general_solver(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(2, 7))
        sigmas = rng.uniform(0.5, 2.0, size=m)
        corr = random_correlation(rng, m)
        model = correlation_model(sigmas, corr)
        j = int(rng.integers(1, m + 1))
        bp = partition(model, (j,))
        dmin = min_distortion(bp)
        assert single_site_min_distortion(sigmas, corr, j) == pytest.approx(dmin, rel=1e-10, abs=1e-12)
        dmax = max_distortion(model)
        for f in (0.1, 0.5, 0.9):
            delta = dmin + f * (dmax - dmin)
            got = single_site_srdf(sigmas, corr, j, delta)
            want = srdf(model, (j,), delta).rate_bits
            assert got == pytest.approx(want, abs=1e-9)


def random_correlation(rng, m):
    """Random correlation matrix via normalized Wishart."""
    a = rng.standard_normal((m, m + 2))
    s = a @ a.T
    d = np.sqrt(np.diag(s))
    return s / np.outer(d, d)
