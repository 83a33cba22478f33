import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import srdf_kit.field
from srdf_kit import (
    BudgetOutOfRange,
    DomainError,
    FieldModel,
    FieldSamplingSet,
    GaussMarkovKernel,
    GridTooLarge,
    InfeasibleDistortion,
    TabulatedKernel,
    field_gram,
    field_max_distortion,
    field_min_distortion,
    field_srdf,
    field_srdf_spectrum,
    gm_min_distortion_pinned,
    gm_min_distortion_single,
    gm_segment_explained,
    optimize_placement,
)
from srdf_kit.field import (
    GRADIENT_TOL,
    PLACEMENT_CAP,
    RESTART_CAP,
    SEP_TOL,
    _descend,
    _gm_optimal_points,
    _project,
)

from conftest import knot_simpson, reference_gm_cross_mass


def gm_field(p, quad_points=2048):
    return FieldModel(GaussMarkovKernel(p), quad_points=quad_points)


def half_lag_mesh(n):
    """The 0.5^|s-u| kernel tabulated on an n-knot mesh."""
    grid = np.linspace(0.0, 1.0, n)
    return 0.5 ** np.abs(grid[:, None] - grid[None, :])


class TestKernels:
    def test_gauss_markov_values(self):
        kern = GaussMarkovKernel(0.5)
        s = np.array([0.0, 0.25])
        u = np.array([1.0, 0.25])
        got = kern.corr(s, u)
        assert got == pytest.approx([0.5, 1.0])

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_gauss_markov_domain(self, p):
        with pytest.raises(DomainError):
            GaussMarkovKernel(p)

    def test_tabulated_interpolates_exactly_at_mesh(self):
        grid = np.linspace(0.0, 1.0, 9)
        vals = 0.5 ** np.abs(grid[:, None] - grid[None, :])
        kern = TabulatedKernel(vals)
        got = kern.corr(grid, np.full_like(grid, 0.5))
        assert got == pytest.approx(0.5 ** np.abs(grid - 0.5), abs=1e-12)

    def test_tabulated_close_to_smooth_kernel(self):
        # bilinear meshes undershoot the diagonal kink by ~h|ln p|/3, so the
        # gap to the smooth kernel shrinks linearly with the mesh step
        grid = np.linspace(0.0, 1.0, 201)
        vals = 0.5 ** np.abs(grid[:, None] - grid[None, :])
        fm = FieldModel(TabulatedKernel(vals), quad_points=512)
        exact = gm_min_distortion_single(0.5, 0.5)
        got = field_min_distortion(fm, FieldSamplingSet((0.5,)))
        assert got == pytest.approx(exact, abs=2e-3)

    def test_tabulated_rejects_asymmetric(self):
        vals = np.eye(4)
        vals[0, 1] = 0.5
        with pytest.raises(DomainError):
            TabulatedKernel(vals)

    @pytest.mark.parametrize("entry,value", [((0, 2), math.nan), ((1, 1), math.inf)], ids=["nan", "inf"])
    def test_tabulated_rejects_non_finite(self, entry, value):
        vals = half_lag_mesh(3)
        vals[entry] = vals[entry[::-1]] = value
        with pytest.raises(DomainError, match="finite"):
            TabulatedKernel(vals)

    @pytest.mark.parametrize("scale", [1e-154, 1e-160, 1e-180])
    def test_tabulated_rejects_a_mesh_too_small_for_its_integrals(self, scale):
        # the bound is sqrt(6 (N - 1) tiny), 7.3e-154 for 5 knots; at 1e-160 the second eigenvalue read
        # 9.5% high, and at 1e-180 both rounded to 0 and failed as eigen_failure
        with pytest.raises(DomainError, match="underflow"):
            TabulatedKernel(half_lag_mesh(5) * scale)

    def test_tabulated_mesh_just_above_the_smallest_scale_keeps_its_spectrum(self):
        mesh = half_lag_mesh(5)
        want = field_srdf_spectrum(FieldModel(TabulatedKernel(mesh)), [0.25, 0.5])
        got = field_srdf_spectrum(FieldModel(TabulatedKernel(mesh * 1e-153)), [0.25, 0.5])
        np.testing.assert_allclose(got.lambdas, want.lambdas * 1e-153, rtol=1e-12, atol=0.0)
        assert got.delta_min == pytest.approx(want.delta_min * 1e-153, rel=1e-12, abs=0.0)

    def test_mesh_csv_round_trip(self, tmp_path):
        grid = np.linspace(0.0, 1.0, 5)
        vals = 0.7 ** np.abs(grid[:, None] - grid[None, :])
        path = tmp_path / "mesh.csv"
        lines = ["5"]
        for i in range(5):
            for j in range(5):
                lines.append(f"{i},{j},{vals[i, j]:.17g}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        kern = TabulatedKernel.from_mesh_csv(path)
        assert np.allclose(kern.values, vals)

    def test_mesh_csv_negative_size(self, tmp_path):
        # four rows match N*N = 4, so only the size check stops the file
        path = tmp_path / "mesh.csv"
        path.write_text("-2\n0,0,1.0\n0,1,0.5\n1,0,0.5\n1,1,1.0\n", encoding="utf-8")
        with pytest.raises(DomainError, match="N >= 2"):
            TabulatedKernel.from_mesh_csv(path)

    def test_mesh_csv_missing_entry(self, tmp_path):
        path = tmp_path / "mesh.csv"
        path.write_text("2\n0,0,1.0\n0,1,0.5\n1,0,0.5\n", encoding="utf-8")
        with pytest.raises(DomainError):
            TabulatedKernel.from_mesh_csv(path)


class TestSingleSiteField:
    # closed form for the exponential kernel: explained mass splits at the site
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("a", [0.0, 0.2, 0.5, 0.9, 1.0])
    def test_min_distortion_matches_closed_form(self, p, a):
        fm = gm_field(p, quad_points=1024)
        got = field_min_distortion(fm, FieldSamplingSet((a,)))
        assert got == pytest.approx(gm_min_distortion_single(p, a), abs=1e-9)

    def test_known_values(self):
        # frozen from the antiderivative form with natural logs
        assert gm_min_distortion_single(0.5, 0.5) == pytest.approx(0.2786524795555183, abs=1e-12)
        assert gm_min_distortion_single(0.5, 0.0) == pytest.approx(0.4589893596666387, abs=1e-12)

    def test_center_is_best(self):
        vals = [gm_min_distortion_single(0.5, a) for a in np.linspace(0.0, 1.0, 21)]
        center = gm_min_distortion_single(0.5, 0.5)
        assert min(vals) == pytest.approx(center)
        # monotone in |a - 0.5| on each side
        left = vals[:11]
        assert all(left[i] > left[i + 1] for i in range(10))
        right = vals[10:]
        assert all(right[i] < right[i + 1] for i in range(10))

    def test_field_srdf_closed_form_k1(self):
        # one sample point: a single weighted mode of mass delta_max - delta_min
        fm = gm_field(0.5)
        pts = FieldSamplingSet((0.3,))
        dmin = field_min_distortion(fm, pts)
        dmax = field_max_distortion(fm)
        assert dmax == pytest.approx(1.0, abs=1e-10)
        for delta in (dmin + 0.05, dmin + 0.2, 0.9):
            want = 0.5 * math.log2((dmax - dmin) / (delta - dmin))
            assert field_srdf(fm, pts, delta).rate_bits == pytest.approx(want, abs=1e-7)


class TestSegments:
    def test_gamma_frozen_value(self):
        assert gm_segment_explained(0.5, 1.0) == pytest.approx(0.7760283747816492, abs=1e-9)

    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            gm_segment_explained(0.5, 0.0)
        with pytest.raises(DomainError):
            gm_segment_explained(0.5, 1.5)

    @pytest.mark.parametrize("p", [0.3, 0.6])
    @pytest.mark.parametrize("inner", [(0.5,), (0.25, 0.75), (0.2, 0.4, 0.9)])
    def test_pinned_identity_vs_quadrature(self, p, inner):
        points = (0.0,) + inner + (1.0,)
        fm = gm_field(p)
        got = field_min_distortion(fm, FieldSamplingSet(points))
        want = gm_min_distortion_pinned(p, points)
        assert got == pytest.approx(want, abs=1e-7)

    def test_pinned_requires_endpoints(self):
        with pytest.raises(DomainError):
            gm_min_distortion_pinned(0.5, (0.1, 0.9))

    def test_cross_mass_of_a_thousand_points_is_quadratic_in_memory(self):
        # a (k+1) k k segment array would hold 8 GB here
        pts = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 1000))
        tracemalloc.start()
        try:
            mass = GaussMarkovKernel(0.3).mass(pts)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        # each entry depends on its own pair of points alone
        for i, j in ((0, 999), (17, 500), (998, 999), (400, 400)):
            pair = reference_gm_cross_mass(0.3, pts[sorted({i, j})])
            assert mass[i, j] == pytest.approx(pair[0, -1], rel=1e-13)


class TestFieldSrdfProperties:
    def test_spectrum_sum_identity(self):
        fm = gm_field(0.4)
        pts = FieldSamplingSet((0.2, 0.7))
        lams = field_srdf_spectrum(fm, pts).lambdas
        total = field_max_distortion(fm) - field_min_distortion(fm, pts)
        assert float(np.sum(lams)) == pytest.approx(total, rel=1e-8)

    def test_gram_is_kernel_at_points(self):
        fm = gm_field(0.6)
        pts = FieldSamplingSet((0.1, 0.4, 0.9))
        gram = field_gram(fm, pts)
        arr = np.array(pts.points)
        want = 0.6 ** np.abs(arr[:, None] - arr[None, :])
        assert np.allclose(gram, want, atol=1e-12)

    def test_infeasible_below_floor(self):
        fm = gm_field(0.5)
        pts = FieldSamplingSet((0.5,))
        dmin = field_min_distortion(fm, pts)
        with pytest.raises(InfeasibleDistortion):
            field_srdf(fm, pts, dmin * 0.99)

    def test_distortion_rate_round_trip(self):
        fm = gm_field(0.5)
        pts = FieldSamplingSet((0.25, 0.8))
        delta = 0.5
        rate = field_srdf(fm, pts, delta).rate_bits
        assert field_srdf_spectrum(fm, pts).distortion(rate) == pytest.approx(delta, rel=1e-7)

    def test_one_gram_matrix_and_node_set_per_point_set(self, monkeypatch):
        # the point-set check is counted where it runs: FieldSamplingSet.__post_init__
        calls = {"_mesh_simpson": 0, "_validated_factor": 0, "cholesky": 0, "__post_init__": 0}
        targets = {"_mesh_simpson": srdf_kit.field, "_validated_factor": srdf_kit.field,
                   "cholesky": np.linalg, "__post_init__": FieldSamplingSet}
        for name, namespace in targets.items():
            original = getattr(namespace, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(namespace, name, counted)
        # a checked set is not checked again; a tuple, as the placement objective passes it, once
        queries = (lambda fm, points: field_srdf(fm, points, 0.9), field_srdf_spectrum)
        for query, (points, checks) in itertools.product(
                queries, ((FieldSamplingSet((0.125, 0.375, 0.75)), 0), ((0.0, 0.34, 0.66, 1.0), 1))):
            calls.update(dict.fromkeys(calls, 0))
            query(gm_field(0.5, quad_points=256), points)
            # Gauss-Markov integrals are closed form: one Gram matrix, validated and factored once, no nodes
            assert calls == {"_mesh_simpson": 0, "_validated_factor": 1, "cholesky": 1, "__post_init__": checks}
            calls.update(dict.fromkeys(calls, 0))
            query(FieldModel(TabulatedKernel(half_lag_mesh(9)), quad_points=256), points)
            # one Gram matrix and one node set, one Simpson panel per mesh cell, the zero-rate distortion included
            assert calls == {"_mesh_simpson": 1, "_validated_factor": 1, "cholesky": 1, "__post_init__": checks}

    @pytest.mark.parametrize("quad_points", [16, 512, 2048])
    def test_off_mesh_tabulated_floor_is_exact(self, quad_points):
        # samples between mesh lines; quad_points sets nothing any more
        kernel = TabulatedKernel(half_lag_mesh(17))
        points = (0.23, 0.61)
        # oracle: the integrated variance less tr(Sigma_A^{-1} M), both by a fine
        # Simpson rule with knots at the mesh lines, where the integrands crease
        mass, variance = knot_simpson(kernel, points, np.linspace(0.0, 1.0, 17), panels=64)
        gram = kernel.corr(np.array(points)[:, None], np.array(points)[None, :])
        want = variance - float(np.trace(np.linalg.solve(gram, mass)))
        fm = FieldModel(kernel, quad_points=quad_points)
        assert field_min_distortion(fm, points) == pytest.approx(want, rel=1e-12)
        assert field_max_distortion(fm) == pytest.approx(variance, rel=1e-12)

    def test_floor_of_a_determined_field_is_resolved(self):
        # on one mesh cell two samples determine the bilinear field: the floor is
        # rounding noise, which is judged against the variance, not against itself
        fm = FieldModel(TabulatedKernel(half_lag_mesh(2)), quad_points=512)
        assert field_min_distortion(fm, FieldSamplingSet((0.25, 0.75))) == pytest.approx(0.0, abs=1e-12)

    def test_point_set_validation(self):
        with pytest.raises(DomainError):
            FieldSamplingSet((0.5, 0.5))
        with pytest.raises(DomainError):
            FieldSamplingSet((-0.1,))
        with pytest.raises(DomainError):
            FieldSamplingSet(())


class TestPlacement:
    def test_single_point_center(self):
        fm = gm_field(0.5, quad_points=512)
        res = optimize_placement(fm, 1, "min_delta_min", restarts=4, seed=0)
        assert res.points[0] == pytest.approx(0.5, abs=1e-3)

    def test_pinned_three_points_uniform(self):
        fm = gm_field(0.6, quad_points=512)
        res = optimize_placement(fm, 3, "min_delta_min", restarts=2, pin_endpoints=True, seed=0)
        assert res.points[0] == 0.0 and res.points[-1] == 1.0
        assert res.points[1] == pytest.approx(0.5, abs=1e-2)

    def test_deterministic(self):
        fm = gm_field(0.5, quad_points=256)
        r1 = optimize_placement(fm, 2, "min_delta_min", restarts=3, seed=5)
        r2 = optimize_placement(fm, 2, "min_delta_min", restarts=3, seed=5)
        assert r1.points == r2.points and r1.value == r2.value

    @pytest.mark.parametrize("k, pin", [(1, False), (2, False), (5, False), (2, True), (5, True)])
    def test_gauss_markov_min_delta_min_is_exact(self, monkeypatch, k, pin):
        def no_search(*args, **kwargs):
            raise AssertionError("the quasi-Newton search ran")

        monkeypatch.setattr(srdf_kit.field, "_descend", no_search)
        fm = gm_field(0.4)
        res = optimize_placement(fm, k, "min_delta_min", restarts=2, pin_endpoints=pin, seed=3)
        assert res.solver == "exact" and res.restarts == 2
        assert res.value == field_min_distortion(fm, res.points)
        if pin:
            assert res.points == tuple(np.linspace(0.0, 1.0, k))

    def test_exact_path_reports_one_call_and_no_restarts(self):
        res = optimize_placement(gm_field(0.4), 3, "min_delta_min", restarts=2)
        assert res.objective_calls == 1 and res.restart_values == ()

    @pytest.mark.parametrize("k", [2, 8, 50])
    def test_end_gap_tends_to_a_third_of_the_interior_gap_as_p_tends_to_one(self, k):
        # near p = 1, psi'(e) ~ 2e|ln p| and phi'(g) ~ 2g|ln p|/3, and the optimum equates them
        pts = optimize_placement(gm_field(1.0 - 1e-9), k, "min_delta_min").points
        assert pts[0] / (pts[1] - pts[0]) == pytest.approx(1.0 / 3.0, rel=1e-8)

    @pytest.mark.parametrize("k, pin, message", [(0, False, "at least one point"), (1, True, "k >= 2")])
    def test_point_count_checked_before_the_exact_solve(self, k, pin, message):
        with pytest.raises(DomainError, match=message):
            optimize_placement(gm_field(0.5), k, "min_delta_min", pin_endpoints=pin)

    def test_search_is_deterministic(self):
        fm = gm_field(0.5)
        runs = [optimize_placement(fm, 3, ("min_rate_at", 0.4), restarts=3, pin_endpoints=True, seed=7)
                for _ in range(2)]
        assert runs[0] == runs[1] and runs[0].solver == "search"

    def test_search_no_worse_than_the_equispaced_start(self):
        fm = gm_field(0.45)
        res = optimize_placement(fm, 3, ("min_rate_at", 0.5), restarts=2, pin_endpoints=True, seed=11)
        assert res.points[0] == 0.0 and res.points[-1] == 1.0
        assert res.value <= field_srdf(fm, (0.0, 0.5, 1.0), 0.5).rate_bits

    @pytest.mark.parametrize("p, delta, seed, sweeps", [
        # the shape of the benchmark's largest min_rate_at placement, where Brent's coordinate
        # sweeps made 220 objective calls, and golden-section line searches before them 933
        (0.4577, 0.5642, 649339510, 0.6007010436237611),
        # that placement itself, where the sweeps made 235
        (0.40161032030812766, 0.48550868554251103, 1552545901, 0.856539370367007),
    ], ids=["shape", "benchmark"])
    def test_search_reports_calls_and_restart_values(self, monkeypatch, p, delta, seed, sweeps):
        calls = 0
        original = srdf_kit.field._field_reduce

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(srdf_kit.field, "_field_reduce", counted)
        res = optimize_placement(gm_field(p), 4, ("min_rate_at", delta), restarts=2, pin_endpoints=True, seed=seed)
        # one reduction per evaluation, each a value with its gradient
        assert res.objective_calls == calls <= 60
        assert res.value <= sweeps   # the sweeps' value
        assert len(res.restart_values) == 2 and res.value == min(res.restart_values)
        assert len(res.restart_iterations) == 2 and all(n >= 1 for n in res.restart_iterations)
        assert len(res.restart_gradient_norms) == 2 and max(res.restart_gradient_norms) < 1e-6

    def test_free_search_leaves_an_infeasible_equispaced_start(self):
        # the floor at (0.25, 0.75) is 0.1347, above delta; the floor optimum meets delta
        fm, delta = gm_field(0.5), 0.1336
        with pytest.raises(InfeasibleDistortion):
            field_srdf(fm, (0.25, 0.75), delta)
        optimum = tuple(_gm_optimal_points(0.5, 2, False))
        res = optimize_placement(fm, 2, ("min_rate_at", delta), restarts=4)
        assert math.isfinite(res.value) and res.value <= field_srdf(fm, optimum, delta).rate_bits
        assert res.value == pytest.approx(8.87, abs=5e-3)

    @pytest.mark.parametrize("kind", ["gauss-markov", "tabulated"])
    def test_infeasible_starts_descend_the_floor_then_the_rate(self, monkeypatch, kind):
        # delta sits just above the floor 0.32392 of the pinned optimum (0, 0.5, 1), restart 0's
        # start; the random draws of restarts 1 and 2 lie above delta, where the rate is inf.  Each
        # descends the floor, finite there, and searches the rate from where that ends
        searches = []

        def recorded(evaluate, x, value, *args):
            found = _descend(evaluate, x, value, *args)
            searches.append((x[0], value, found[0][0]))
            return found

        monkeypatch.setattr(srdf_kit.field, "_descend", recorded)
        fm = gm_field(0.125) if kind == "gauss-markov" else FieldModel(TabulatedKernel(0.125 ** np.abs(
            np.linspace(0.0, 1.0, 65)[:, None] - np.linspace(0.0, 1.0, 65)[None, :])))
        delta = 0.3292 if kind == "gauss-markov" else field_min_distortion(fm, (0.0, 0.5, 1.0)) + 5e-4
        res = optimize_placement(fm, 3, ("min_rate_at", delta), restarts=3, pin_endpoints=True, seed=0)
        assert all(math.isfinite(v) for v in res.restart_values)
        if kind == "gauss-markov":
            assert res.restart_values == pytest.approx([9.70394352] * 3, rel=1e-8)
        floors = [field_min_distortion(fm, (0.0, x, 1.0)) for x, _, _ in searches]
        assert len(searches) == 5 and [i for i, f in enumerate(floors) if f >= delta] == [1, 3]
        for i in (1, 3):
            # the first descent from an infeasible start is the floor's; the rate's starts where it ends
            assert searches[i][1] == floors[i]
            assert searches[i + 1][0] == searches[i][2] and math.isfinite(searches[i + 1][1])

    def test_tabulated_search_leaves_an_infeasible_equispaced_start(self):
        # delta is 0.9 of the floor at the equispaced (0, 0.5, 1): restart 0 starts infeasible, and
        # with no finite result to bisect toward, the random draws of seed 0 as well.  Brent's
        # sweeps stayed at inf from all three of those starts and placed (0, 0.445, 1), at
        # 13.839299980527095, only from seed 1's third.  Descending the floor first reaches the
        # feasible set from every one of them
        lag = np.abs(np.linspace(0.0, 1.0, 9)[:, None] - np.linspace(0.0, 1.0, 9)[None, :])
        fm = FieldModel(TabulatedKernel(0.456 * 0.31 ** lag + 0.544 * 0.757 ** lag))
        delta = 0.9 * field_min_distortion(fm, (0.0, 0.5, 1.0))
        with pytest.raises(InfeasibleDistortion):
            field_srdf(fm, (0.0, 0.5, 1.0), delta)
        for restarts in (1, 3):
            res = optimize_placement(fm, 3, ("min_rate_at", delta), restarts=restarts, pin_endpoints=True, seed=0)
            assert max(res.restart_values) <= 13.839299980527095
            assert min(abs(res.points[1] - 0.445), abs(res.points[1] - 0.555)) < 1e-3

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_singular_random_start_scores_inf(self, seed):
        # one random draw of each seed has a singular Gram matrix: seed 1's Cholesky fails, seed 2's
        # smallest pivot is 6e-15.  That restart scores inf, and the others place as before
        res = optimize_placement(FieldModel(TabulatedKernel(half_lag_mesh(5))), 3, "min_delta_min",
                                 restarts=8, seed=seed)
        assert res.value == pytest.approx(0.019056018386265, rel=1e-9)
        assert sum(v == math.inf for v in res.restart_values) == 1

    def test_placement_cap_is_checked_before_anything_is_built(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the placement was built")

        monkeypatch.setattr(srdf_kit.field, "_gm_optimal_points", unreachable)
        with pytest.raises(GridTooLarge, match="placement cap"):
            optimize_placement(gm_field(0.5), PLACEMENT_CAP + 1, "min_delta_min", pin_endpoints=True)

    @pytest.mark.parametrize("objective", ["min_delta_min", ("min_rate_at", 0.6)])
    @pytest.mark.parametrize("restarts", [RESTART_CAP + 1, 10 ** 9])
    def test_restart_cap_is_checked_before_any_objective_call(self, monkeypatch, objective, restarts):
        calls = []
        monkeypatch.setattr(srdf_kit.field, "_field_reduce", lambda *args: calls.append(args))
        with pytest.raises(GridTooLarge, match="restart cap"):
            optimize_placement(gm_field(0.5, quad_points=256), 2, objective, restarts=restarts)
        assert calls == []

    @pytest.mark.parametrize("kernel", ["gauss-markov", "tabulated"])
    @pytest.mark.parametrize("pin_endpoints", [False, True])
    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_target_is_refused_before_any_objective_call(self, monkeypatch, kernel, pin_endpoints,
                                                                    delta):
        # it used to be searched: every restart scored inf, as did the result
        calls = []
        monkeypatch.setattr(srdf_kit.field, "_field_reduce", lambda *args: calls.append(args))
        field = gm_field(0.5) if kernel == "gauss-markov" else FieldModel(TabulatedKernel(half_lag_mesh(9)))
        with pytest.raises(BudgetOutOfRange, match="distortion must be finite") as caught:
            optimize_placement(field, 3, ("min_rate_at", delta), restarts=4, pin_endpoints=pin_endpoints)
        assert caught.value.code == "srdf.budget_out_of_range"
        assert calls == []

    def test_restart_cap_admits_the_cap(self, monkeypatch):
        monkeypatch.setattr(srdf_kit.field, "RESTART_CAP", 2)
        fm = gm_field(0.5, quad_points=256)
        assert optimize_placement(fm, 1, ("min_rate_at", 0.6), restarts=2).restarts == 2
        with pytest.raises(GridTooLarge, match="restart cap"):
            optimize_placement(fm, 1, ("min_rate_at", 0.6), restarts=3)

    def test_min_rate_objective(self):
        fm = gm_field(0.5, quad_points=256)
        res = optimize_placement(fm, 1, ("min_rate_at", 0.6), restarts=3, seed=1)
        assert res.points[0] == pytest.approx(0.5, abs=5e-3)
        assert res.objective.startswith("min_rate_at")

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_needs_a_restart(self, restarts):
        with pytest.raises(DomainError, match="restart"):
            optimize_placement(gm_field(0.5, quad_points=256), 2, restarts=restarts)

    def test_objective_reports_package_errors_as_infinite(self, monkeypatch):
        def infeasible(field, points):
            raise InfeasibleDistortion("below the floor")

        monkeypatch.setattr(srdf_kit.field, "_field_reduce", infeasible)
        res = optimize_placement(gm_field(0.5, quad_points=256), 1, ("min_rate_at", 0.6), restarts=1)
        assert res.value == math.inf

    def test_objective_lets_other_errors_through(self, monkeypatch):
        def broken(field, points):
            raise RuntimeError("bug in the objective")

        monkeypatch.setattr(srdf_kit.field, "_field_reduce", broken)
        with pytest.raises(RuntimeError, match="bug in the objective"):
            optimize_placement(gm_field(0.5, quad_points=256), 1, ("min_rate_at", 0.6), restarts=1)


class TestDescend:
    # each shape is (function, derivative) of x with its minimizer at c
    SHAPES = {
        "parabola": (lambda x, c: (x - c) ** 2 + 1.0, lambda x, c: 2.0 * (x - c)),
        "kink": (lambda x, c: abs(x - c), lambda x, c: math.copysign(1.0, x - c)),
        "quartic": (lambda x, c: (x - c) ** 4, lambda x, c: 4.0 * (x - c) ** 3),
        "cosh": (lambda x, c: math.cosh(8.0 * (x - c)), lambda x, c: 8.0 * math.sinh(8.0 * (x - c))),
    }

    @staticmethod
    def line(fn, slope):
        """evaluate(x) of a function of one point, as the search calls it, and its calls."""
        calls = []

        def evaluate(x):
            calls.append(float(x[0]))
            value = fn(float(x[0]))
            return value, (None if value == math.inf else np.array([slope(float(x[0]))]))

        return evaluate, calls

    def descend(self, evaluate, x0):
        x = np.array([x0])
        return _descend(evaluate, x, *evaluate(x), 0.0, 1.0)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("x0", [0.3, 0.95, 1.0])
    def test_lands_at_the_minimizer(self, shape, x0):
        # x0 = 1.0 is an end of the range; the kink has no gradient that shrinks near c, and the
        # quartic's is flat there, so these are held to the value they reach instead
        fn, slope = self.SHAPES[shape]
        for c in np.linspace(0.0137, 0.9863, 25):
            evaluate, _ = self.line(lambda x: fn(x, c), lambda x: slope(x, c))
            x, value, grad, _, _ = self.descend(evaluate, x0)
            assert value == fn(float(x[0]), c) and grad[0] == slope(float(x[0]), c)
            assert value - fn(c, c) <= 1e-10
            if shape in ("parabola", "cosh"):
                assert abs(x[0] - c) <= 1e-8

    @pytest.mark.parametrize("x0", np.linspace(0.0, 1.0, 21))
    def test_never_returns_more_than_the_start(self, x0):
        # several valleys: the search may settle in any of them, never above the start
        evaluate, _ = self.line(lambda x: math.cos(12.0 * x) + 0.1 * x, lambda x: 0.1 - 12.0 * math.sin(12.0 * x))
        x, value, _, _, _ = self.descend(evaluate, x0)
        assert value <= evaluate(np.array([x0]))[0] and value == evaluate(x)[0]

    @pytest.mark.parametrize("x0, fn, slope", [(0.0, lambda x: x, lambda x: 1.0), (1.0, lambda x: -x, lambda x: -1.0)],
                             ids=["rising", "falling"])
    def test_keeps_a_start_at_the_end_that_beats_the_inside(self, x0, fn, slope):
        # the projected gradient step goes nowhere, so the start is stationary: one evaluation
        evaluate, calls = self.line(fn, slope)
        x, value, _, steps, norm = self.descend(evaluate, x0)
        assert (x[0], value, steps, norm) == (x0, fn(x0), 0, 0.0) and len(calls) == 1

    def test_a_parabola_takes_a_few_evaluations(self):
        # a capped steepest-descent step, then the secant step lands on the minimizer
        evaluate, calls = self.line(lambda x: (x - 0.3) ** 2, lambda x: 2.0 * (x - 0.3))
        x = self.descend(evaluate, 0.7)[0]
        assert abs(x[0] - 0.3) <= 1e-12 and len(calls) <= 4

    @pytest.mark.parametrize("edge", [0.3, 0.6])
    @pytest.mark.parametrize("x0", [0.001, 0.3])
    def test_does_not_step_into_the_infinite_region(self, edge, x0):
        # infinite left of the edge, as min_rate_at is where a layout's floor passes delta; a start
        # there has no gradient (the placement first descends the floor from it), so this one
        # starts x0 right of the edge
        evaluate, _ = self.line(lambda x: math.inf if x < edge else (x - 0.5) ** 2, lambda x: 2.0 * (x - 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, value, _, _, _ = self.descend(evaluate, edge + x0)
        assert math.isfinite(value) and abs(x[0] - max(edge, 0.5)) <= 1e-6

    @pytest.mark.parametrize("knots", [None, np.linspace(0.0, 1.0, 9)])
    def test_knots_lead_out_of_a_higher_valley(self, knots):
        # valleys at 0.3 (value 0.01) and 0.55 (value 0) with a step between them: the gradient steps
        # stop at 0.3, where the knot 0.5, two cells away, scores lower and leads to 0.55
        evaluate, _ = self.line(lambda x: (x - 0.3) ** 2 + 0.01 if x < 0.45 else (x - 0.55) ** 2,
                                lambda x: 2.0 * (x - 0.3) if x < 0.45 else 2.0 * (x - 0.55))
        x = np.array([0.25])
        x, value, _, steps, _ = _descend(evaluate, x, *evaluate(x), 0.0, 1.0, knots)
        want = 0.3 if knots is None else 0.55
        assert abs(x[0] - want) <= 1e-8 and steps >= (1 if knots is None else 2)   # a knot move is a step

    @pytest.mark.parametrize("n, pinned", [(2, False), (5, False), (3, True), (6, True)])
    def test_points_pulled_together_stay_ordered_and_apart(self, n, pinned):
        # every point wants 0.4; the nearest ordered layout packs them SEP_TOL apart around it
        lo, hi = (SEP_TOL, 1.0 - SEP_TOL) if pinned else (0.0, 1.0)

        def evaluate(x):
            return float(np.sum((x - 0.4) ** 2)), 2.0 * (x - 0.4)

        x0 = np.linspace(0.1, 0.9, n)
        x, value, _, steps, norm = _descend(evaluate, x0, *evaluate(x0), lo, hi)
        want = 0.4 + SEP_TOL * (np.arange(n) - 0.5 * (n - 1))
        np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-9)
        assert np.all(np.diff(x) >= SEP_TOL * (1.0 - 1e-6)) and norm <= GRADIENT_TOL and steps >= 1


@pytest.mark.parametrize("seed", range(4))
def test_projection_is_the_nearest_ordered_point(seed):
    # the nearest point of a convex set is the one point p with (x - p) . (y - p) <= 0 for every y in it
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        lo, hi = (SEP_TOL, 1.0 - SEP_TOL) if rng.uniform() < 0.5 else (0.0, 1.0)
        x = rng.uniform(-0.3, 1.3, n)
        if rng.uniform() < 0.5:   # clustered, so that many pools form
            x = 0.5 + 1e-6 * rng.standard_normal(n)
        p = _project(x, lo, hi)
        assert p[0] >= lo and p[-1] <= hi and np.all(np.diff(p) >= SEP_TOL * (1.0 - 1e-6))
        for _ in range(20):
            y = lo + SEP_TOL * np.arange(n) + np.sort(rng.uniform(0.0, hi - lo - SEP_TOL * (n - 1), n))
            assert float((x - p) @ (y - p)) <= 1e-12
        # an ordered, separated point is its own projection
        np.testing.assert_allclose(_project(p, lo, hi), p, rtol=0.0, atol=1e-15)
