import math
import tracemalloc
import warnings

import numpy as np
import pytest

import srdf_kit.field
from srdf_kit import (
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
from srdf_kit.field import PLACEMENT_CAP, RESTART_CAP, _brent, _gm_cross_mass, _gm_optimal_points

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
            mass = _gm_cross_mass(0.3, pts)
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
        for points, checks in ((FieldSamplingSet((0.125, 0.375, 0.75)), 0), ((0.0, 0.34, 0.66, 1.0), 1)):
            calls.update(dict.fromkeys(calls, 0))
            field_srdf(gm_field(0.5, quad_points=256), points, 0.9)
            # Gauss-Markov integrals are closed form: one Gram matrix, validated and factored once, no nodes
            assert calls == {"_mesh_simpson": 0, "_validated_factor": 1, "cholesky": 1, "__post_init__": checks}
            calls.update(dict.fromkeys(calls, 0))
            field_srdf(FieldModel(TabulatedKernel(half_lag_mesh(9)), quad_points=256), points, 0.9)
            # one Gram matrix and one node set, one Simpson panel per mesh cell
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
            raise AssertionError("the coordinate search ran")

        monkeypatch.setattr(srdf_kit.field, "_brent", no_search)
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

    def test_search_reports_calls_and_restart_values(self, monkeypatch):
        calls = 0
        original = srdf_kit.field.field_srdf

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(srdf_kit.field, "field_srdf", counted)
        # the shape of the benchmark's largest min_rate_at placement, where the
        # golden-section line search made 933 objective calls
        res = optimize_placement(gm_field(0.4577), 4, ("min_rate_at", 0.5642), restarts=2,
                                 pin_endpoints=True, seed=649339510)
        assert res.objective_calls == calls <= 300
        assert len(res.restart_values) == 2 and res.value == min(res.restart_values)

    def test_free_search_leaves_an_infeasible_equispaced_start(self):
        # the floor at (0.25, 0.75) is 0.1347, above delta; the floor optimum meets delta
        fm, delta = gm_field(0.5), 0.1336
        with pytest.raises(InfeasibleDistortion):
            field_srdf(fm, (0.25, 0.75), delta)
        optimum = tuple(_gm_optimal_points(0.5, 2, False))
        res = optimize_placement(fm, 2, ("min_rate_at", delta), restarts=4)
        assert math.isfinite(res.value) and res.value <= field_srdf(fm, optimum, delta).rate_bits
        assert res.value == pytest.approx(8.87, abs=5e-3)

    def test_infeasible_random_restarts_start_from_the_first_feasible_point(self, monkeypatch):
        # delta sits just above the floor 0.32392 of the pinned optimum (0, 0.5, 1); the random
        # draws of restarts 1 and 2 lie above delta, where every line search used to stay at inf
        searches = []

        def recorded(fn, lo, hi, x, fx, *args, **kwargs):
            found = _brent(fn, lo, hi, x, fx, *args, **kwargs)
            searches.append((x, fx, found[1]))
            return found

        monkeypatch.setattr(srdf_kit.field, "_brent", recorded)
        fm, delta = gm_field(0.125), 0.3292
        res = optimize_placement(fm, 3, ("min_rate_at", delta), restarts=3, pin_endpoints=True, seed=0)
        assert res.restart_values == pytest.approx([9.70394352] * 3, rel=1e-8)
        assert searches and all(math.isfinite(start) and found <= start for _, start, found in searches)
        # each random restart begins at its segment's first feasible point, not at the optimum
        margins = [delta - field_min_distortion(fm, (0.0, x, 1.0)) for x, _, _ in searches]
        assert sum(0.0 < m < 1e-6 for m in margins) == 2

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
        for name in ("field_min_distortion", "field_srdf"):
            monkeypatch.setattr(srdf_kit.field, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(GridTooLarge, match="restart cap"):
            optimize_placement(gm_field(0.5, quad_points=256), 2, objective, restarts=restarts)
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
        def infeasible(field, points, delta):
            raise InfeasibleDistortion("below the floor")

        monkeypatch.setattr(srdf_kit.field, "field_srdf", infeasible)
        res = optimize_placement(gm_field(0.5, quad_points=256), 1, ("min_rate_at", 0.6), restarts=1)
        assert res.value == math.inf

    def test_objective_lets_other_errors_through(self, monkeypatch):
        def broken(field, points, delta):
            raise RuntimeError("bug in the objective")

        monkeypatch.setattr(srdf_kit.field, "field_srdf", broken)
        with pytest.raises(RuntimeError, match="bug in the objective"):
            optimize_placement(gm_field(0.5, quad_points=256), 1, ("min_rate_at", 0.6), restarts=1)


class TestBrent:
    SHAPES = {
        "parabola": lambda x, c: (x - c) ** 2 + 1.0,
        "kink": lambda x, c: abs(x - c),
        "cusp": lambda x, c: math.sqrt(abs(x - c)),
        "quartic": lambda x, c: (x - c) ** 4,
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("x0", [0.3, 0.95, 1.0])
    def test_lands_within_tol_of_the_minimizer(self, shape, x0):
        # x0 = 1.0 is an end of the bracket, so the search starts from the golden point.
        # It stops with x within tol/2 of both ends of a bracket holding the minimizer.
        for c in np.linspace(0.0137, 0.9863, 25):
            def fn(x):
                return self.SHAPES[shape](x, c)

            x, fx = _brent(fn, 0.0, 1.0, x0, fn(x0), tol=1e-6)
            assert abs(x - c) <= 0.5e-6 and fx == fn(x)

    @pytest.mark.parametrize("x0", np.linspace(0.0, 1.0, 21))
    def test_never_returns_more_than_the_start(self, x0):
        # several valleys: the search may settle in any of them, never above the start
        def fn(x):
            return math.cos(12.0 * x) + 0.1 * x

        x, fx = _brent(fn, 0.0, 1.0, x0, fn(x0))
        assert fx <= fn(x0) and fx == fn(x)

    @pytest.mark.parametrize("x0, fn", [(0.0, lambda x: x), (1.0, lambda x: -x)], ids=["rising", "falling"])
    def test_keeps_a_start_at_the_end_that_beats_the_inside(self, x0, fn):
        assert _brent(fn, 0.0, 1.0, x0, fn(x0)) == (x0, fn(x0))

    def test_spends_no_call_on_the_start(self):
        seen = []

        def fn(x):
            seen.append(x)
            return (x - 0.3) ** 2

        x, _ = _brent(fn, 0.0, 1.0, 0.7, 0.16)
        assert 0.7 not in seen and abs(x - 0.3) <= 1e-6
        # a parabola is found in a few steps, where golden section takes about 31
        assert len(seen) <= 12

    @pytest.mark.parametrize("edge", [0.3, 0.6])
    @pytest.mark.parametrize("x0", [0.1, 0.9])
    def test_stays_finite_where_the_function_is_infinite(self, edge, x0):
        # infinite left of the edge, as min_rate_at is where a layout's floor passes delta;
        # numpy scalars turn inf - inf into a RuntimeWarning
        def fn(x):
            return np.float64(np.inf) if x < edge else np.float64((x - 0.5) ** 2)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, fx = _brent(fn, 0.0, 1.0, x0, fn(x0))
        assert math.isfinite(fx) and abs(x - max(edge, 0.5)) <= 1e-6
