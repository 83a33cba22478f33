"""Property tests of the exact spectral core over random inputs.

Every test is derandomized, so a run draws the same examples each time.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from itertools import combinations

from srdf_kit import (
    CovarianceModel,
    FieldModel,
    GaussMarkovKernel,
    InfeasibleDistortion,
    Spectrum,
    TabulatedKernel,
    affine_family,
    bayes_atom_data,
    bayes_usrdf,
    best_fixed_set,
    distortion_rate,
    field_max_distortion,
    field_min_distortion,
    field_srdf,
    field_srdf_spectrum,
    fixed_var_corr_family,
    gm_min_distortion_pinned,
    gm_min_distortion_single,
    gm_segment_explained,
    max_distortion,
    min_distortion,
    nonbayes_usrdf,
    optimize_placement,
    partition,
    project_family,
    srdf,
    srdf_spectrum,
    waterfill,
)
from srdf_kit.cli import main
from srdf_kit.field import _field_block, _gm_cross_mass, _gm_optimal_points
from srdf_kit.srdf import _block_spectrum, _blocks, congruent_spectrum
from srdf_kit.universal import bayes_curve

from conftest import knot_simpson, multi_atom_family

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
CLI_PROPERTY = settings(derandomize=True, deadline=None, max_examples=15)

spectra = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12)
seeds = st.integers(0, 2**32 - 1)


def case(seed):
    """(model, sampling set) drawn from ``seed``: m in 2..6, any nonempty subset."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    a = rng.standard_normal((m, m))
    k = int(rng.integers(1, m + 1))
    sampled = sorted(int(i) + 1 for i in rng.choice(m, size=k, replace=False))
    return CovarianceModel(a @ a.T + 0.5 * np.eye(m)), sampled


def singleton_family(rng):
    """(family, sampling set): affine, uniform prior, every grid node its own atom.

    The direction moves the first component's variance, which every sampling
    set below observes.
    """
    a = rng.standard_normal((3, 5))
    base = a @ a.T / 5 + 0.3 * np.eye(3)
    direction = np.zeros((3, 3))
    direction[0, 0] = 1.0
    family = affine_family(base, [direction], [(0.0, float(rng.uniform(0.1, 1.0)))], prior="uniform", grid_res=5)
    return family, [1] if rng.uniform() < 0.5 else [1, 2]


def mp_bayes_rate(mp, data, delta):
    """Common rate r with sum_a w_a D_a(r) = ``delta``, in the working precision of ``mp``.

    D_a is evaluated from its active set: with the j largest modes active the
    level is 2^((sum_{i<=j} log2 lambda_i - 2r) / j), and the right j is the
    first whose level is at least the next mode.
    """
    def distortion(lams, r):
        for j in range(1, len(lams) + 1):
            level = mp.power(2, (mp.fsum(mp.log(x, 2) for x in lams[:j]) - 2 * r) / j)
            if j == len(lams) or level >= lams[j]:
                return mp.fsum(min(level, x) for x in lams)

    atoms = [(mp.mpf(d.weight), mp.mpf(d.spectrum.delta_min), [mp.mpf(x) for x in d.spectrum.lambdas]) for d in data]

    def excess(r):
        return mp.fsum(w * (floor + distortion(lams, r)) for w, floor, lams in atoms) - mp.mpf(delta)

    hi = mp.mpf(1)
    while excess(hi) > 0:
        hi *= 2
    return mp.findroot(excess, (mp.mpf(0), hi), solver="anderson")


def field_points(rng, k):
    """k sorted points in [0, 1] at least 0.02 apart."""
    while True:
        pts = np.sort(rng.uniform(0.0, 1.0, k))
        if np.all(np.diff(pts) >= 0.02):
            return tuple(float(p) for p in pts)


def tabulated_field(rng, n, k):
    """A two-scale kernel on an n-knot mesh and k points off its mesh lines, one per cell at most."""
    grid = np.linspace(0.0, 1.0, n)
    lag = np.abs(grid[:, None] - grid[None, :])
    mix = rng.uniform(0.3, 0.7)
    kernel = TabulatedKernel(mix * rng.uniform(0.2, 0.5) ** lag + (1 - mix) * rng.uniform(0.6, 0.9) ** lag)
    cells = np.sort(rng.choice(n - 1, size=k, replace=False))
    return kernel, tuple(float(x) for x in (cells + rng.uniform(0.1, 0.9, size=k)) / (n - 1))


def fmt(x):
    return f"{float(x):.9g}"


def run_curve(task, cfg):
    """Run one CLI curve task on ``cfg``; the data rows of its curve.csv."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main([task, "--config", str(path), "--out", str(Path(tmp) / "out")]) == 0
        lines = (Path(tmp) / "out" / "curve.csv").read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


@PROPERTY
@given(spectra, st.floats(1e-6, 1.0, exclude_max=True))
def test_exact_level_spends_the_budget(lams, fraction):
    budget = fraction * float(np.sum(lams))
    sol = waterfill(lams, budget)
    assert sum(min(sol.alpha, lam) for lam in lams) == pytest.approx(budget, rel=1e-12)


@PROPERTY
@given(seeds, st.floats(0.0, 8.0))
def test_srdf_inverts_distortion_rate(seed, rate):
    model, sampled = case(seed)
    delta = distortion_rate(model, sampled, rate)
    assert srdf(model, sampled, delta).rate_bits == pytest.approx(rate, abs=1e-8)


@PROPERTY
@given(seeds, st.floats(0.01, 1.0))
def test_distortion_rate_inverts_srdf(seed, fraction):
    model, sampled = case(seed)
    dmin = min_distortion(partition(model, sampled))
    delta = dmin + fraction * (max_distortion(model) - dmin)
    rate = srdf(model, sampled, delta).rate_bits
    assert distortion_rate(model, sampled, rate) == pytest.approx(delta, rel=1e-9)


@PROPERTY
@given(spectra, st.floats(0.0, 10.0))
def test_rate_is_monotone_and_convex(lams, floor):
    spec = Spectrum(floor, lams)
    grid = floor + np.linspace(0.01, 1.05, 60) * spec.total
    rates = spec.rate(grid)
    tol = 1e-9 * max(1.0, float(np.max(rates)))
    assert np.all(np.diff(rates) <= tol)
    assert np.all(np.diff(rates, 2) >= -tol)


@PROPERTY
@given(seeds, st.floats(0.01, 1.05))
def test_adding_a_sample_never_hurts(seed, fraction):
    model, sampled = case(seed)
    rest = sorted(set(range(1, model.m + 1)) - set(sampled))
    assume(rest)
    fewer = srdf_spectrum(partition(model, sampled))
    more = srdf_spectrum(partition(model, sorted(sampled + [rest[seed % len(rest)]])))
    assert more.delta_min <= fewer.delta_min + 1e-9
    delta = fewer.delta_min + fraction * (max_distortion(model) - fewer.delta_min)
    assert more.rate(delta) <= fewer.rate(delta) + 1e-9


@PROPERTY
@given(seeds, st.floats(0.01, 1.05))
def test_sampled_curve_lies_on_or_above_the_fully_observed_curve(seed, fraction):
    model, sampled = case(seed)
    spec = srdf_spectrum(partition(model, sampled))
    full = srdf_spectrum(partition(model, range(1, model.m + 1)))
    delta = spec.delta_min + fraction * (max_distortion(model) - spec.delta_min)
    assert spec.rate(delta) >= full.rate(delta) - 1e-9


@PROPERTY
@given(seeds, st.floats(0.01, 1.05))
def test_nonbayes_curve_lies_on_or_above_the_bayes_curve(seed, fraction):
    family, sampled = singleton_family(np.random.default_rng(seed))
    worst = nonbayes_usrdf(family, sampled, 1e9)
    bayes = bayes_usrdf(family, sampled, 1e9)
    # above the worst atom's floor both curves are finite
    top = max(worst.delta_max, bayes.delta_max)
    delta = worst.delta_min + fraction * (top - worst.delta_min)
    assert nonbayes_usrdf(family, sampled, delta).rate_bits >= bayes_usrdf(family, sampled, delta).rate_bits - 1e-8


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seeds, st.integers(1, 4), st.floats(1e-2, 0.99))
def test_bayes_rate_is_the_high_precision_root(seed, k, fraction):
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    family, sampled = multi_atom_family(np.random.default_rng(seed), k)
    data = [bayes_atom_data(family, sampled, atom) for atom in project_family(family, sampled).atoms]
    assert len(data) == 3
    point = bayes_curve(data, [1e9])[0]
    delta = point.delta_min + fraction * (point.delta_max - point.delta_min)
    assert abs(bayes_curve(data, [delta])[0].rate_bits - float(mp_bayes_rate(mp, data, delta))) <= 1e-12


@PROPERTY
@given(seeds)
def test_mse_of_a_linear_code_splits_into_weighted_error_plus_floor(seed):
    model, sampled = case(seed)
    rng = np.random.default_rng(seed + 1)
    a = [i - 1 for i in sampled]
    ac = [i for i in range(model.m) if i not in a]
    k = len(a)
    # reproduce the sampled block as y_a = L x_a and the rest as b^T y_a, with b
    # the least-squares coefficients of x_ac on x_a
    lin = rng.standard_normal((k, k))
    sigma = model.sigma
    b = np.linalg.lstsq(sigma[np.ix_(a, a)], sigma[np.ix_(a, ac)], rcond=None)[0]
    error = np.zeros((model.m, model.m))
    error[np.ix_(a, a)] = np.eye(k) - lin
    error[np.ix_(ac, a)] = -b.T @ lin
    error[np.ix_(ac, ac)] = np.eye(len(ac))
    total = float(np.trace(error @ sigma @ error.T))
    bp = partition(model, sampled)
    resid = (np.eye(k) - lin) @ bp.sigma_a @ (np.eye(k) - lin).T
    split = float(np.trace(resid @ _block_spectrum(*_blocks(bp))[1])) + min_distortion(bp)
    assert split == pytest.approx(total, rel=1e-10)


@PROPERTY
@given(seeds, st.booleans())
def test_field_spectrum_and_floor_add_up_to_the_field_variance(seed, tabulated):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    if tabulated:
        kernel, points = tabulated_field(rng, 17, k)
    else:
        kernel = GaussMarkovKernel(float(rng.uniform(0.2, 0.9)))
        points = field_points(rng, k)
    field = FieldModel(kernel, quad_points=1024)
    spec = field_srdf_spectrum(field, points)
    # the trace of G Sigma_A is tr(Sigma_A^{-1} M): the variance the samples explain
    assert spec.delta_max == pytest.approx(field_max_distortion(field), rel=1e-9)


@PROPERTY
@given(seeds)
def test_pinned_gauss_markov_floor_matches_its_closed_form(seed):
    rng = np.random.default_rng(seed)
    p = float(rng.uniform(0.2, 0.9))
    inner = field_points(rng, int(rng.integers(1, 5)))
    assume(inner[0] >= 0.02 and inner[-1] <= 0.98)
    points = (0.0, *inner, 1.0)
    got = field_min_distortion(FieldModel(GaussMarkovKernel(p), quad_points=2048), points)
    assert got == pytest.approx(gm_min_distortion_pinned(p, points), abs=1e-9)


@PROPERTY
@given(seeds, st.booleans())
def test_cross_mass_matches_fine_quadrature(seed, tabulated):
    # the oracle's knots hold every crease: the points for p^|s-u|, the mesh lines
    # (and, redundantly, the points) for a bilinear mesh
    rng = np.random.default_rng(seed)
    if tabulated:
        n = int(rng.integers(2, 41))
        kernel, points = tabulated_field(rng, n, int(rng.integers(1, min(6, n - 1) + 1)))
        knots = (*np.linspace(0.0, 1.0, n), *points)
    else:
        kernel = GaussMarkovKernel(float(rng.uniform(0.05, 0.95)))
        points = field_points(rng, int(rng.integers(1, 7)))
        if rng.uniform() < 0.3:
            points = (0.0, *points[1:-1], 1.0) if len(points) > 1 else (float(rng.choice([0.0, 1.0])),)
        knots = points
    field = FieldModel(kernel)
    mass, variance = knot_simpson(kernel, points, knots)
    np.testing.assert_allclose(_field_block(field, points)[1], mass, rtol=1e-9, atol=0.0)
    assert field_max_distortion(field) == pytest.approx(variance, rel=1e-9)


@PROPERTY
@given(seeds)
def test_gauss_markov_floor_matches_its_closed_forms(seed):
    rng = np.random.default_rng(seed)
    p = float(rng.uniform(0.2, 0.9))
    field = FieldModel(GaussMarkovKernel(p))
    a = float(rng.uniform(0.0, 1.0))
    assert field_min_distortion(field, (a,)) == pytest.approx(gm_min_distortion_single(p, a), abs=1e-12)
    inner = field_points(rng, int(rng.integers(1, 5)))
    assume(inner[0] >= 0.02 and inner[-1] <= 0.98)
    points = (0.0, *inner, 1.0)
    assert field_min_distortion(field, points) == pytest.approx(gm_min_distortion_pinned(p, points), abs=1e-12)


def end_gap_floor(p, e):
    """psi(e): the Gauss-Markov floor of an end gap of length e, left after its one bounding sample."""
    return e - (1.0 - p ** (2.0 * e)) / (-2.0 * np.log(p))


def interior_gap_floor(p, g):
    """phi(g): the Gauss-Markov floor of a gap of length g between two samples."""
    return g - gm_segment_explained(p, g)


@PROPERTY
@given(st.floats(0.01, 0.99), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0), st.floats(0.0, 1.0))
def test_gauss_markov_gap_floors_are_convex(p, x, y, mix):
    assume(abs(x - y) >= 1e-2)
    mid = mix * x + (1.0 - mix) * y
    for gap_floor in (end_gap_floor, interior_gap_floor):
        chord = mix * gap_floor(p, x) + (1.0 - mix) * gap_floor(p, y)
        assert gap_floor(p, mid) <= chord + 1e-12


@PROPERTY
@given(seeds, st.booleans())
def test_exact_gauss_markov_placement_beats_any_point_set(seed, pin):
    rng = np.random.default_rng(seed)
    field = FieldModel(GaussMarkovKernel(float(rng.uniform(0.01, 0.99))))
    k = int(rng.integers(2 if pin else 1, 9))
    if pin:
        inner = field_points(rng, k - 2) if k > 2 else ()
        assume(not inner or (inner[0] >= 0.02 and inner[-1] <= 0.98))
        points = (0.0, *inner, 1.0)
    else:
        points = field_points(rng, k)
    best = optimize_placement(field, k, "min_delta_min", pin_endpoints=pin)
    assert best.value <= field_min_distortion(field, points) + 1e-12


@PROPERTY
@given(st.floats(0.01, 0.99), st.integers(2, 8), st.sampled_from([-1e-3, 1e-3]))
def test_free_gauss_markov_optimum_is_a_minimum_among_equal_gap_layouts(p, k, step):
    field = FieldModel(GaussMarkovKernel(p))
    best = optimize_placement(field, k, "min_delta_min")
    end = best.points[0] + step
    moved = end + (1.0 - 2.0 * end) / (k - 1) * np.arange(k)
    assert best.value <= field_min_distortion(field, tuple(moved)) + 1e-12


@PROPERTY
@given(st.floats(0.01, 0.99), st.integers(1, 12))
def test_free_gauss_markov_optimum_is_symmetric(p, k):
    points = np.array(optimize_placement(FieldModel(GaussMarkovKernel(p)), k, "min_delta_min").points)
    np.testing.assert_allclose(points + points[::-1], 1.0, rtol=0.0, atol=1e-12)


def rate_or_inf(field, points, delta):
    try:
        return field_srdf(field, tuple(points), delta).rate_bits
    except InfeasibleDistortion:
        return math.inf


@CLI_PROPERTY
@given(st.floats(0.05, 0.95), st.integers(1, 4), st.floats(1e-3, 0.5), st.integers(1, 2), seeds)
def test_free_rate_placement_beats_both_start_layouts(p, k, slack, restarts, seed):
    field = FieldModel(GaussMarkovKernel(p))
    optimum = _gm_optimal_points(p, k, False)
    # just above the lowest floor, the equispaced layout is often infeasible
    floor = field_min_distortion(field, tuple(optimum))
    delta = floor + slack * (1.0 - floor)
    res = optimize_placement(field, k, ("min_rate_at", delta), restarts=restarts, seed=seed)
    assert math.isfinite(res.value)
    assert res.value <= rate_or_inf(field, (np.arange(k) + 0.5) / k, delta)
    assert res.value <= rate_or_inf(field, optimum, delta)


def pinned_three_point_rates(p, delta, middle):
    """min_rate_at objective of (0, a, 1) for every a in ``middle``, as one stack; inf below the floor."""
    pts = np.stack([np.zeros_like(middle), middle, np.ones_like(middle)], axis=-1)
    sigma = p ** np.abs(pts[:, :, None] - pts[:, None, :])
    mass = np.array([_gm_cross_mass(p, row) for row in pts])
    lift = np.linalg.solve(sigma, mass)
    floors = 1.0 - np.trace(lift, axis1=1, axis2=2)
    g = np.linalg.solve(sigma, np.swapaxes(lift, 1, 2))
    lambdas = congruent_spectrum(sigma, 0.5 * (g + np.swapaxes(g, 1, 2)))
    rates = np.full(middle.size, math.inf)
    feasible = floors < delta
    rates[feasible] = Spectrum(floors[feasible], lambdas[feasible]).rate(delta)
    return rates


@settings(derandomize=True, deadline=None, max_examples=8)
@given(st.floats(0.02, 0.98), st.floats(1e-3, 0.9), seeds)
def test_pinned_three_point_rate_placement_matches_a_fine_grid(p, slack, seed):
    # one free coordinate: each restart is a single line search
    field = FieldModel(GaussMarkovKernel(p))
    floor = field_min_distortion(field, (0.0, 0.5, 1.0))
    delta = floor + slack * (1.0 - floor)
    res = optimize_placement(field, 3, ("min_rate_at", delta), restarts=3, pin_endpoints=True, seed=seed)
    grid_min = float(pinned_three_point_rates(p, delta, np.linspace(0.0, 1.0, 10**4 + 1)[1:-1]).min())
    assert res.value <= grid_min + 1e-10
    if delta > field_min_distortion(field, (0.0, 1.0)):
        # then no layout is infeasible, and a random start finds the minimum too
        assert max(res.restart_values) <= grid_min + 1e-10


@PROPERTY
@given(seeds, st.booleans())
def test_stacked_subset_search_matches_per_subset_evaluation(seed, rate_objective):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    k = int(rng.integers(1, m + 1))
    # components 1 and 2 are exchangeable, so (1, rest) and (2, rest) tie exactly
    a = rng.standard_normal((m, m))
    a[0] *= 2.0
    a[1] = a[0]
    d = rng.uniform(0.3, 1.0, m)
    d[1] = d[0]
    model = CovarianceModel(a @ a.T + np.diag(d))
    subsets = list(combinations(range(1, m + 1), k))
    specs = [srdf_spectrum(partition(model, s)) for s in subsets]
    floors = np.array([spec.delta_min for spec in specs])
    delta = None
    if rate_objective:
        # the median floor: about half the subsets cannot reach it
        delta = float(np.median(floors))
        want = []
        for spec in specs:
            try:
                want.append(spec.rate(delta))
            except InfeasibleDistortion:
                want.append(np.inf)
        want = np.array(want)
    res = best_fixed_set(model, k, ("min_rate_at", delta) if rate_objective else "min_delta_min")
    assert [row.indices for row in res.rows] == subsets
    got_floors = np.array([row.delta_min for row in res.rows])
    np.testing.assert_allclose(got_floors, floors, rtol=1e-12, atol=1e-13)
    values = got_floors
    if rate_objective:
        values = np.array([row.rate_bits for row in res.rows])
        assert np.array_equal(np.isinf(values), np.isinf(want))
        np.testing.assert_allclose(values[np.isfinite(values)], want[np.isfinite(want)], rtol=1e-12, atol=1e-13)
    else:
        assert all(row.rate_bits is None for row in res.rows)
    for i, s in enumerate(subsets):
        if s[0] == 2:
            assert values[i] == values[subsets.index((1, *s[1:]))]
    first = int(np.argmin(values))
    assert res.best.indices == subsets[first] and res.value == values[first]
    # a best subset that starts with 2 ties its twin starting with 1, which comes first
    assert res.best.indices[0] != 2


@CLI_PROPERTY
@given(seeds)
def test_cli_known_law_curves_match_point_calls(seed):
    model, sampled = case(seed)
    dmin = min_distortion(partition(model, sampled))
    dmax = max_distortion(model)
    base = {"model": {"sigma": model.sigma.tolist()}, "sampling": sampled}
    deltas = {"min": dmin + 0.01 * (dmax - dmin), "max": 1.05 * dmax, "count": 23}
    rows = run_curve("srdf", {**base, "grid": deltas})
    want = [[fmt(d), fmt(srdf(model, sampled, float(d)).rate_bits)]
            for d in np.linspace(deltas["min"], deltas["max"], 23)]
    assert rows == want
    rows = run_curve("distrate", {**base, "grid": {"min": 0.0, "max": 9.0, "count": 19}})
    want = [[fmt(r), fmt(distortion_rate(model, sampled, float(r)))] for r in np.linspace(0.0, 9.0, 19)]
    assert rows == want


@CLI_PROPERTY
@given(seeds, st.booleans())
def test_cli_universal_curves_match_point_calls(seed, correlation_family):
    rng = np.random.default_rng(seed)
    if correlation_family:
        # one atom of many members: Bayes averages them, the worst case is closed form
        sigma2, r_lo = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 0.4))
        r_hi = r_lo + float(rng.uniform(0.1, 0.5))
        block = {"template": "fixed-var-corr", "sigma2": sigma2, "box": [[r_lo, r_hi]]}
        family = fixed_var_corr_family(sigma2, r_lo, r_hi, prior="uniform", grid_res=9)
        sampled = [1]
    else:
        # the direction moves a sampled variance, so every node is its own atom
        a = rng.standard_normal((3, 5))
        base = a @ a.T / 5 + 0.3 * np.eye(3)
        direction = np.zeros((3, 3))
        direction[0, 0] = 1.0
        top = float(rng.uniform(0.1, 1.0))
        block = {"template": "affine", "base": base.tolist(), "directions": [direction.tolist()],
                 "box": [[0.0, top]]}
        family = affine_family(base, [direction], [(0.0, top)], prior="uniform", grid_res=9)
        sampled = [1] if rng.uniform() < 0.5 else [1, 2]
    block.update({"prior": "uniform", "grid_res": 9})
    for task, point in (("usrdf-bayes", bayes_usrdf), ("usrdf-nonbayes", nonbayes_usrdf)):
        floor = point(family, sampled, 1e9).delta_min
        top = point(family, sampled, 1e9).delta_max
        grid = {"min": floor + 0.02 * (top - floor), "max": top * 1.02, "count": 9}
        rows = run_curve(task, {"family": block, "sampling": sampled, "grid": grid})
        want = [[fmt(d), fmt(point(family, sampled, float(d)).rate_bits)]
                for d in np.linspace(grid["min"], grid["max"], 9)]
        assert rows == want
