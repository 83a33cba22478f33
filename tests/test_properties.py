"""Property tests of the exact spectral core over random inputs.

Every test is derandomized, so a run draws the same examples each time.
"""

import dataclasses
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from itertools import combinations

from srdf_kit import (
    BudgetOutOfRange,
    CovarianceModel,
    FieldModel,
    GaussMarkovKernel,
    InfeasibleDistortion,
    Spectrum,
    SrdfKitError,
    TabulatedKernel,
    affine_family,
    atom_spectra,
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
    project_family,
    srdf,
    srdf_spectrum,
    validate_covariance,
    waterfill,
)
from srdf_kit import simulate, universal
from srdf_kit.model import PD_TOL, _blocks, _validated_factor
from srdf_kit.universal import ATOM_TOL
from srdf_kit.cli import main
from srdf_kit.field import SEP_TOL, _gm_optimal_points, _mesh_simpson, _placement_objective, field_gram
from srdf_kit.srdf import _lift, _weight
from srdf_kit.universal import bayes_curve

from conftest import (
    knot_simpson,
    multi_atom_family,
    reference_assign,
    reference_block,
    reference_field,
    reference_field_rate,
    reference_field_reduce,
    reference_gm_cross_mass,
    reference_node_sigmas,
    reference_project_family,
    reference_spectrum,
    reference_validate_covariance,
    reference_vector_rate,
    reference_whiten,
)

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


def mp_bayes_rate(mp, spectra, weights, delta):
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

    atoms = [(mp.mpf(w), mp.mpf(f), [mp.mpf(x) for x in lams])
             for w, f, lams in zip(weights, spectra.delta_min, spectra.lambdas)]

    def excess(r):
        return mp.fsum(w * (floor + distortion(lams, r)) for w, floor, lams in atoms) - mp.mpf(delta)

    hi = mp.mpf(1)
    while excess(hi) > 0:
        hi *= 2
    return mp.findroot(excess, (mp.mpf(0), hi), solver="anderson")


def field_points(rng, k, gap=0.02):
    """k sorted points in [0, 1] at least ``gap`` apart."""
    while True:
        pts = np.sort(rng.uniform(0.0, 1.0, k))
        if np.all(np.diff(pts) >= gap):
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
    dmin = min_distortion(model, sampled)
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
    fewer = srdf_spectrum(model, sampled)
    more = srdf_spectrum(model, sorted(sampled + [rest[seed % len(rest)]]))
    assert more.delta_min <= fewer.delta_min + 1e-9
    delta = fewer.delta_min + fraction * (max_distortion(model) - fewer.delta_min)
    assert more.rate(delta) <= fewer.rate(delta) + 1e-9


@PROPERTY
@given(seeds, st.floats(0.01, 1.05))
def test_sampled_curve_lies_on_or_above_the_fully_observed_curve(seed, fraction):
    model, sampled = case(seed)
    spec = srdf_spectrum(model, sampled)
    full = srdf_spectrum(model, range(1, model.m + 1))
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
    part = project_family(family, sampled)
    spectra, weights = atom_spectra(part), part.weights
    assert len(weights) == 3
    curve = bayes_curve(spectra, weights, 1e9)
    delta = curve.delta_min + fraction * (curve.delta_max - curve.delta_min)
    rate = bayes_curve(spectra, weights, delta).rate_bits
    assert abs(rate - float(mp_bayes_rate(mp, spectra, weights, delta))) <= 1e-12


@PROPERTY
@given(seeds, st.integers(1, 4))
def test_atoms_are_the_known_law_reduction_of_their_averaged_covariance(seed, k):
    family, sampled = multi_atom_family(np.random.default_rng(seed), k)
    part = project_family(family, sampled)
    spectra = atom_spectra(part)
    assert spectra.lambdas.shape == (3, k)
    for members, sigma, floor, lams in zip(part.members, part.sigma, spectra.delta_min, spectra.lambdas):
        members = list(members)
        mean = np.average(family.node_sigmas[members], axis=0, weights=family.node_weights[members])
        np.testing.assert_allclose(sigma, mean, rtol=1e-14, atol=0.0)
        ref_floor, ref_lams = reference_block(sigma, sampled)
        assert floor == pytest.approx(ref_floor, rel=1e-12)
        np.testing.assert_allclose(lams, ref_lams, rtol=1e-12, atol=0.0)


@PROPERTY
@given(seeds)
def test_singleton_atoms_are_their_members_own_curves(seed):
    family, sampled = singleton_family(np.random.default_rng(seed))
    part = project_family(family, sampled)
    spectra = atom_spectra(part)
    assert len(spectra.lambdas) == len(family.nodes)
    for (node,), floor, lams in zip(part.members, spectra.delta_min, spectra.lambdas):
        own = srdf_spectrum(CovarianceModel(family.node_sigmas[node]), sampled)
        assert floor == pytest.approx(own.delta_min, rel=1e-12)
        np.testing.assert_allclose(lams, own.lambdas, rtol=1e-12, atol=0.0)


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
    sigma_a, cross, _ = _blocks(sigma, np.array(a))
    resid = (np.eye(k) - lin) @ sigma_a @ (np.eye(k) - lin).T
    split = float(np.trace(resid @ _weight(_lift(sigma_a, cross)))) + min_distortion(model, sampled)
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
    np.testing.assert_allclose(kernel.mass(np.asarray(points))[0], mass, rtol=1e-9, atol=0.0)
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


@CLI_PROPERTY
@given(st.floats(0.05, 0.95), st.integers(2, 4), st.booleans(), st.floats(1e-3, 0.05), seeds)
def test_every_gauss_markov_restart_ends_feasible(p, k, pin, slack, seed):
    # just above the lowest floor most random draws are infeasible; each descends the floor, a
    # convex function of the gaps, which reaches the feasible set before the rate is searched
    field = FieldModel(GaussMarkovKernel(p))
    floor = field_min_distortion(field, tuple(_gm_optimal_points(p, k, pin)))
    delta = floor + slack * (1.0 - floor)
    res = optimize_placement(field, k, ("min_rate_at", delta), restarts=3, pin_endpoints=pin, seed=seed)
    assert all(math.isfinite(v) for v in res.restart_values), res.restart_values


@PROPERTY
@given(seeds)
def test_gm_cross_mass_matches_segment_sum(seed):
    # p from 1e-6 up to 1 - 1e-9, points anywhere in [0, 1], endpoints included
    rng = np.random.default_rng(seed)
    p = float(10.0 ** rng.uniform(-6.0, -0.3)) if rng.uniform() < 0.5 else 1.0 - float(10.0 ** rng.uniform(-9.0, -0.3))
    pts = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(1, 13))))
    if rng.uniform() < 0.3:
        pts[0], pts[-1] = 0.0, 1.0
    mass = GaussMarkovKernel(p).mass(pts)[0]
    np.testing.assert_allclose(mass, reference_gm_cross_mass(p, pts), rtol=1e-13, atol=0.0)
    assert np.array_equal(mass, mass.T)


def pinned_three_point_rates(p, delta, middle):
    """min_rate_at objective of (0, a, 1) for every a in ``middle``, as one stack; inf below the floor."""
    pts = np.stack([np.zeros_like(middle), middle, np.ones_like(middle)], axis=-1)
    sigma = p ** np.abs(pts[:, :, None] - pts[:, None, :])
    mass = np.array([GaussMarkovKernel(p).mass(row)[0] for row in pts])
    lift = np.linalg.solve(sigma, mass)
    floors = 1.0 - np.trace(lift, axis1=1, axis2=2)
    g = np.linalg.solve(sigma, np.swapaxes(lift, 1, 2))
    lambdas = reference_spectrum(sigma, 0.5 * (g + np.swapaxes(g, 1, 2)))
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


def pinned_tabulated_values(kernel, delta, middle):
    """Floor (delta None) or min_rate_at objective of (0, *row, 1) for every row of ``middle``, as
    one stack; inf below the floor and where the Gram matrix is too near singular to score."""
    pts = np.concatenate([np.zeros((len(middle), 1)), middle, np.ones((len(middle), 1))], axis=1)
    sigma = kernel.corr(pts[:, :, None], pts[:, None, :])
    u, w = _mesh_simpson(kernel.mesh_n)
    c = kernel.corr(u[None, :, None], pts[:, None, :])
    mass = np.einsum("gni,n,gnj->gij", c, w, c)
    eig = np.linalg.eigvalsh(sigma)
    usable = eig[:, 0] > 1e-8 * eig[:, -1]
    factor = np.linalg.cholesky(sigma[usable])
    s = np.linalg.solve(factor, np.swapaxes(np.linalg.solve(factor, mass[usable]), 1, 2))
    floors = np.maximum(0.0, float(w @ kernel.corr(u, u)) - np.trace(s, axis1=1, axis2=2))
    values = np.full(len(pts), math.inf)
    if delta is None:
        values[usable] = floors
        return values
    lambdas = np.linalg.eigvalsh(0.5 * (s + np.swapaxes(s, 1, 2)))[:, ::-1]
    rates = np.full(floors.size, math.inf)
    feasible = floors < delta
    rates[feasible] = Spectrum(floors[feasible], lambdas[feasible]).rate(delta)
    values[usable] = rates
    return values


@pytest.mark.parametrize("seed", range(16))
def test_pinned_tabulated_placement_matches_a_fine_grid(seed):
    # two free points on a mesh, where the objective creases at mesh lines and can dip inside any
    # cell: the search ends at or below the least of the ordered pairs on a 1/80 grid.  Rates at
    # a delta the equispaced layout meets for even seeds, floors for odd ones
    rng = np.random.default_rng(seed)
    kernel = tabulated_field(rng, int(rng.integers(4, 20)), 1)[0]
    field = FieldModel(kernel)
    axis = np.linspace(0.0, 1.0, 81)[1:-1]
    first, second = np.meshgrid(axis, axis, indexing="ij")
    middle = np.stack([first[first < second], second[first < second]], axis=-1)
    objective, delta = "min_delta_min", None
    if seed % 2 == 0:
        floor = field_min_distortion(field, (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0))
        delta = floor + float(rng.uniform(1e-3, 0.5)) * (field_max_distortion(field) - floor)
        objective = ("min_rate_at", delta)
    grid_min = float(pinned_tabulated_values(kernel, delta, middle).min())
    res = optimize_placement(field, 4, objective, restarts=int(rng.integers(1, 4)), pin_endpoints=True, seed=seed)
    assert res.value <= grid_min + 1e-9 * max(1.0, abs(grid_min)), (res, grid_min)


def placement_case(rng, kind, k, pinned):
    """(field, points) with k points, the first at 0 and the last at 1 when ``pinned``: Gauss-Markov
    points 0.02 apart or more, tabulated ones off their 17-knot mesh lines by a tenth of a cell, one
    per cell at most.  A pinned end and a point in its cell would determine the bilinear field
    there, leaving the floor flat in that point, so the end cells stay empty."""
    inner = k - 2 if pinned else k
    if kind == "tabulated":
        kernel = tabulated_field(rng, 17, 1)[0]
        cells = np.sort(rng.choice(np.arange(1, 15) if pinned else np.arange(16), size=inner, replace=False))
        points = tuple(float(x) for x in (cells + rng.uniform(0.1, 0.9, size=inner)) / 16)
    else:
        kernel = GaussMarkovKernel(float(rng.uniform(0.05, 0.95)))
        points = tuple(0.02 + 0.96 * x for x in field_points(rng, inner)) if pinned else field_points(rng, k)
    return FieldModel(kernel), ((0.0, *points, 1.0) if pinned else points)


@PROPERTY
@given(seeds, st.sampled_from(["gauss-markov", "tabulated"]), st.booleans(), st.booleans())
def test_placement_gradient_matches_central_differences(seed, kind, pinned, rate):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3 if pinned else 1, 7))
    field, points = placement_case(rng, kind, k, pinned)
    objective = "min_delta_min"
    if rate:
        floor = field_min_distortion(field, points)
        objective = ("min_rate_at", floor + float(rng.uniform(0.05, 0.9)) * (field_max_distortion(field) - floor))
    fn = _placement_objective(field, objective)[0]
    value, grad = fn(points)
    free = list(range(1, k - 1) if pinned else range(k))   # a pinned end never moves
    h = 1e-5
    central = []
    for i in free:
        up, down = np.array(points), np.array(points)
        up[i] += h
        down[i] -= h
        central.append((fn(tuple(up))[0] - fn(tuple(down))[0]) / (2.0 * h))
    scale = np.abs(grad[free]).max()
    assert scale > 1e-6
    assert np.abs(np.array(central) - grad[free]).max() <= 1e-6 * scale, (central, grad)


@CLI_PROPERTY
@given(seeds, st.sampled_from(["gauss-markov", "tabulated"]), st.booleans(), st.booleans())
def test_search_ends_at_or_below_every_restart_0_start(seed, kind, pinned, rate):
    # a Gauss-Markov floor is solved exactly, so there the search minimizes rates only
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2 if pinned else 1, 5))
    field = placement_case(rng, kind, 2, False)[0]
    starts = [np.linspace(0.0, 1.0, k) if pinned else (np.arange(k) + 0.5) / k]
    if kind == "gauss-markov" and not pinned:
        starts.append(_gm_optimal_points(field.kernel.p, k, False))
    objective = "min_delta_min"
    if rate or kind == "gauss-markov":
        # between the lowest start floor and the zero-rate distortion: some start may be infeasible
        floor = min(field_min_distortion(field, tuple(s)) for s in starts)
        objective = ("min_rate_at", floor + float(rng.uniform(1e-3, 0.5)) * (field_max_distortion(field) - floor))
    fn = _placement_objective(field, objective)[0]
    res = optimize_placement(field, k, objective, restarts=int(rng.integers(1, 4)), pin_endpoints=pinned, seed=seed)
    assert res.solver == "search" and math.isfinite(res.value) and res.value == min(res.restart_values)
    assert all(res.value <= fn(tuple(s))[0] for s in starts)
    assert len(res.restart_iterations) == len(res.restart_gradient_norms) == res.restarts
    assert fn(res.points)[0] == res.value


@PROPERTY
@given(seeds, st.booleans(), st.booleans())
def test_tabulated_placement_raises_no_package_error(seed, pinned, rate):
    # up to one point per mesh knot: random draws can put three points in one cell, or a pinned
    # end and two points in its cell, where the Gram matrix is singular and the start scores inf
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 20))
    field = FieldModel(tabulated_field(rng, n, 1)[0])
    k = int(rng.integers(2 if pinned else 1, n + 1))
    objective = ("min_rate_at", float(rng.uniform(0.01, 0.5)) * field_max_distortion(field)) if rate else "min_delta_min"
    res = optimize_placement(field, k, objective, restarts=int(rng.integers(1, 4)), pin_endpoints=pinned, seed=seed)
    assert res.value == min(res.restart_values)
    if math.isfinite(res.value):
        points = np.array(res.points)
        validate_covariance(field.kernel.corr(points[:, None], points[None, :]))


@PROPERTY
@given(st.floats(-12.0, 0.0), st.floats(-6.0, -0.3), st.booleans())
def test_segment_explained_matches_the_high_precision_form(log_length, log_distance, near_one):
    # p in (1e-6, 1 - 1e-6), within a factor 10^-6 of either end, lengths from 1e-12 to 1
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 80
    p = 1.0 - 10.0 ** log_distance if near_one else 10.0 ** log_distance
    length = 10.0 ** log_length
    lp = mp.log(mp.mpf(p))
    q = mp.exp(2 * mp.mpf(length) * lp)
    want = (q * (1 - 2 * mp.mpf(length) * lp) - 1) / (lp * (1 - q))
    assert abs(gm_segment_explained(p, length) - want) <= 1e-12 * want


@PROPERTY
@given(seeds, st.booleans())
def test_cholesky_reduction_matches_the_symmetric_root_reference(seed, tabulated):
    # floors within 1e-12 of the zero-rate distortion, eigenvalues within 1e-11 of the largest:
    # on clustered field sets the smallest modes are ill-conditioned in both methods alike (each
    # is up to about 4e-8 off a 50-digit oracle there, relative to the mode), so no bound holds per mode
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    k = int(rng.integers(1, m + 1))
    a = rng.standard_normal((m, m + 2))
    model = CovarianceModel(a @ a.T)
    scale = max_distortion(model)
    refs = [reference_block(model.sigma, s) for s in combinations(range(1, m + 1), k)]
    median = float(np.median([floor for floor, _ in refs]))
    delta = median + float(rng.uniform(0.0, 0.5)) * (scale - median)
    res = best_fixed_set(model, k, ("min_rate_at", delta))
    rows = zip(res.subsets.tolist(), res.delta_min, res.rate_bits)
    for (indices, delta_min, rate_bits), (floor, lam) in zip(rows, refs):
        spec = srdf_spectrum(model, indices)
        assert abs(spec.delta_min - floor) <= 1e-12 * scale
        assert abs(delta_min - floor) <= 1e-12 * scale
        assert np.max(np.abs(spec.lambdas - lam)) <= 1e-11 * lam[0]
        want = Spectrum(floor, lam).rate(delta) if floor < delta else math.inf
        assert rate_bits == pytest.approx(want, rel=1e-9, abs=1e-9)
    if tabulated:
        kernel, points = tabulated_field(rng, 17, int(rng.integers(1, 7)))
    else:
        kernel = GaussMarkovKernel(float(rng.uniform(0.05, 0.95)))
        points = field_points(rng, int(rng.integers(1, 7)), gap=1e-3)
    field = FieldModel(kernel)
    spec = field_srdf_spectrum(field, points)
    floor, lam = reference_field(field_gram(field, points), kernel.mass(np.asarray(points))[0], kernel.variance)
    assert abs(spec.delta_min - floor) <= 1e-12 * field_max_distortion(field)
    assert np.max(np.abs(spec.lambdas - lam)) <= 1e-11 * lam[0]


def objective_points(rng, k, layout):
    """k sorted points in [0, 1]: "spread" at least 0.02 apart; "sep_tol" with about half
    the gaps 1-3 x SEP_TOL; "pinned" the same gaps between a first point at 0 and a last at 1."""
    if layout == "spread":
        return field_points(rng, k)
    gaps = np.where(rng.uniform(size=k - 1) < 0.5, SEP_TOL * rng.integers(1, 4, k - 1),
                    rng.uniform(0.01, 1.0 / k, k - 1))
    if layout == "pinned" and k > 1:
        # the gaps sum to under 1, so dropping the last one and pinning the end at 1 keeps the order
        gaps[-1] = 0.0
        pts = np.concatenate(([0.0], np.cumsum(gaps)))
        pts[-1] = 1.0
    else:
        pts = rng.uniform(0.0, 1.0 - gaps.sum()) + np.concatenate(([0.0], np.cumsum(gaps)))
    return tuple(float(x) for x in pts)


def delta_at(rng, spot, floor_and_max):
    """A distortion below, at or above the floor, inside the curve, at or above its delta_max, or not finite."""
    if spot == "nan":
        return math.nan
    if spot == "inf":
        return math.inf
    if floor_and_max is None:   # the reduction raised: any distortion
        return float(rng.uniform(0.0, 2.0))
    floor, top = floor_and_max
    return float({"below": floor * rng.uniform(0.0, 1.0), "at": floor,
                  "inside": floor + rng.uniform(0.0, 1.0) * (top - floor), "max": top,
                  "above": top * (1.0 + rng.uniform(0.0, 1.0))}[spot])


DELTA_SPOTS = ("below", "at", "inside", "inside", "max", "above", "nan", "inf")


def curve_ends(build):
    """(floor, delta_max) of the spectrum ``build()``, or None if it raises; places the distortions only."""
    try:
        spec = build()
    except SrdfKitError:   # the error itself is compared with the reference's
        return None
    return spec.delta_min, spec.delta_max


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seeds, st.sampled_from(("gm", "gm_p_near_0", "gm_p_near_1", "tabulated")),
       st.sampled_from(("spread", "sep_tol", "pinned")), st.integers(1, 7), st.sampled_from(DELTA_SPOTS))
def test_field_objective_is_bit_identical_to_the_frozen_chain(seed, kind, layout, k, spot):
    # one factor for validation and solves, a lone spectrum rated without broadcasting: same bits, same errors
    rng = np.random.default_rng(seed)
    if kind == "tabulated":
        kernel = tabulated_field(rng, 17, 1)[0]
    else:
        p = {"gm": rng.uniform(0.05, 0.95), "gm_p_near_0": 10.0 ** -rng.uniform(2.0, 12.0),
             "gm_p_near_1": 1.0 - 10.0 ** -rng.uniform(2.0, 12.0)}[kind]
        kernel = GaussMarkovKernel(float(p))
    field = FieldModel(kernel)
    points = objective_points(rng, k, layout)
    delta = delta_at(rng, spot, curve_ends(lambda: field_srdf_spectrum(field, points)))
    want = outcome(lambda: reference_field_rate(field, points, delta))
    assert outcome(lambda: field_srdf(field, points, delta).rate_bits) == want
    assert outcome(lambda: field_srdf_spectrum(field, points).rate(delta)) == want
    assert outcome(lambda: field_min_distortion(field, points)) == outcome(
        lambda: reference_field_reduce(field, points)[0])
    if not math.isfinite(delta):   # a placement target that is not finite is refused before any objective
        with pytest.raises(BudgetOutOfRange, match=f"distortion must be finite, got {delta}"):
            _placement_objective(field, ("min_rate_at", delta))
        return
    # the placement objective: the same rate, infinite wherever the chain raises a package error
    objective = _placement_objective(field, ("min_rate_at", delta))[0]
    infinite = ("ok", np.float64(math.inf).tobytes())
    assert outcome(lambda: objective(points)[0]) == (want if want[0] == "ok" else infinite)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seeds, st.sampled_from(DELTA_SPOTS), st.booleans())
def test_vector_rate_is_bit_identical_to_the_frozen_chain(seed, spot, skew):
    rng = np.random.default_rng(seed)
    model, sampled = case(seed)
    raw = model.sigma.copy()
    if skew:   # an asymmetry the check tolerates, so that symmetrizing rounds
        raw += 1e-11 * np.max(np.abs(raw)) * rng.standard_normal(raw.shape)
    delta = delta_at(rng, spot, curve_ends(lambda: srdf_spectrum(CovarianceModel(raw), sampled)))
    want = outcome(lambda: reference_vector_rate(raw, sampled, delta))
    assert outcome(lambda: srdf_spectrum(CovarianceModel(raw), sampled).rate(delta)) == want
    assert outcome(lambda: srdf(CovarianceModel(raw), sampled, delta).rate_bits) == want


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
    specs = [srdf_spectrum(model, s) for s in subsets]
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
    assert [tuple(s) for s in res.subsets.tolist()] == subsets
    got_floors = res.delta_min
    np.testing.assert_allclose(got_floors, floors, rtol=1e-12, atol=1e-13)
    values = got_floors
    if rate_objective:
        values = res.rate_bits
        assert np.array_equal(np.isinf(values), np.isinf(want))
        np.testing.assert_allclose(values[np.isfinite(values)], want[np.isfinite(want)], rtol=1e-12, atol=1e-13)
    else:
        assert res.rate_bits is None
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
    dmin = min_distortion(model, sampled)
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


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seeds, st.integers(1, 4), st.integers(1, 512), st.sampled_from(("spread", "duplicates", "clustered")),
       st.sampled_from(("gauss", "codewords", "midpoints", "far")), st.integers(0, 2**20), st.integers(4, 15))
def test_nearest_codeword_search_matches_the_full_scan(seed, dim, j, levels, rows, count, tile_log2):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    if dim == 1:
        # distinct levels at least 1e-2 scale apart, so at least 2e-5 of the largest
        cb = rng.permutation(np.cumsum(rng.uniform(0.01, 1.0, j)) - rng.uniform(0.0, j))[:, None] * scale
    else:
        cb = rng.standard_normal((j, dim)) * scale
    if levels == "duplicates":
        cb = cb[rng.integers(0, j, j)]
    elif levels == "clustered":
        cb = scale * (1.0 + 1e-8 * rng.standard_normal((j, dim)))
    # at dim > 1 the rows stay few enough that the reference's one product runs on
    # one BLAS thread: split across threads, it rounds some rows otherwise itself
    n = count % (1 + (2**20 // j if dim == 1 else 2**18 // (j * dim)))
    if rows == "gauss":
        x = rng.standard_normal((n, dim)) * scale
    elif rows == "codewords":
        x = cb[rng.integers(0, j, n)]
    elif rows == "midpoints":
        x = 0.5 * (cb[rng.integers(0, j, n)] + cb[rng.integers(0, j, n)])
    else:
        x = rng.choice([-1e6, 1e6], (n, dim))
    if dim == 1 and n:
        # spread and duplicated levels take the bracket search, clustered ones the scan
        assert (simulate._scalar_levels(x, cb) is None) == (levels == "clustered" and j > 1)
    with mock.patch.object(simulate, "ASSIGN_TILE_FLOATS", 2**tile_log2):
        idx, d2 = simulate._assign(x, cb)
    want_idx, want_d2 = reference_assign(x, cb)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(d2, want_d2)


@PROPERTY
@given(seeds, st.integers(1, 4), st.integers(1, 3), st.integers(1, 6), st.integers(1, 70), st.integers(1, 64))
def test_whitening_a_view_of_trials_matches_the_transposed_copy(seed, k, n, trials, blocks, j):
    # the trial loop whitens a (trial, block, component, slot) view of its (trials, k, slots) draws
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, k))
    t = np.linalg.cholesky(a @ a.T + 0.3 * np.eye(k)).T
    draws = rng.standard_normal((trials, k, blocks * n)) * 10.0 ** rng.uniform(-2.0, 2.0)
    stack = draws.reshape(trials, k, blocks, n).transpose(0, 2, 1, 3)
    copied = np.ascontiguousarray(stack).reshape(trials * blocks, k, n)
    want = reference_whiten(t, copied)
    # a transform in C order is read in Fortran order too, as build_code's already lies
    for transform in (t, np.ascontiguousarray(t)):
        for blocks_in in (stack, copied):
            assert simulate._whiten(transform, blocks_in).tobytes() == want.tobytes()
    cb = rng.standard_normal((j, n * k)) * 10.0 ** rng.uniform(-1.0, 1.0)
    code = simulate.TrainedCode(t, cb, np.zeros((j, k, n)), lbg_iterations=1, train_distortion=0.0)
    idx, d2 = code.encode(stack)
    want_idx, want_d2 = reference_assign(want, cb)
    assert idx.shape == d2.shape == (trials, blocks)
    assert np.array_equal(idx.ravel(), want_idx)
    assert d2.ravel().tobytes() == want_d2.tobytes()


def outcome(build):
    """What ``build()`` gives: ("ok", bytes of the array or float) or (exception class, code, message)."""
    try:
        return "ok", np.asarray(build()).tobytes()
    except Exception as exc:   # the class is compared, so a wrong one fails the test
        return type(exc), getattr(exc, "code", None), str(exc)


def pivot_at_floor(m):
    """An m x m diagonal matrix, m >= 2, whose last Cholesky pivot equals its floor PD_TOL * trace / m."""
    c = 2.0 ** -40   # sqrt(c) ** 2 == c exactly
    a = (c * m / PD_TOL - c) / (m - 1)
    for _ in range(10_000):   # the floor grows with a: step a one ulp at a time toward equality
        s = np.diag([a] * (m - 1) + [c])
        floor = PD_TOL * np.trace(s) / m
        if floor == c:
            return s
        a = np.nextafter(a, np.inf if floor < c else -np.inf)
    raise AssertionError(f"no {m} x {m} matrix with its pivot at the floor")


BAD_NODES = ("asymmetric", "nan", "inf", "zero", "not_pd", "pivot_below_floor", "pivot_at_floor", "wrong_m")


def bad_node(kind, rng, good):
    m = len(good)
    if kind == "asymmetric":
        s = good.copy()
        with np.errstate(invalid="ignore"):   # a node already made non-finite may take a second bad kind
            s[0, -1] += 1e-7 * np.max(np.abs(good))
        return s
    if kind in ("nan", "inf"):
        s = good.copy()
        i, j = rng.integers(0, m, 2)
        s[i, j] = np.nan if kind == "nan" else -np.inf
        return s
    if kind == "zero":
        return np.zeros((m, m))
    if kind == "not_pd":
        return good - 1.5 * np.max(np.linalg.eigvalsh(good)) * np.eye(m)
    if kind == "pivot_below_floor":
        return np.diag([1.0] * (m - 1) + [1e-14])
    if kind == "pivot_at_floor":
        return pivot_at_floor(m)
    return np.eye(m + 1)   # wrong_m


# a stack holds matrices of one shape: no wrong_m node
STACK_BAD_NODES = tuple(kind for kind in BAD_NODES if kind != "wrong_m")


@pytest.mark.parametrize("first", STACK_BAD_NODES + (None,))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(seeds, st.integers(2, 5), st.integers(1, 40), st.sampled_from(STACK_BAD_NODES + (None,)))
def test_stacked_validation_raises_what_the_node_loop_raises(first, seed, m, nodes, second):
    # up to two bad nodes at random positions: the stack raises the first one's own error
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((nodes, m, m + 2))
    matrices = list(a @ np.swapaxes(a, -1, -2) / (m + 2) + 0.1 * np.eye(m))
    for kind in (first, second):
        if kind is not None:
            at = int(rng.integers(0, nodes))
            matrices[at] = bad_node(kind, rng, matrices[at])
    grid = np.linspace(0.0, 1.0, nodes)
    by_node = {float(t): s for t, s in zip(grid, matrices)}
    want = outcome(lambda: reference_node_sigmas(lambda tau: by_node[tau[0]], grid[:, None]))
    # the stack, with two leading axes, straight through validate_covariance
    stack = np.stack(matrices).reshape(1, nodes, m, m)
    assert outcome(lambda: validate_covariance(stack).reshape(-1, m, m)) == want


@pytest.mark.parametrize("kind", BAD_NODES + (None,))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(seeds, st.integers(1, 6))
def test_a_lone_matrix_raises_what_the_reference_raises(kind, seed, m):
    # a lone matrix skips the stack bookkeeping: same error class, code and message, same bytes
    if kind in ("pivot_below_floor", "pivot_at_floor"):
        m = max(m, 2)   # a 1 x 1 pivot is the whole trace, far above its floor
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m + 2))
    s = a @ a.T / (m + 2) + 0.1 * np.eye(m)
    if kind is not None:
        s = bad_node(kind, rng, s)
    want = outcome(lambda: reference_validate_covariance(s))
    assert outcome(lambda: validate_covariance(s)) == want
    assert outcome(lambda: CovarianceModel(s).sigma) == want
    if want[0] == "ok":
        # the factor handed on is the one a second factorization of the result gives
        sigma, chol = _validated_factor(s)
        assert chol.tobytes() == np.linalg.cholesky(sigma).tobytes()


def template_and_reference(seed, kind, log_c):
    """(family built by its template, per-node map the template once ran, box, grid_res) of ``kind``.

    Drawn from ``seed``, with every entry scaled by 10^log_c, so the largest scales overflow some nodes.
    """
    rng = np.random.default_rng(seed)
    c = 10.0 ** log_c
    if kind == "fixed-var-corr":
        sigma2, r_lo = c * rng.uniform(0.1, 3.0), rng.uniform(-0.9, 0.5)
        box, grid_res = [(r_lo, r_lo + rng.uniform(0.0, 0.4))], int(rng.integers(1, 12))
        build = lambda: fixed_var_corr_family(sigma2, *box[0], prior="uniform", grid_res=grid_res)  # noqa: E731
        return build, lambda tau: sigma2 * np.array([[1.0, tau[0]], [tau[0], 1.0]]), box, grid_res
    m, dims = int(rng.integers(1, 5)), int(rng.integers(1, 3))
    a = rng.standard_normal((m, m + 2))
    with np.errstate(over="ignore"):
        base = c * (a @ a.T / (m + 2) + 0.2 * np.eye(m))
        dirs = [c * 0.1 * (d + d.T) for d in rng.standard_normal((dims, m, m))]
    box, grid_res = [(lo, lo + rng.uniform(0.0, 1.0)) for lo in rng.uniform(-1.0, 0.5, dims)], int(rng.integers(1, 6))

    def node(tau):   # the affine template's own map, node by node
        s = base.copy()
        for t, d in zip(tau, dirs):
            s = s + t * d
        return s

    return lambda: affine_family(base, dirs, box, prior="uniform", grid_res=grid_res), node, box, grid_res


@PROPERTY
@given(seeds, st.sampled_from(("fixed-var-corr", "affine")), st.floats(-300.0, 308.0))
def test_template_node_sigmas_are_the_node_by_node_ones(seed, kind, log_c):
    # the family's one affine map over the whole grid gives each node the bytes the per-node map gave it,
    # or its error
    build, node, box, grid_res = template_and_reference(seed, kind, log_c)
    axes = np.meshgrid(*[np.linspace(lo, hi, grid_res) for lo, hi in box], indexing="ij")
    nodes = np.stack([x.ravel() for x in axes], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):   # the per-node map warns where a node overflows
        want = outcome(lambda: reference_node_sigmas(node, nodes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(lambda: build().node_sigmas)
    if log_c <= 300.0:
        assert got == want
    else:   # past the reference's checks, which predate the overflow refusal: still a package error
        assert got[0] == "ok" or issubclass(got[0], SrdfKitError)


def grouping_family(rng, kind):
    """(family, sampling set) of ``kind``, whose ambiguity atoms stress the bucket merge.

    "lattice": one or two axes that move sampled entries by 0.5-2 x the merge
    radius (ATOM_TOL times the largest sampled entry) per grid step, so
    buckets sit on and around it; "chain": steps below the radius, so buckets
    chain into atoms much wider than it, beside an axis that keeps atoms apart; "one_atom": only unsampled entries
    move; "one_node": grid_res 1; "random": random directions down to 1e-9.
    """
    m = int(rng.integers(2, 5))
    k = int(rng.integers(1, m))
    sampled = sorted(int(i) + 1 for i in rng.choice(m, size=k, replace=False))
    a = rng.standard_normal((m, m + 2))
    base = a @ a.T / (m + 2) + np.eye(m)
    s0 = np.asarray(sampled) - 1
    unsampled = np.setdiff1d(np.arange(m), s0)

    def sym(i, j, size):
        d = np.zeros((m, m))
        d[i, j] += size
        d[j, i] = d[i, j]
        return d

    axes = int(rng.integers(1, 3))
    grid_res = int(rng.integers(2, 13 if axes == 2 else 60))
    step = 1.0 / (grid_res - 1)
    # the merge radius over a grid step; the lattice and chain directions move the scale by under 2e-6 of itself
    per_step = ATOM_TOL * np.abs(base[np.ix_(s0, s0)]).max() / step
    if kind == "lattice":
        dirs = [sym(rng.choice(s0), rng.choice(s0), rng.uniform(0.5, 2.0) * per_step) for _ in range(axes)]
    elif kind == "chain":
        dirs = [sym(s0[0], s0[-1], rng.uniform(0.2, 0.9) * per_step)]
        if axes == 2:
            dirs.append(sym(s0[0], s0[0], rng.uniform(0.01, 0.3)))
    elif kind == "one_atom":
        dirs = [sym(unsampled[0], rng.choice(m), rng.uniform(0.01, 0.2)) for _ in range(axes)]
    elif kind == "one_node":
        dirs, grid_res = [sym(s0[0], s0[0], 0.1)] * axes, 1
    else:
        dirs = [sym(*rng.integers(0, m, 2), 10.0 ** rng.uniform(-9, -1)) for _ in range(axes)]
    prior = "uniform" if rng.uniform() < 0.6 else None
    return affine_family(base, dirs, [(0.0, 1.0)] * axes, prior=prior, grid_res=grid_res), sampled


@PROPERTY
@given(seeds, st.sampled_from(("lattice", "chain", "one_atom", "one_node", "random")),
       st.sampled_from((1, 7, None)))
def test_sort_and_sweep_finds_the_all_pairs_atoms(seed, kind, chunk):
    family, sampled = grouping_family(np.random.default_rng(seed), kind)
    want = reference_project_family(family, sampled)
    with mock.patch.object(universal, "SWEEP_CHUNK_FLOATS", chunk or universal.SWEEP_CHUNK_FLOATS):
        got = project_family(family, sampled)
    assert got.sampled == want.sampled
    assert got.members == want.members
    assert (got.weights is None) == (want.weights is None)
    if want.weights is not None:
        assert got.weights.tobytes() == want.weights.tobytes()
    assert got.sigma.shape == want.sigma.shape
    assert got.sigma.tobytes() == want.sigma.tobytes()


@pytest.mark.parametrize("kind", ["separated", "fixed_variance", "lattice"])
def test_sweep_compares_few_pairs(monkeypatch, kind):
    # the all-pairs merge made n (n - 1) / 2 comparisons for n buckets
    if kind == "separated":   # 2000 nodes, each its own atom
        family, sampled = affine_family(np.eye(2), [np.diag([1.0, 0.0])], [(0.0, 1.0)], grid_res=2000), [1]
    elif kind == "fixed_variance":   # the sampled variances never move, only their covariance
        family, sampled = fixed_var_corr_family(1.0, -0.5, 0.5, prior=None, grid_res=2000), [1, 2]
    else:   # 60 x 60 nodes, atoms 1e-3 apart on each axis
        family = affine_family(2.0 * np.eye(2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [(0.0, 0.059)] * 2,
                               grid_res=60)
        sampled = [1, 2]
    compared = []
    sweep = universal._sweep

    def counted(reps):
        for i, j in sweep(reps):
            compared.append(len(i))
            yield i, j

    monkeypatch.setattr(universal, "_sweep", counted)
    n = len(family.nodes)
    assert len(project_family(family, sampled).members) == n
    # one window per row: only nodes equal along the swept entry share one
    assert sum(compared) <= (0 if kind != "lattice" else n * 60)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [2.0 * np.finfo(float).tiny, 1e-12, 1e-9, 1.0, 1e11, 1e12])
def test_atoms_of_a_scaled_family_are_the_family_atoms(c):
    # an absolute radius merged all nine atoms at 1e-9, and its int64 keys overflowed at 1e11;
    # a radius scaled by the largest entry underflowed to 0 at 1e-316, and its keys divided by it.
    # 1e-316 is refused now (see test_cli's subnormal cases): 2 x the smallest normal float is the
    # smallest scale a 2 x 2 covariance may have
    assert len(project_family(fixed_var_corr_family(c, 0.1, 0.9, grid_res=9), [1, 2]).members) == 9


def scaled_family(seed, kind, c):
    """(family, sampling set) of ``kind`` drawn from ``seed``, with every covariance times ``c``.

    "corr-pair": fixed-variance correlation family observed whole, one atom per
    node; "corr-one": the same observed at one component, one atom;
    "multi": ``multi_atom_family``; "singleton": ``singleton_family``.
    """
    rng = np.random.default_rng(seed)
    if kind.startswith("corr"):
        sigma2, r_lo = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.4)
        family = fixed_var_corr_family(c * sigma2, r_lo, r_lo + rng.uniform(0.1, 0.5), grid_res=9)
        return family, [1, 2] if kind == "corr-pair" else [1]
    family, sampled = multi_atom_family(rng, int(rng.integers(1, 4))) if kind == "multi" else singleton_family(rng)
    return dataclasses.replace(family, base=c * family.base, directions=c * family.directions), sampled


@PROPERTY
@given(seeds, st.sampled_from(("corr-pair", "corr-one", "multi", "singleton")), st.floats(-12.0, 12.0),
       st.floats(0.01, 0.9))
def test_atoms_and_universal_rates_do_not_depend_on_the_family_scale(seed, kind, log_c, fraction):
    c = 10.0 ** log_c
    family, sampled = scaled_family(seed, kind, 1.0)
    scaled, _ = scaled_family(seed, kind, c)
    assert project_family(scaled, sampled).members == project_family(family, sampled).members
    # the worst case of a multi-member atom has no closed form outside the correlation family
    for rate in (bayes_usrdf,) if kind == "multi" else (bayes_usrdf, nonbayes_usrdf):
        whole = rate(family, sampled, 1e9)
        delta = whole.delta_min + fraction * (whole.delta_max - whole.delta_min)
        want, got = rate(family, sampled, delta), rate(scaled, sampled, c * delta)
        assert got.rate_bits == pytest.approx(want.rate_bits, rel=1e-12, abs=0.0)
        assert got.delta_min == pytest.approx(c * want.delta_min, rel=1e-12, abs=0.0)
        assert got.delta_max == pytest.approx(c * want.delta_max, rel=1e-12, abs=0.0)
