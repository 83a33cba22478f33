"""Acceptance suite: one test per shipped claim, one line of output each.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion; the printed detail lines (visible with ``-rA`` or ``-s``) carry the
measured errors and runtimes behind each verdict.
"""

import math
import time

import numpy as np
import pytest

from srdf_kit import (
    CovarianceModel,
    FieldModel,
    FieldSamplingSet,
    GaussMarkovKernel,
    SimConfig,
    bayes_usrdf,
    correlation_model,
    field_min_distortion,
    field_srdf,
    fixed_var_corr_family,
    gm_min_distortion_pinned,
    gm_min_distortion_single,
    max_distortion,
    min_distortion,
    nonbayes_usrdf,
    optimize_placement,
    single_site_srdf,
    srdf,
    two_step_code,
    universal_two_step,
    waterfill,
)
from srdf_kit.cli import main as cli_main

from test_srdf import duality_gaps


def report(name, detail):
    print(f"[{name}] PASS {detail}")


def random_correlation(rng, m, cap=0.9):
    a = rng.standard_normal((m, m + 2))
    s = a @ a.T
    d = np.sqrt(np.diag(s))
    c = s / np.outer(d, d)
    off = np.max(np.abs(c - np.eye(m))) if m > 1 else 0.0
    if off > cap:
        t = cap / off
        c = t * c + (1.0 - t) * np.eye(m)
    return c


def curve_shape_ok(rates, tol=1e-8):
    rates = np.asarray(rates)
    mono = np.all(np.diff(rates) <= 1e-12)
    second = np.diff(rates, 2)
    convex = second.size == 0 or np.all(second >= -tol)
    return bool(mono), bool(convex)


def test_criterion_1_single_site_closed_form_equivalence():
    # 50 random instances, every site, 50-point feasible grid, 1e-9 bits
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    checked = 0
    for _ in range(50):
        m = int(rng.integers(2, 7))
        sigmas = rng.uniform(0.5, 4.0, size=m) ** 0.5
        corr = random_correlation(rng, m)
        model = correlation_model(sigmas, corr)
        dmax = max_distortion(model)
        for j in range(1, m + 1):
            dmin = min_distortion(model, (j,))
            for f in np.linspace(0.02, 1.0, 50):
                delta = dmin + f * (dmax - dmin)
                got = srdf(model, (j,), float(delta)).rate_bits
                want = single_site_srdf(sigmas, corr, j, float(delta))
                worst = max(worst, abs(got - want))
                checked += 1
    elapsed = time.monotonic() - t0
    assert worst < 1e-9
    assert elapsed < 5.0
    report("criterion 1", f"max |srdf - closed form| = {worst:.2e} bits over {checked} points, {elapsed:.2f} s")


def test_criterion_2_waterfill_is_certified_by_duality():
    t0 = time.monotonic()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(2000):
        k = int(rng.integers(1, 7))
        lams = rng.uniform(0.05, 5.0, size=k)
        budget = float(rng.uniform(0.05, 0.95)) * float(np.sum(lams))
        worst = max(worst, *duality_gaps(lams, budget, waterfill(lams, budget)))
    elapsed = time.monotonic() - t0
    assert worst < 1e-12
    assert elapsed < 5.0
    report("criterion 2", f"max duality certificate gap of waterfill = {worst:.2e} over 2000 sets, {elapsed:.2f} s")


def test_criterion_3_single_point_field_closed_form_and_optimum():
    p = 0.5
    fm = FieldModel(GaussMarkovKernel(p), quad_points=2048)
    worst = 0.0
    floors = {}
    for a in np.round(np.arange(0.1, 0.95, 0.1), 2):
        pts = FieldSamplingSet((float(a),))
        dmin_q = field_min_distortion(fm, pts)
        dmin_c = gm_min_distortion_single(p, float(a))
        worst = max(worst, abs(dmin_q - dmin_c))
        floors[float(a)] = dmin_c
        dmax = 1.0
        for f in (0.1, 0.5, 0.9):
            delta = dmin_c + f * (dmax - dmin_c)
            got = field_srdf(fm, pts, delta).rate_bits
            want = 0.5 * math.log2((dmax - dmin_c) / (delta - dmin_c))
            worst = max(worst, abs(got - want))
    assert worst < 1e-6
    # floor grows with distance from the center, symmetrically
    for a in (0.1, 0.2, 0.3, 0.4):
        assert floors[a] > floors[round(a + 0.1, 2)]
        assert floors[round(1.0 - a, 2)] > floors[round(0.9 - a, 2)]
    fast = FieldModel(GaussMarkovKernel(p), quad_points=512)
    res = optimize_placement(fast, 1, "min_delta_min", restarts=3, seed=0)
    assert abs(res.points[0] - 0.5) < 1e-3
    report("criterion 3", f"max closed-form gap {worst:.2e}; optimizer a* = {res.points[0]:.5f}")


def test_criterion_4_pinned_optimum_is_uniform_spacing():
    worst_spacing = 0.0
    worst_identity = 0.0
    for p in (0.3, 0.6):
        fine = FieldModel(GaussMarkovKernel(p), quad_points=2048)
        fast = FieldModel(GaussMarkovKernel(p), quad_points=384)
        for k in (3, 4, 5):
            res = optimize_placement(fast, k, "min_delta_min", restarts=2, pin_endpoints=True, seed=0)
            uniform = np.linspace(0.0, 1.0, k)
            worst_spacing = max(worst_spacing, float(np.max(np.abs(np.array(res.points) - uniform))))
            got = field_min_distortion(fine, FieldSamplingSet(res.points))
            want = gm_min_distortion_pinned(p, res.points)
            worst_identity = max(worst_identity, abs(got - want))
    assert worst_spacing < 1e-2
    assert worst_identity < 1e-5
    report(
        "criterion 4",
        f"max deviation from uniform {worst_spacing:.2e}; segment identity gap {worst_identity:.2e}",
    )


def test_criterion_5_universal_closed_forms_and_dominance():
    fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=33)
    worst_b = worst_n = 0.0
    for delta in np.linspace(1.0, 1.9, 30):
        d = float(delta)
        b = bayes_usrdf(fam, [1], d).rate_bits
        n = nonbayes_usrdf(fam, [1], d).rate_bits
        worst_b = max(worst_b, abs(b - 0.5 * math.log2(1.25 / (d - 0.75))))
        worst_n = max(worst_n, abs(n - 0.5 * math.log2(1.04 / (d - 0.96))))
        assert n > b
    assert worst_b < 1e-6
    assert worst_n < 1e-6
    at_one_b = bayes_usrdf(fam, [1], 1.0).rate_bits
    at_one_n = nonbayes_usrdf(fam, [1], 1.0).rate_bits
    assert at_one_b == pytest.approx(1.160964, abs=1e-6)
    assert at_one_n == pytest.approx(0.5 * math.log2(26.0), abs=1e-6)
    report(
        "criterion 5",
        f"closed-form gaps (bayes {worst_b:.2e}, worst-case {worst_n:.2e});"
        f" at delta=1: {at_one_b:.6f} / {at_one_n:.6f} bits",
    )


def test_criterion_6_curve_shape_properties():
    rng = np.random.default_rng(1006)
    cases = 0

    def check(rates, rates_full):
        nonlocal cases
        mono, convex = curve_shape_ok(rates)
        assert mono and convex
        assert np.all(np.asarray(rates) >= np.asarray(rates_full) - 1e-9)
        cases += 1

    # fixed-subset vector sources vs full observation
    for _ in range(8):
        m = int(rng.integers(2, 7))
        a = rng.standard_normal((m, m))
        model = CovarianceModel(a @ a.T + 0.5 * np.eye(m))
        k = int(rng.integers(1, m))
        subset = tuple(sorted(rng.choice(np.arange(1, m + 1), size=k, replace=False).tolist()))
        full = tuple(range(1, m + 1))
        dmin = min_distortion(model, subset)
        dmax = max_distortion(model)
        grid = dmin + np.linspace(0.02, 0.98, 24) * (dmax - dmin)
        check(
            [srdf(model, subset, float(d)).rate_bits for d in grid],
            [srdf(model, full, float(d)).rate_bits for d in grid],
        )

    # fields: adding a sampling point can only help
    for p in (0.3, 0.45, 0.6, 0.8):
        fm = FieldModel(GaussMarkovKernel(p), quad_points=1024)
        sparse = (0.3, 0.7)
        dense = (0.3, 0.5, 0.7)
        dmin = field_min_distortion(fm, FieldSamplingSet(sparse))
        grid = dmin + np.linspace(0.02, 0.98, 24) * (1.0 - dmin)
        check(
            [field_srdf(fm, sparse, float(d)).rate_bits for d in grid],
            [field_srdf(fm, dense, float(d)).rate_bits for d in grid],
        )

    # universal curves vs observing both components
    for i in range(4):
        lo = 0.1 + 0.1 * i
        fam = fixed_var_corr_family(1.0, lo, lo + 0.3, prior="uniform", grid_res=17)
        grid = np.linspace(1.0, 1.9, 24)
        check(bayes_usrdf(fam, [1], grid).rate_bits, bayes_usrdf(fam, [1, 2], grid).rate_bits)
        check(nonbayes_usrdf(fam, [1], grid).rate_bits, nonbayes_usrdf(fam, [1, 2], grid).rate_bits)
    report("criterion 6", f"{cases} curves monotone, convex, and above the fully-observed curve")


def test_criterion_7_simulation_decomposition():
    t0 = time.monotonic()
    rng = np.random.default_rng(1007)
    runs = [
        (2, (1,), 1, 3.0),
        (3, (1, 2), 2, 2.0),
        (4, (1, 3), 2, 3.0),
        (2, (1, 2), 4, 1.0),
        (4, (2,), 1, 8.0),
    ]
    details = []
    for m, subset, n, rate in runs:
        a = rng.standard_normal((m, m))
        model = CovarianceModel(a @ a.T + 0.5 * np.eye(m))
        cfg = SimConfig(n=n, rate_bits=rate, eval_blocks=10_000, seed=1007)
        rep = two_step_code(model, subset, cfg)
        dmin = min_distortion(model, subset)
        resid = abs(rep.total_mse.mean - rep.weighted_mse.mean - dmin)
        combined = rep.total_mse.half_width_95 + rep.weighted_mse.half_width_95
        assert resid <= 3.0 * combined
        assert rep.total_mse.mean >= rep.analytic_distortion_at_rate - 3.0 * rep.total_mse.half_width_95
        if rate >= 8.0:
            assert rep.total_mse.mean <= 1.02 * dmin
            details.append(f"high-rate gap {(rep.total_mse.mean / dmin - 1.0) * 100.0:.3f}%")
        details.append(f"resid {resid:.1e} vs 3hw {3.0 * combined:.1e}")
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report("criterion 7", "; ".join(details) + f"; {elapsed:.1f} s")


def test_criterion_8_universal_estimator_and_degenerate_prior():
    fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=9)
    cfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=1000, seed=1008, est_length=2048, grid_delta=0.05)
    rep = universal_two_step(fam, [1], cfg)
    assert rep.estimator_hit_rate >= 0.99

    point = fixed_var_corr_family(1.0, 0.5, 0.5, prior="uniform", grid_res=1)
    ucfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=800, seed=1008, est_length=64)
    urep = universal_two_step(point, [1], ucfg)
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    fcfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=20_000, seed=1008)
    frep = two_step_code(CovarianceModel(sigma), [1], fcfg)
    gap = abs(urep.total_mse.mean - frep.total_mse.mean)
    overlap = urep.total_mse.half_width_95 + frep.total_mse.half_width_95
    assert gap <= overlap
    report(
        "criterion 8",
        f"hit-rate {rep.estimator_hit_rate:.4f} at 2048 slots;"
        f" degenerate-prior gap {gap:.4f} <= CI overlap {overlap:.4f}",
    )


def test_criterion_9_artifact_determinism(tmp_path):
    from pathlib import Path

    configs = Path(__file__).parent.parent / "configs"
    jobs = [
        ("srdf", "three_component_srdf.yaml"),
        ("distrate", "three_component_distrate.yaml"),
        ("gmf-srdf", "exp_field_srdf.yaml"),
        ("optimize-set", "subset_search.yaml"),
        ("place", "exp_field_place.yaml"),
        ("usrdf-bayes", "corr_family_bayes.yaml"),
        ("usrdf-nonbayes", "corr_family_nonbayes.yaml"),
        ("simulate", "two_step_sim.yaml"),
        ("usim", "corr_family_usim.yaml"),
    ]
    files = 0
    for task, cfg in jobs:
        d1 = tmp_path / f"{task}-1"
        d2 = tmp_path / f"{task}-2"
        assert cli_main([task, "--config", str(configs / cfg), "--out", str(d1)]) == 0
        assert cli_main([task, "--config", str(configs / cfg), "--out", str(d2)]) == 0
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir()) and names
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
            files += 1
    report("criterion 9", f"{files} artifacts byte-identical across reruns of all {len(jobs)} tasks")
