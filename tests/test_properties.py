"""Property tests of the exact spectral core over random inputs.

Every test is derandomized, so a run draws the same examples each time.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srdf_kit import (
    CovarianceModel,
    Spectrum,
    affine_family,
    bayes_usrdf,
    distortion_rate,
    fixed_var_corr_family,
    max_distortion,
    min_distortion,
    nonbayes_usrdf,
    partition,
    srdf,
    srdf_spectrum,
    waterfill,
)
from srdf_kit.cli import main

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
    assert sum(sol.per_mode_distortion) == pytest.approx(budget, rel=1e-12)


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
