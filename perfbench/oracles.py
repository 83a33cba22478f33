"""Correctness checks on the artifacts of one job, run outside the timed region.

``check(job, out, root)`` re-reads the job's config, recomputes what the
artifacts must hold and returns a list of problems (empty when the job
passed).  References come from ``refmath`` (independent numpy), from the
package's closed forms where one applies, and from
invariants: curves are monotone and convex, Bayes lies at or below the worst
case, distortion-rate inverts the rate curve, placements report the value of
their own points, and simulated MSE splits into weighted error plus floor.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import yaml

import refmath
from workloads import Job, family_sigmas

RTOL = 1e-7        # rates and distortions recomputed by an independent exact path
CSV_RTOL = 6e-9    # half a unit in the ninth significant digit, with margin


class Problems(list):
    def expect(self, ok, message: str) -> None:
        if not ok:
            self.append(message)

    def close(self, got, want, what: str, rtol: float = RTOL, atol: float = 1e-9) -> None:
        got, want = float(got), float(want)
        if not (math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)):
            self.append(f"{what}: got {got!r}, want {want!r}")


def _csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _config(job: Job) -> dict:
    return yaml.safe_load(job.config.read_text(encoding="utf-8"))


def _sigma(cfg: dict, job: Job) -> np.ndarray:
    block = cfg["model"]
    if "sigma" in block:
        return np.asarray(block["sigma"], dtype=float)
    return np.atleast_2d(np.loadtxt(job.config.parent / block["sigma_csv"], delimiter=","))


def _grid(cfg: dict) -> np.ndarray:
    g = cfg["grid"]
    return np.linspace(float(g["min"]), float(g["max"]), int(g["count"]))


def _curve(out: Path, header: list[str], p: Problems, count: int) -> np.ndarray:
    got_header, rows = _csv(out / "curve.csv")
    p.expect(got_header == header, f"curve header {got_header}")
    p.expect(len(rows) == count, f"curve has {len(rows)} rows, want {count}")
    return np.array([[float(x) for x in row] for row in rows]).reshape(-1, 2)


def _shape(values, p: Problems, what: str) -> None:
    """Non-increasing and convex on a uniform grid."""
    v = np.asarray(values, dtype=float)
    tol = 1e-7 * max(1.0, float(np.max(np.abs(v)))) if v.size else 0.0
    p.expect(np.all(np.diff(v) <= tol), f"{what} not monotone")
    p.expect(v.size < 3 or np.all(np.diff(v, 2) >= -tol), f"{what} not convex")


def _golden(job: Job, out: Path, root: Path, p: Problems) -> None:
    want_header, want = _csv(root / "tests" / "golden" / job.golden)
    got_header, got = _csv(out / "curve.csv")
    p.expect(got_header == want_header and len(got) == len(want), "golden shape differs")
    for g_row, w_row in zip(got, want):
        same = [f"{float(a):.9g}" == f"{float(b):.9g}" for a, b in zip(g_row, w_row)]
        p.expect(all(same), f"golden row differs: {g_row} vs {w_row}")


def _check_srdf(job, out, cfg, p):
    import srdf_kit

    sigma, sampled, deltas = _sigma(cfg, job), cfg["sampling"], _grid(cfg)
    floor, lam = refmath.floor_and_spectrum(sigma, sampled)
    summary = _json(out / "summary.json")
    p.close(summary["delta_min"], floor, "delta_min", atol=1e-12)
    p.close(summary["delta_max"], np.trace(sigma), "delta_max", atol=1e-12)
    p.expect(np.allclose(summary["eigenvalues"], lam, rtol=1e-8, atol=1e-12 * lam[0]), "spectrum")
    curve = _curve(out, ["delta", "rate_bits"], p, len(deltas))
    corr = sigma / np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
    for d, (_, rate) in zip(deltas, curve):
        p.close(rate, refmath.exact_rate(lam, d - floor), f"rate at {d}", rtol=RTOL + CSV_RTOL)
        if len(sampled) == 1:
            want = srdf_kit.single_site_srdf(np.sqrt(np.diag(sigma)), corr, sampled[0], float(d))
            p.close(rate, want, f"single-site closed form at {d}", rtol=CSV_RTOL, atol=1e-9)
    _shape(curve[:, 1], p, "rate curve")


def _check_distrate(job, out, cfg, p):
    import srdf_kit

    sigma, sampled, rates = _sigma(cfg, job), cfg["sampling"], _grid(cfg)
    floor, lam = refmath.floor_and_spectrum(sigma, sampled)
    curve = _curve(out, ["rate_bits", "delta"], p, len(rates))
    model = srdf_kit.CovarianceModel(sigma)
    top = floor + float(np.sum(lam))
    for i, (r, (_, d)) in enumerate(zip(rates, curve)):
        p.close(d, floor + refmath.exact_distortion(lam, r), f"distortion at {r}", rtol=RTOL + CSV_RTOL)
        # srdf(distortion_rate(r)) = r on every 8th rate, within what the 9-digit delta can carry
        eps = CSV_RTOL * d
        if i % 8 or r <= 0.0 or d >= top * (1.0 - 1e-9) or d - floor <= 2.0 * eps:
            continue
        slack = abs(refmath.exact_rate(lam, d - floor - eps) - refmath.exact_rate(lam, d - floor + eps))
        back = srdf_kit.srdf(model, sampled, float(d)).rate_bits
        p.close(back, r, f"srdf(distortion_rate({r}))", rtol=0.0, atol=1e-7 + slack)
    _shape(curve[:, 1], p, "distortion-rate curve")


def _mesh(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        n = int(fh.readline())
        vals = np.zeros((n, n))
        for line in fh:
            i, j, v = line.split(",")
            vals[int(i), int(j)] = float(v)
    return vals


def _check_gmf(job, out, cfg, p):
    import srdf_kit

    pts, deltas = [float(x) for x in cfg["points"]], _grid(cfg)
    summary = _json(out / "summary.json")
    lam = np.asarray(summary["eigenvalues"])
    dmin, dmax = summary["delta_min"], summary["delta_max"]
    kb = cfg["field"]["kernel"]
    if kb["type"] == "gauss-markov":
        q = float(kb["p"])
        p.close(dmin, refmath.gm_floor(q, pts), "GM floor closed form", rtol=0.0, atol=1e-6)
        if len(pts) == 1:
            p.close(dmin, srdf_kit.gm_min_distortion_single(q, pts[0]), "gm_min_distortion_single",
                    rtol=0.0, atol=1e-6)
        if pts[0] == 0.0 and pts[-1] == 1.0:
            p.close(dmin, srdf_kit.gm_min_distortion_pinned(q, pts), "gm_min_distortion_pinned",
                    rtol=0.0, atol=1e-6)
        p.close(dmax, 1.0, "field variance", atol=1e-9)
        gram = q ** np.abs(np.subtract.outer(pts, pts))
    else:
        vals = _mesh(job.config.parent / kb["mesh_csv"])
        floor, ref_lam, var = refmath.tabulated_floor_spectrum(vals, pts)
        p.close(dmin, floor, "tabulated floor", rtol=0.0, atol=1e-6)
        p.close(dmax, var, "tabulated variance", rtol=0.0, atol=1e-6)
        p.expect(np.allclose(lam, ref_lam, rtol=1e-6, atol=1e-9), "tabulated spectrum")
        idx = np.rint(np.asarray(pts) * (vals.shape[0] - 1)).astype(int)
        gram = vals[np.ix_(idx, idx)]
    p.expect(np.allclose(summary["gram"], gram, rtol=1e-12, atol=1e-12), "gram")
    p.close(np.sum(lam), dmax - dmin, "spectrum total = variance - floor", rtol=0.0, atol=1e-6)
    curve = _curve(out, ["delta", "rate_bits"], p, len(deltas))
    for d, (_, rate) in zip(deltas, curve):
        p.close(rate, refmath.exact_rate(lam, d - dmin), f"rate at {d}", rtol=RTOL + CSV_RTOL)
        if kb["type"] == "gauss-markov" and len(pts) == 1:
            c = srdf_kit.gm_min_distortion_single(float(kb["p"]), pts[0])
            p.close(rate, 0.5 * math.log2((1.0 - c) / (d - c)), f"single-point closed form at {d}",
                    rtol=0.0, atol=1e-6)
    _shape(curve[:, 1], p, "field rate curve")


def _check_optimize_set(job, out, cfg, p):
    sigma = _sigma(cfg, job)
    search = cfg["search"]
    k = int(search["k"])
    rate_at = str(search.get("objective", "min_delta_min")).replace("-", "_") == "min_rate_at"
    header, rows = _csv(out / "table.csv")
    subsets = list(combinations(range(1, sigma.shape[0] + 1), k))
    p.expect(header == ["subset", "delta_min", "rate_bits"], f"table header {header}")
    p.expect([r[0] for r in rows] == [" ".join(map(str, s)) for s in subsets], "subset order")
    values = []
    for subset, row in zip(subsets, rows):
        floor, lam = refmath.floor_and_spectrum(sigma, subset)
        p.close(row[1], floor, f"floor of {subset}", rtol=CSV_RTOL + 1e-9, atol=1e-12)
        if not rate_at:
            values.append(floor)
            continue
        delta = float(search["delta"])
        if abs(delta - floor) <= 1e-9 * delta:
            values.append(math.nan)       # at the floor: either answer is right
        elif delta < floor:
            p.expect(row[2] == "inf", f"{subset} is infeasible at {delta}")
            values.append(math.inf)
        else:
            want = refmath.exact_rate(lam, delta - floor)
            p.close(row[2], want, f"rate of {subset}", rtol=RTOL + CSV_RTOL)
            values.append(want)
    summary = _json(out / "summary.json")
    values = np.asarray(values)
    best = float(np.nanmin(values))
    p.expect(math.isfinite(best), "no feasible subset")
    p.close(summary["best_value"], best, "best value", rtol=1e-8)
    chosen = subsets.index(tuple(summary["best_subset"]))
    p.close(values[chosen], best, "value of the reported best subset", rtol=1e-8)
    p.expect(summary["subsets"] == len(subsets), "subset count")


def _check_place(job, out, cfg, p):
    import srdf_kit

    kernel = srdf_kit.GaussMarkovKernel(float(cfg["field"]["kernel"]["p"]))
    fm = srdf_kit.FieldModel(kernel, int(cfg["field"].get("quad_points", 2048)))
    block = cfg["placement"]
    k, pin = int(block["k"]), bool(block.get("pin_endpoints", False))
    summary = _json(out / "summary.json")
    pts = tuple(summary["points"])
    _, rows = _csv(out / "points.csv")
    p.expect(len(pts) == k and len(rows) == k, "point count")
    p.expect(all(0.0 <= a < b <= 1.0 for a, b in zip(pts, pts[1:])), f"points not increasing: {pts}")
    if pin:
        p.expect(pts[0] == 0.0 and pts[-1] == 1.0, "pinned endpoints moved")
    value = summary["value"]
    p.expect(math.isfinite(value), f"placement value {value}")
    if str(block.get("objective", "min_delta_min")).replace("-", "_") == "min_rate_at":
        delta = float(block["delta"])
        def objective(x):
            return srdf_kit.field_srdf(fm, x, delta).rate_bits
    else:
        def objective(x):
            return srdf_kit.field_min_distortion(fm, x)
        p.close(value, refmath.gm_floor(fm.kernel.p, pts), "GM floor closed form", rtol=0.0, atol=1e-6)
        if pin:
            p.expect(np.max(np.abs(np.array(pts) - np.linspace(0.0, 1.0, k))) < 1e-2,
                     f"pinned optimum is not uniform spacing: {pts}")
    if math.isfinite(value):
        p.close(value, objective(pts), "value recomputed at the returned points", rtol=1e-12, atol=0.0)
        start = np.linspace(0.0, 1.0, k) if pin else (np.arange(k) + 0.5) / k
        try:
            start_value = objective(tuple(start))
        except srdf_kit.SrdfKitError:
            start_value = math.inf
        p.expect(value <= start_value + 1e-12, "worse than the equispaced start")


def _fvc_closed_form(fam, sampled, delta: float, bayes: bool) -> float | None:
    """Closed-form universal rate of the fixed-variance correlation family, one sample."""
    if fam["template"] != "fixed-var-corr" or len(sampled) != 1:
        return None
    s2 = float(fam["sigma2"])
    lo, hi = (float(x) for x in fam["box"][0])
    r = 0.5 * (lo + hi) if bayes else lo
    floor = s2 * (1.0 - r * r)
    if delta <= floor:
        return None
    if delta >= 2.0 * s2:
        return 0.0
    return max(0.0, 0.5 * math.log2(s2 * (1.0 + r * r) / (delta - floor)))


def _worst_case(sig, sampled, delta: float) -> float | None:
    per = [refmath.floor_and_spectrum(s, sampled) for s in sig]
    if delta <= max(f for f, _ in per):
        return None
    return max(refmath.exact_rate(lam, delta - f) for f, lam in per)


def _check_usrdf(job, out, cfg, p, bayes: bool):
    fam, sampled, deltas = cfg["family"], cfg["sampling"], _grid(cfg)
    sig, weights = family_sigmas(fam)
    data = refmath.bayes_atoms(sig, sampled, weights)
    groups = refmath.atoms(sig, sampled)
    singletons = all(len(g) == 1 for g in groups)
    summary = _json(out / "summary.json")
    p.expect(summary["atoms"] == len(groups), f"{summary['atoms']} atoms, want {len(groups)}")
    p.expect(summary["grid_nodes"] == len(sig), "grid nodes")
    curve = _curve(out, ["delta", "rate_bits"], p, len(deltas))
    if bayes:
        p.expect(np.allclose(summary["atom_weights"], [w for w, _, _ in data], rtol=1e-9), "atom weights")
        p.close(summary["delta_min"], sum(w * f for w, f, _ in data), "prior-averaged floor", rtol=1e-9)
        _, alloc = _csv(out / "allocation.csv")
        p.expect(len(alloc) == len(deltas) * len(data), "allocation rows")
        alloc = np.array([float(a[2]) for a in alloc]).reshape(len(deltas), -1)
    for i, (d, (_, rate)) in enumerate(zip(deltas, curve)):
        closed = _fvc_closed_form(fam, sampled, d, bayes)
        if closed is not None:
            p.close(rate, closed, f"closed form at {d}", rtol=CSV_RTOL, atol=1e-6)
        if bayes:
            want, per_atom = refmath.bayes_rate(data, d)
            p.close(rate, want, f"Bayes rate at {d}", rtol=CSV_RTOL, atol=1e-6)
            p.expect(np.allclose(alloc[i], per_atom, rtol=1e-6, atol=1e-9), f"allocation at {d}")
            p.close(np.dot([w for w, _, _ in data], alloc[i]), d, f"allocation average at {d}", rtol=1e-6)
            worst = _fvc_closed_form(fam, sampled, d, False) if len(sampled) == 1 else (
                _worst_case(sig, sampled, d) if singletons else None)
            if worst is not None:
                p.expect(rate <= worst + 1e-9, f"Bayes above worst case at {d}")
        else:
            if closed is None:
                p.close(rate, _worst_case(sig, sampled, d), f"worst-case rate at {d}",
                        rtol=RTOL + CSV_RTOL)
            p.expect(rate >= refmath.bayes_rate(data, d)[0] - 1e-9, f"worst case below Bayes at {d}")
    _shape(curve[:, 1], p, "universal rate curve")


def _sim_identity(rep: dict, p: Problems) -> None:
    resid = abs(rep["total_mse"]["mean"] - rep["weighted_mse"]["mean"] - rep["delta_min"])
    band = 3.0 * (rep["total_mse"]["half_width_95"] + rep["weighted_mse"]["half_width_95"])
    p.expect(resid <= band, f"total - weighted - floor = {resid:.3e} exceeds {band:.3e}")
    p.expect(rep["total_mse"]["mean"] >= rep["analytic_distortion_at_rate"]
             - 3.0 * rep["total_mse"]["half_width_95"], "MSE below the rate distortion bound")


def _sim_common(cfg, rep: dict, p: Problems) -> float:
    sim = cfg["sim"]
    n = int(sim.get("n", 1))
    j = 2 ** max(0, math.ceil(n * float(sim.get("rate_bits", 2.0)) - 1e-9))
    p.expect(rep["codeword_count"] == j, f"codebook size {rep['codeword_count']}, want {j}")
    p.expect(all(1 <= it <= int(sim.get("lbg_iters", 60)) for it in rep["lbg_iterations"]),
             "LBG iteration count")
    return math.log2(j) / n


def _check_simulate(job, out, cfg, p):
    rep = _json(out / "report.json")["report"]
    code_rate = _sim_common(cfg, rep, p)
    floor, lam = refmath.floor_and_spectrum(_sigma(cfg, job), cfg["sampling"])
    p.close(rep["delta_min"], floor, "floor", rtol=1e-9, atol=1e-12)
    p.close(rep["analytic_distortion_at_rate"], floor + refmath.exact_distortion(lam, code_rate),
            "analytic distortion", rtol=1e-8)
    _sim_identity(rep, p)


def _check_usim(job, out, cfg, p):
    rep = _json(out / "report.json")["report"]
    code_rate = _sim_common(cfg, rep, p)
    sig, weights = family_sigmas(cfg["family"])
    data = refmath.bayes_atoms(sig, cfg["sampling"], weights)
    p.expect(rep["grid_size"] == len(data), f"{rep['grid_size']} atoms, want {len(data)}")
    est = int(cfg["sim"].get("est_length", 2048))
    p.close(rep["universal_overhead_bits"], math.log2(len(data)) / est if len(data) > 1 else 0.0,
            "atom announcement overhead", rtol=1e-12, atol=0.0)
    p.close(rep["delta_min"], sum(w * f for w, f, _ in data), "prior-averaged floor", rtol=1e-9)
    want = sum(w * (f + refmath.exact_distortion(lam, code_rate)) for w, f, lam in data)
    p.close(rep["analytic_distortion_at_rate"], want, "analytic distortion", rtol=1e-8)
    _sim_identity(rep, p)


ORACLES = {
    "srdf": _check_srdf,
    "distrate": _check_distrate,
    "gmf-srdf": _check_gmf,
    "optimize-set": _check_optimize_set,
    "place": _check_place,
    "usrdf-bayes": lambda job, out, cfg, p: _check_usrdf(job, out, cfg, p, True),
    "usrdf-nonbayes": lambda job, out, cfg, p: _check_usrdf(job, out, cfg, p, False),
    "simulate": _check_simulate,
    "usim": _check_usim,
}


def check(job: Job, out: Path, root: Path) -> list[str]:
    """Problems found in the artifacts ``job`` left in ``out``; empty when it passed.

    An oracle that cannot evaluate what the program wrote (say, a placement with two
    equal points, whose Gram matrix is singular) reports that as a problem too."""
    from srdf_kit import SrdfKitError

    p = Problems()
    try:
        cfg = _config(job)
        meta = out / ("report.json" if job.task in ("simulate", "usim") else "summary.json")
        p.expect(_json(meta).get("task") == job.task, "task recorded in the artifact")
        ORACLES[job.task](job, out, cfg, p)
        if job.golden:
            _golden(job, out, root, p)
    except (OSError, ValueError, KeyError, IndexError, TypeError, ArithmeticError, SrdfKitError) as exc:
        p.append(f"artifact unreadable or malformed: {type(exc).__name__}: {exc}")
    return list(p)
