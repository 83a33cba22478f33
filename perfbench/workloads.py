"""Seeded job sets for the three benchmark workloads.

A job is one CLI task on one generated config.  ``generate`` writes every
config (YAML, plus CSV matrices and kernel meshes) under a directory and
returns the jobs; the program under test sees only those files.  Each
workload also runs the shipped configs of its tasks verbatim.

Sizes are stratified over the ranges each workload covers (a fixed list of
shapes per workload), and the seed draws the numbers inside them: matrices,
sampling sets, kernel parameters, grids and program seeds.  So two seeds load
the program alike while no two seeds share inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np
import yaml

import refmath

WORKLOADS = ("curves", "search", "coding")

SHIPPED = {
    "curves": [
        ("srdf", "three_component_srdf.yaml", "three_component_srdf_curve.csv"),
        ("distrate", "three_component_distrate.yaml", None),
        ("gmf-srdf", "exp_field_srdf.yaml", None),
        ("usrdf-bayes", "corr_family_bayes.yaml", "corr_family_bayes_curve.csv"),
        ("usrdf-nonbayes", "corr_family_nonbayes.yaml", "corr_family_nonbayes_curve.csv"),
    ],
    "search": [
        ("optimize-set", "subset_search.yaml", None),
        ("place", "exp_field_place.yaml", None),
    ],
    "coding": [
        ("simulate", "two_step_sim.yaml", None),
        ("usim", "corr_family_usim.yaml", None),
    ],
}


@dataclass(frozen=True)
class Job:
    name: str
    task: str
    config: Path
    golden: str | None = None   # file under tests/golden the curve must match

    def argv(self, out: Path) -> list[str]:
        return [self.task, "--config", str(self.config), "--out", str(out)]


class _Writer:
    def __init__(self, directory: Path):
        self.dir = directory
        self.jobs: list[Job] = []

    def add(self, task: str, cfg: dict, matrices: dict | None = None) -> None:
        name = f"{task}-{len(self.jobs):02d}"
        for key, (field, mat) in (matrices or {}).items():
            path = self.dir / f"{name}-{key}.csv"
            np.savetxt(path, mat, delimiter=",", fmt="%.17g")
            field[key] = path.name
        path = self.dir / f"{name}.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
        self.jobs.append(Job(name, task, path))


def _wishart(rng, m: int) -> np.ndarray:
    a = rng.standard_normal((m, m + 4))
    s = a @ a.T / (m + 4)
    return 0.5 * (s + s.T)


def _subset(rng, m: int, k: int) -> list[int]:
    return sorted(int(i) + 1 for i in rng.choice(m, size=k, replace=False))


def _model_block(sigma: np.ndarray, matrices: dict) -> dict:
    """Small models inline in the YAML, larger ones through a CSV file."""
    if sigma.shape[0] <= 10:
        return {"sigma": sigma.tolist()}
    block: dict = {}
    matrices["sigma_csv"] = (block, sigma)
    return block


def _grid(lo: float, hi: float, count: int) -> dict:
    return {"min": float(lo), "max": float(hi), "count": int(count)}


def _mesh_csv(values: np.ndarray) -> str:
    n = values.shape[0]
    rows = [str(n)] + [f"{i},{j},{float(values[i, j])!r}" for i in range(n) for j in range(n)]
    return "\n".join(rows) + "\n"


def _psd_direction(rng, m: int, entries, scale: float) -> np.ndarray:
    d = np.zeros((m, m))
    for i, j in entries:
        d[i, j] = d[j, i] = rng.uniform(0.5, 1.0) * rng.choice((-1.0, 1.0))
    return d * scale / max(1e-12, np.max(np.abs(np.linalg.eigvalsh(d))))


def _affine_family(rng, m: int, sampled: list[int], member_axis: bool,
                   grid_res: int, prior: bool) -> dict:
    """An affine family whose first direction moves the sampled block (one atom per
    grid value) and whose optional second one moves only unsampled entries (members
    within an atom).  Directions are scaled against the base's smallest eigenvalue so
    every node is PD."""
    base = _wishart(rng, m) + 0.3 * np.eye(m)
    floor_eig = float(np.min(np.linalg.eigvalsh(base)))
    a = [i - 1 for i in sampled]
    ac = [i for i in range(m) if i not in a]
    dirs = [_psd_direction(rng, m, [(a[0], a[-1]), (a[0], ac[0])], 0.4 * floor_eig)]
    if member_axis:
        dirs.append(_psd_direction(rng, m, [(ac[0], ac[-1]), (a[-1], ac[-1])], 0.4 * floor_eig))
    fam = {
        "template": "affine",
        "base": base.tolist(),
        "directions": [d.tolist() for d in dirs],
        "box": [[-1.0, 1.0] for _ in dirs],
        "grid_res": int(grid_res),
    }
    if prior:
        fam["prior"] = "uniform"
    return fam


def _fvc_family(rng, grid_res: int, prior: bool = True) -> dict:
    lo = rng.uniform(0.1, 0.4)
    fam = {
        "template": "fixed-var-corr",
        "sigma2": float(rng.uniform(0.5, 2.0)),
        "box": [[float(lo), float(lo + rng.uniform(0.2, 0.5))]],
        "grid_res": int(grid_res),
    }
    if prior:
        fam["prior"] = "uniform"
    return fam


def family_sigmas(fam: dict):
    """Node covariances and uniform-prior weights of a family config block."""
    res = int(fam.get("grid_res", 33))
    if fam["template"] == "fixed-var-corr":
        s2 = float(fam["sigma2"])
        base = s2 * np.eye(2)
        dirs = [s2 * np.array([[0.0, 1.0], [1.0, 0.0]])]
    else:
        base = np.asarray(fam["base"], dtype=float)
        dirs = [np.asarray(d, dtype=float) for d in fam["directions"]]
    box = [(float(lo), float(hi)) for lo, hi in fam["box"]]
    return refmath.family_nodes(base, dirs, box, res), refmath.trapezoid_weights(box, res)


def _curves(rng, w: _Writer) -> None:
    # srdf: one sampling set, 100-200 budgets; m spans 8-60, k up to m/2 (k=1 on two jobs)
    for i in range(10):
        m = int(round(8 + i * 52 / 9))
        k = 1 if i in (1, 6) else max(2, round((0.3 + 0.07 * i) * m / 2))
        sigma = _wishart(rng, m)
        sampled = _subset(rng, m, k)
        floor, lam = refmath.floor_and_spectrum(sigma, sampled)
        span = float(np.sum(lam))
        mats: dict = {}
        w.add("srdf", {
            "model": _model_block(sigma, mats),
            "sampling": sampled,
            "grid": _grid(floor + rng.uniform(0.01, 0.03) * span,
                          floor + rng.uniform(0.95, 0.99) * span, 100 + 11 * i),
        }, mats)
    # distrate: rates from 0 up to the rate that leaves 2% of the spectrum
    for i in range(20):
        m = int(round(8 + i * 52 / 19))
        k = 1 if i in (4, 13) else max(2, round((0.3 + 0.035 * i) * m / 2))
        sigma = _wishart(rng, m)
        sampled = _subset(rng, m, k)
        _, lam = refmath.floor_and_spectrum(sigma, sampled)
        # the package treats 64 bits and more as "floor reached"; stay below that cap
        top = min(48.0, refmath.exact_rate(lam, 0.02 * float(np.sum(lam))))
        mats = {}
        w.add("distrate", {
            "model": _model_block(sigma, mats),
            "sampling": sampled,
            "grid": _grid(0.0, top, 200 - 5 * i),
        }, mats)
    # gmf-srdf: Gauss-Markov and tabulated kernels, points on 1/16 knots
    for i in range(8):
        k = 1 + i % 4
        knots = sorted(int(x) for x in rng.choice(np.arange(1, 16), size=k, replace=False))
        points = [x / 16 for x in knots]
        if i < 5:
            p = 0.3 + 0.1 * i + rng.uniform(0.0, 0.1)
            kernel = {"type": "gauss-markov", "p": float(p)}
            floor, top = refmath.gm_floor(p, points), 1.0
        else:
            s = np.linspace(0.0, 1.0, 17)
            lag = np.abs(s[:, None] - s[None, :])
            mix = rng.uniform(0.3, 0.7)
            vals = mix * rng.uniform(0.2, 0.5) ** lag + (1 - mix) * rng.uniform(0.6, 0.9) ** lag
            mesh = w.dir / f"gmf-srdf-{len(w.jobs):02d}-mesh.csv"
            mesh.write_text(_mesh_csv(vals), encoding="utf-8")
            kernel = {"type": "tabulated", "mesh_csv": mesh.name}
            floor, _, top = refmath.tabulated_floor_spectrum(vals, points)
        w.add("gmf-srdf", {
            "field": {"kernel": kernel, "quad_points": (512, 1024, 2048)[i % 3]},
            "points": points,
            "grid": _grid(floor + 0.02 * (top - floor), floor + 0.98 * (top - floor), 20 + 3 * i),
        })
    # usrdf-bayes: (family, sampling or atoms, budgets); 1-17 atoms, fewer budgets on
    # many-atom jobs so that no single job dominates a pass
    bayes = [("fvc", [1], 8), ("fvc", [2], 6), ("fvc", [1, 2], 3), ("affine1", 3, 4),
             ("affine2", 4, 3), ("affine1", 8, 3), ("affine2", 6, 3), ("affine1", 17, 3)]
    for i, (kind, size, count) in enumerate(bayes):
        if kind == "fvc":
            fam, sampled = _fvc_family(rng, 9 + 8 * i if len(size) == 1 else 5), size
        else:
            m = 3 + i % 2
            sampled = [1, 2]
            fam = _affine_family(rng, m, sampled, kind == "affine2", size, True)
        sig, wts = family_sigmas(fam)
        data = refmath.bayes_atoms(sig, sampled, wts)
        lo = sum(wt * f for wt, f, _ in data)
        hi = sum(wt * (f + float(np.sum(lam))) for wt, f, lam in data)
        w.add("usrdf-bayes", {
            "family": fam,
            "sampling": sampled,
            "grid": _grid(lo + 0.05 * (hi - lo), lo + 0.95 * (hi - lo), count),
        })
    # usrdf-nonbayes: the closed-form correlation family and all-singleton families
    for i, (kind, size) in enumerate((("fvc", [1]), ("fvc", [2]), ("fvc", [1, 2]),
                                      ("affine1", 3), ("affine1", 5), ("affine1", 9))):
        if kind == "fvc":
            fam, sampled = _fvc_family(rng, 9 if len(size) == 2 else 33, prior=len(size) == 1), size
        else:
            sampled = [1, 2]
            fam = _affine_family(rng, 3, sampled, False, size, False)
        sig, _ = family_sigmas(fam)
        per = [refmath.floor_and_spectrum(s, sampled) for s in sig]
        lo = max(f for f, _ in per)
        hi = max(f + float(np.sum(lam)) for f, lam in per)
        w.add("usrdf-nonbayes", {
            "family": fam,
            "sampling": sampled,
            "grid": _grid(lo + 0.05 * (hi - lo), lo + 0.95 * (hi - lo), 10 + 2 * i),
        })


def _search(rng, w: _Writer) -> None:
    # optimize-set: C(m, k) from 252 to 3060; min_rate_at at a delta every subset meets,
    # so the work does not depend on how many subsets the seed makes infeasible
    shapes = [(10, 5), (25, 2), (14, 3), (12, 4), (16, 3), (40, 2), (15, 4)]
    for m, k in shapes + [(12, 5), (14, 4), (20, 3), (48, 2), (13, 5), (22, 3), (18, 4)]:
        sigma = _wishart(rng, m)
        mats: dict = {}
        w.add("optimize-set", {"model": _model_block(sigma, mats),
                               "search": {"k": k, "objective": "min_delta_min"}}, mats)
        if (m, k) not in shapes:
            continue
        worst = max(refmath.floor_and_spectrum(sigma, [i + 1 for i in c])[0]
                    for c in combinations(range(m), k))
        delta = worst + rng.uniform(0.2, 0.5) * (float(np.trace(sigma)) - worst)
        mats = {}
        w.add("optimize-set", {"model": _model_block(sigma, mats),
                               "search": {"k": k, "objective": "min_rate_at",
                                          "delta": float(delta)}}, mats)
    # place: Gauss-Markov fields, k 3-5, 2-4 restarts, both objectives, pinned and free.
    # These are the workload's tail; shapes of similar cost keep its p90 off a gap.
    shapes = [(5, 2, True, "min_delta_min"), (3, 2, False, "min_delta_min"),
              (4, 3, True, "min_delta_min"), (4, 4, True, "min_delta_min"),
              (4, 2, True, "min_rate_at"), (3, 4, True, "min_rate_at")]
    for k, restarts, pin, objective in shapes:
        block = {"k": k, "restarts": restarts, "pin_endpoints": pin,
                 "objective": objective, "seed": int(rng.integers(0, 2**31))}
        if objective == "min_rate_at":
            block["delta"] = float(rng.uniform(0.45, 0.6))
        w.add("place", {
            "field": {"kernel": {"type": "gauss-markov", "p": float(rng.uniform(0.4, 0.7))},
                      "quad_points": 256},
            "placement": block,
        })


def _coding(rng, w: _Writer) -> None:
    # simulate: (m, k, n, log2 codebook size, LBG iteration cap, evaluation blocks);
    # codebooks of 16-512 codewords.  The cap keeps training time from depending on
    # how soon a seed's codebook converges.
    shapes = [(2, 1, 1, 4, 30, 2000), (3, 2, 2, 4, 30, 3000), (4, 1, 1, 4, 30, 4000),
              (2, 1, 1, 5, 25, 5000), (4, 2, 1, 5, 25, 6000), (3, 1, 1, 5, 25, 2000),
              (3, 1, 2, 6, 20, 3000), (3, 2, 1, 6, 20, 4000), (4, 1, 1, 7, 15, 5000),
              (4, 3, 1, 7, 15, 6000), (2, 1, 2, 7, 15, 2000), (2, 1, 1, 8, 12, 3000),
              (3, 2, 1, 8, 12, 4000), (2, 1, 1, 9, 8, 5000), (3, 1, 1, 7, 20, 8000),
              (2, 1, 1, 7, 20, 10000), (4, 2, 1, 7, 20, 8000), (3, 1, 1, 8, 12, 6000)]
    for m, k, n, bits, iters, blocks in shapes:
        sigma = _wishart(rng, m) + 0.2 * np.eye(m)
        w.add("simulate", {
            "model": {"sigma": sigma.tolist()},
            "sampling": _subset(rng, m, k),
            "sim": {"n": n, "rate_bits": bits / n, "eval_blocks": blocks, "lbg_iters": iters,
                    "seed": int(rng.integers(0, 2**31))},
        })
    # usim: (family, sampling, grid_res, rate, trials, slots per trial); 1-9 atoms
    shapes = [("fvc", [1], 3, 2.0, 500, 512), ("fvc", [2], 9, 1.0, 700, 1024),
              ("fvc", [1, 2], 2, 2.0, 900, 512), ("fvc", [1, 2], 9, 1.0, 1100, 512),
              ("affine1", [1, 2], 3, 3.0, 1300, 512), ("affine1", [1, 2], 5, 1.0, 1500, 512),
              ("affine1", [1, 2], 9, 2.0, 2000, 1024)]
    for kind, sampled, grid_res, rate, trials, slots in shapes:
        if kind == "fvc":
            fam = _fvc_family(rng, grid_res)
        else:
            fam = _affine_family(rng, 3, sampled, False, grid_res, True)
        w.add("usim", {
            "family": fam,
            "sampling": sampled,
            "sim": {"n": 1, "rate_bits": rate, "eval_blocks": trials, "est_length": slots,
                    "grid_delta": 0.05, "seed": int(rng.integers(0, 2**31))},
        })


_GENERATORS = {"curves": _curves, "search": _search, "coding": _coding}


def generate(workload: str, seed: int, directory: Path, configs: Path) -> list[Job]:
    """Write the workload's inputs for ``seed`` under ``directory``; shipped configs first."""
    directory.mkdir(parents=True, exist_ok=True)
    jobs = [Job(f"shipped-{Path(cfg).stem}", task, configs / cfg, golden)
            for task, cfg, golden in SHIPPED[workload]]
    w = _Writer(directory)
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    _GENERATORS[workload](rng, w)
    return jobs + w.jobs

