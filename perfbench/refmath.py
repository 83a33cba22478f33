"""Reference math for the benchmark's generator and oracles.

Everything here is written directly in numpy from the formulas, without
calling srdf_kit, so that a check built on it is independent of the code
under test:

- the estimation floor and weighted spectrum of a sampled Gaussian vector;
- exact reverse water-filling (Cover & Thomas, Elements of Information
  Theory, section 10.3) in both directions, from sorted prefix sums instead
  of bisection;
- the Gauss-Markov field floor as a sum of per-segment closed forms;
- floor, spectrum and variance of a tabulated (bilinear) kernel sampled on
  mesh knots, where Simpson's rule on every mesh cell is exact because the
  integrands are quadratic there;
- ambiguity atoms and Bayes rates of affine parameter families.
"""

from __future__ import annotations

import math

import numpy as np


def floor_and_spectrum(sigma, sampled):
    """(floor, descending weighted eigenvalues) for 1-based ``sampled`` labels."""
    sigma = np.asarray(sigma, dtype=float)
    a = np.asarray(sampled, dtype=int) - 1
    ac = np.setdiff1d(np.arange(sigma.shape[0]), a)
    sa = sigma[np.ix_(a, a)]
    cross = sigma[np.ix_(a, ac)]
    b = np.linalg.solve(sa, cross)
    floor = float(np.trace(sigma[np.ix_(ac, ac)]) - np.sum(cross * b))
    g = np.eye(len(a)) + b @ b.T
    chol = np.linalg.cholesky(sa)
    lam = np.linalg.eigvalsh(chol.T @ g @ chol)
    return max(0.0, floor), np.sort(lam)[::-1]


def exact_rate(lam, budget: float) -> float:
    """Bits needed to bring the weighted error of spectrum ``lam`` down to ``budget``."""
    lam = np.sort(np.asarray(lam, dtype=float))
    total = float(np.sum(lam))
    if budget >= total:
        return 0.0
    n = len(lam)
    kept = 0.0
    for t in range(n):
        level = (budget - kept) / (n - t)
        if level <= lam[t]:
            return float(np.sum(0.5 * np.log2(lam[t:] / level)))
        kept += lam[t]
    raise ValueError("budget must be positive")


def exact_distortion(lam, rate_bits: float) -> float:
    """Weighted error left by spending ``rate_bits`` on spectrum ``lam``."""
    lam = np.sort(np.asarray(lam, dtype=float))[::-1]
    if rate_bits <= 0.0:
        return float(np.sum(lam))
    logs = np.cumsum(np.log2(lam))
    for j in range(1, len(lam) + 1):
        level = 2.0 ** ((logs[j - 1] - 2.0 * rate_bits) / j)
        if j == len(lam) or level >= lam[j]:
            return float(j * level + np.sum(lam[j:]))
    raise AssertionError("unreachable")


def gm_floor(p: float, points) -> float:
    """Integrated conditional variance of the p^|s-u| field sampled at ``points``."""
    pts = np.sort(np.asarray(points, dtype=float))
    lp = math.log(p)
    explained = 0.0
    for end in (pts[0], 1.0 - pts[-1]):
        explained += (1.0 - p ** (2.0 * end)) / (-2.0 * lp)
    for a, b in zip(pts, pts[1:]):
        q = p ** (2.0 * (b - a))
        explained += (q * (1.0 - 2.0 * (b - a) * lp) - 1.0) / (lp * (1.0 - q))
    return 1.0 - explained


def _bilinear(values, s, u):
    n = values.shape[0]
    fs = np.clip(s, 0.0, 1.0) * (n - 1)
    fu = np.clip(u, 0.0, 1.0) * (n - 1)
    i = np.minimum(np.floor(fs).astype(int), n - 2)
    j = np.minimum(np.floor(fu).astype(int), n - 2)
    ts, tu = fs - i, fu - j
    return (values[i, j] * (1 - ts) * (1 - tu) + values[i + 1, j] * ts * (1 - tu)
            + values[i, j + 1] * (1 - ts) * tu + values[i + 1, j + 1] * ts * tu)


def _cell_simpson(n: int):
    """Simpson nodes and weights with one panel per mesh cell of an n-knot mesh."""
    h = 1.0 / (n - 1)
    u = np.linspace(0.0, 1.0, 2 * (n - 1) + 1)
    w = np.full(len(u), 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return u, w * (h / 6.0)


def tabulated_floor_spectrum(values, points):
    """(floor, descending spectrum, integrated variance) for a mesh kernel sampled at knots."""
    values = np.asarray(values, dtype=float)
    pts = np.asarray(points, dtype=float)
    u, w = _cell_simpson(values.shape[0])
    gram = _bilinear(values, pts[:, None], pts[None, :])
    c = _bilinear(values, u[:, None], pts[None, :])
    var = _bilinear(values, u, u)
    solved = np.linalg.solve(gram, c.T)
    floor = float(w @ (var - np.einsum("ui,iu->u", c, solved)))
    cross_mass = (c * w[:, None]).T @ c
    g = np.linalg.solve(gram, np.linalg.solve(gram, cross_mass).T)
    chol = np.linalg.cholesky(gram)
    lam = np.linalg.eigvalsh(chol.T @ (0.5 * (g + g.T)) @ chol)
    return max(0.0, floor), np.sort(lam)[::-1], float(w @ var)


def trapezoid_weights(box, grid_res: int) -> np.ndarray:
    """Normalized prior weights of the uniform prior on the node grid, C order."""
    cell = []
    for lo, hi in box:
        wt = np.ones(grid_res)
        if grid_res > 1 and hi > lo:
            wt[0] = wt[-1] = 0.5
        cell.append(wt)
    vol = np.ones(1)
    for wt in cell:
        vol = np.multiply.outer(vol, wt).ravel()
    return vol / vol.sum()


def family_nodes(base, directions, box, grid_res: int) -> np.ndarray:
    """Covariances of an affine family base + sum tau_d D_d on the node grid, C order."""
    axes = [np.linspace(lo, hi, grid_res) for lo, hi in box]
    taus = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    dirs = np.asarray(directions, dtype=float)
    return np.asarray(base, dtype=float)[None] + np.einsum("nd,dij->nij", taus, dirs)


def atoms(sigmas, sampled) -> list[np.ndarray]:
    """Member indices of each group of nodes sharing a sampled block, by lowest member."""
    a = np.asarray(sampled, dtype=int) - 1
    blocks = sigmas[:, a[:, None], a[None, :]].reshape(len(sigmas), -1)
    _, first, inverse = np.unique(np.round(blocks / 1e-9), axis=0,
                                  return_index=True, return_inverse=True)
    inverse = inverse.ravel()
    return [np.flatnonzero(inverse == g) for g in np.argsort(first)]


def bayes_atoms(sigmas, sampled, weights):
    """[(weight, floor, spectrum)] of each atom's prior-averaged covariance."""
    out = []
    for members in atoms(sigmas, sampled):
        mass = float(weights[members].sum())
        avg = np.tensordot(weights[members] / mass, sigmas[members], axes=(0, 0))
        floor, lam = floor_and_spectrum(avg, sampled)
        out.append((mass, floor, lam))
    return out


def bayes_rate(atom_data, delta: float):
    """Common rate and per-atom distortions meeting prior-averaged distortion ``delta``."""
    def avg(r):
        return sum(w * (f + exact_distortion(lam, r)) for w, f, lam in atom_data)

    if delta <= sum(w * f for w, f, _ in atom_data):
        return math.inf, []
    if delta >= avg(0.0):
        return 0.0, [f + float(np.sum(lam)) for _, f, lam in atom_data]
    lo, hi = 0.0, 1.0
    while avg(hi) > delta:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if avg(mid) > delta:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    return r, [f + exact_distortion(lam, r) for _, f, lam in atom_data]
