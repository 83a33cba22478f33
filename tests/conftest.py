import itertools
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from srdf_kit import (
    AmbiguityPartition,
    BudgetOutOfRange,
    CovarianceModel,
    EigenFailure,
    EmptyGrid,
    FieldSamplingSet,
    GaussMarkovKernel,
    InfeasibleDistortion,
    NotPositiveDefinite,
    NotSquare,
    NotSymmetric,
    SingularSigmaA,
    ValidationError,
    affine_family,
    as_sampling_set,
    ml_cov_estimate,
)
from srdf_kit.field import _mesh_simpson
from srdf_kit.model import PD_TOL, SYM_TOL
from srdf_kit.simulate import _STREAM_TRIAL, _rng
from srdf_kit.universal import ATOM_TOL


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail any test that leaves more threads running than it found: helpers are joined before a call returns or raises."""
    before = threading.active_count()
    yield
    after = threading.active_count()
    assert after <= before, f"{after - before} thread(s) still running after the test: {threading.enumerate()}"


def random_model(rng, m, jitter=0.5):
    """Random SPD covariance of size m."""
    a = rng.standard_normal((m, m))
    return CovarianceModel(a @ a.T + jitter * np.eye(m))


def multi_atom_family(rng, k):
    """(family, sampling set [1..k]): affine, uniform prior, three atoms of three members each.

    The first direction moves the first sampled variance, which splits the grid
    into atoms; the second moves an unsampled variance and its covariance with
    the first component, which each atom averages over.
    """
    m = k + 2
    a = rng.standard_normal((m, m + 2))
    seen, hidden = np.zeros((m, m)), np.zeros((m, m))
    seen[0, 0] = 1.0
    hidden[-1, -1] = 1.0
    hidden[0, -1] = hidden[-1, 0] = 0.1
    box = [(0.0, float(rng.uniform(0.1, 1.0))), (0.0, 0.5)]
    family = affine_family(a @ a.T / (m + 2) + 0.3 * np.eye(m), [seen, hidden], box, prior="uniform", grid_res=3)
    return family, list(range(1, k + 1))


def knot_simpson(kernel, points, knots, panels=2000):
    """(M, integrated variance) of a field kernel sampled at ``points``, by Simpson's rule.

    M is the integral over [0, 1] of c(u) c(u)^T, with c(u) the kernel between
    u and the points.  Each interval between consecutive knots of
    {0, 1} and ``knots`` gets ``panels`` panels, so the rule is fine wherever
    the knots hold every crease of the integrands.
    """
    pts = np.asarray(points, dtype=float)
    knots = np.unique(np.concatenate(([0.0, 1.0], np.asarray(knots, dtype=float))))
    mass, variance = np.zeros((len(pts), len(pts))), 0.0
    for lo, hi in zip(knots, knots[1:]):
        u = np.linspace(lo, hi, 2 * panels + 1)
        w = np.full(u.size, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= (hi - lo) / (6 * panels)
        c = kernel.corr(u[:, None], pts[None, :])
        mass += (c * w[:, None]).T @ c
        variance += float(w @ kernel.corr(u, u))
    return mass, variance


def reference_spectrum(sigma_a, g):
    """Eigenvalues of G Sigma_A, descending, from the symmetric root: Sigma_A^{1/2} G Sigma_A^{1/2}.

    An oracle independent of the package's Cholesky reduction: an
    eigendecomposition of Sigma_A, its symmetric root, a triple product and a
    second eigendecomposition.  Leading axes stack independent blocks.
    """
    w, v = np.linalg.eigh(sigma_a)
    root = (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    s = root @ g @ root
    return np.linalg.eigvalsh(0.5 * (s + np.swapaxes(s, -1, -2)))[..., ::-1]


def reference_block(sigma, sampled):
    """(floor, descending weighted eigenvalues) of the 1-based ``sampled`` set, by a solve and the symmetric root."""
    a = np.asarray(sampled) - 1
    ac = np.setdiff1d(np.arange(len(sigma)), a)
    cross = sigma[np.ix_(a, ac)]
    lift = np.linalg.solve(sigma[np.ix_(a, a)], cross)
    floor = float(np.trace(sigma[np.ix_(ac, ac)]) - np.sum(cross * lift))
    return floor, reference_spectrum(sigma[np.ix_(a, a)], np.eye(len(a)) + lift @ lift.T)


def reference_field(sigma_a, mass, variance):
    """(floor, descending weighted eigenvalues) of a field block, with weight G = Sigma_A^{-1} M Sigma_A^{-1}."""
    x = np.linalg.solve(sigma_a, mass)
    g = np.linalg.solve(sigma_a, x.T)
    return float(variance - np.trace(x)), reference_spectrum(sigma_a, 0.5 * (g + g.T))


def reference_gm_cross_mass(p, pts):
    """M_ij = integral over [0, 1] of p^(|u - a_i| + |u - a_j|) du for sorted points a, segment by segment.

    The knots {0, a, 1} cut [0, 1] into k+1 segments, each free of sampling
    points.  On a segment of length h at distances d_i, d_j from a_i, a_j:
    with both points on one side the exponent grows by 2 per unit away from
    the nearer end, giving p^(d_i+d_j) (1 - p^(2h)) / (-2 ln p); with the
    segment between them it is constant, giving h p^(d_i+d_j+h).  Holds a
    (k+1) k k weight array.
    """
    pts = np.asarray(pts, dtype=float)
    k = len(pts)
    knots = np.concatenate(([0.0], pts, [1.0]))
    lo, hi = knots[:-1, None], knots[1:, None]
    h = hi - lo
    near = p ** np.maximum(lo - pts, pts - hi)
    left = np.arange(k + 1)[:, None] > np.arange(k)
    two_lp = 2.0 * math.log(p)
    one_side = np.expm1(two_lp * h) / two_lp
    weight = np.where(left[:, :, None] == left[:, None, :], one_side[:, :, None], (h * p ** h)[:, :, None])
    return np.einsum("si,sj,sij->ij", near, near, weight)


def reference_usim_trials(family, a, ac, cfg, codes, lifts, reps):
    """The universal trials one at a time: (atom, hit, ML estimate, total, weighted, lift MSE) per trial.

    Trial t draws its node and then its (m, est_length) block from the Philox
    stream (seed, _STREAM_TRIAL, t), estimates the sampled covariance, picks the
    atom whose representative is nearest, codes the slots as consecutive
    n-blocks with that atom's code and lifts them to the unsampled components.
    """
    nodes_n = len(family.nodes)
    chols = np.stack([np.linalg.cholesky(s) for s in family.node_sigmas])
    node_block = family.node_sigmas[np.ix_(np.arange(nodes_n), a, a)]
    k, slots, n = len(a), cfg.est_length, cfg.n
    blocks = slots // n
    trials = cfg.eval_blocks
    sel = np.empty(trials, dtype=np.int64)
    hits = np.empty(trials, dtype=bool)
    theta = np.empty((trials, k, k))
    total, weighted, lift = np.empty(trials), np.empty(trials), np.empty(trials)
    for t in range(trials):
        rng = _rng(cfg.seed, _STREAM_TRIAL, t)
        node = int(rng.choice(nodes_n, p=family.node_weights))
        x = chols[node] @ rng.standard_normal((family.m, slots))
        x_a, x_ac = x[a], x[ac]
        theta[t] = ml_cov_estimate(x_a)
        sel[t] = np.argmin(np.linalg.norm(reps - theta[t][None, :, :], axis=(1, 2)))
        hits[t] = float(np.linalg.norm(theta[t] - node_block[node])) <= 2.0 * cfg.grid_delta
        code = codes[sel[t]]
        idx, d2 = code.encode(x_a.reshape(k, blocks, n).transpose(1, 0, 2))
        y_a = code.decode(idx).transpose(1, 0, 2).reshape(k, slots)
        y_ac = lifts[sel[t]].T @ y_a
        weighted[t] = float(np.sum(d2)) / slots
        lift[t] = float(np.sum((x_ac - y_ac) ** 2)) / slots
        total[t] = float(np.sum((x_a - y_a) ** 2)) / slots + lift[t]
    return sel, hits, theta, total, weighted, lift


def reference_optimize_set_table(path, result):
    """Write ``result``'s table.csv row by row, as optimize-set did before its table stayed in arrays.

    One string join per subset, the rate through ``_fmt`` (empty without a
    rate objective), then the CSV writer of that time, verbatim.
    """

    def _fmt(x: float) -> str:
        return f"{float(x):.9g}"

    def _write_csv(path: Path, header: list[str], rows) -> None:
        rows = list(rows)
        body = ""
        if rows:
            template = ",".join("%s" if isinstance(cell, str) else "%.9g" for cell in rows[0]) + "\n"
            body = (template * len(rows)) % tuple(itertools.chain.from_iterable(rows))
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n" + body)

    count = len(result.subsets)
    rates = [None] * count if result.rate_bits is None else result.rate_bits.tolist()
    rows = [
        (
            " ".join(str(i) for i in indices),
            delta_min,
            "" if rate_bits is None else _fmt(rate_bits),
        )
        for indices, delta_min, rate_bits in zip(result.subsets.tolist(), result.delta_min.tolist(), rates)
    ]
    _write_csv(path, ["subset", "delta_min", "rate_bits"], rows)


def reference_whiten(t, blocks):
    """Whitened rows of contiguous (B, k, n) blocks, slot-major: (B, n*k).

    T applied to every slot by ``einsum``, then a transposed copy of the
    result reshaped into rows.
    """
    w = np.einsum("ij,bjt->bit", t, blocks)
    return w.transpose(0, 2, 1).reshape(len(blocks), blocks.shape[2] * blocks.shape[1])


def reference_assign(x, cb):
    """Nearest codeword per row of x by a full scan; returns (indices, squared distances).

    Scores every codeword c by c.c - 2 x.c in row steps of 2^22 scores, takes
    the first lowest score and adds x.x, clamped at 0.
    """
    cb_sq = np.einsum("jd,jd->j", cb, cb)
    out_i = np.empty(len(x), dtype=np.int64)
    out_d = np.empty(len(x))
    step = max(1, (1 << 22) // max(1, len(cb)))
    for s in range(0, len(x), step):
        xx = x[s:s + step]
        part = cb_sq[None, :] - 2.0 * (xx @ cb.T)
        idx = np.argmin(part, axis=1)
        out_i[s:s + step] = idx
        out_d[s:s + step] = part[np.arange(len(xx)), idx] + np.einsum("nd,nd->n", xx, xx)
    np.maximum(out_d, 0.0, out=out_d)
    return out_i, out_d


def reference_validate_covariance(raw):
    """One matrix through the per-matrix checks ``validate_covariance`` ran before it took stacks, verbatim,
    with the floor on the largest entry that came after them."""
    sigma = np.asarray(raw, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise NotSquare(f"covariance must be square, got shape {sigma.shape}")
    m = sigma.shape[0]
    if m == 0:
        raise NotSquare("covariance must be nonempty")
    if not np.isfinite(sigma).all():
        raise NotPositiveDefinite("covariance has a non-finite entry")
    scale = np.max(np.abs(sigma))
    if scale == 0.0:
        raise NotPositiveDefinite("covariance is identically zero")
    least = m * np.finfo(float).tiny
    if scale < least:
        raise ValidationError(
            f"max |entry| = {scale:.3e} is below {least:.3e}: the pivot floor of a {m}x{m} covariance underflows"
        )
    skew = np.max(np.abs(sigma - sigma.T))
    if skew > SYM_TOL * scale:
        raise NotSymmetric(f"max |sigma - sigma^T| = {skew:.3e} exceeds {SYM_TOL:.0e} * max|entry|")
    sigma = 0.5 * (sigma + sigma.T)
    pivot_floor = PD_TOL * np.trace(sigma) / m
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky failed: {exc}") from exc
    pivots = np.diag(chol) ** 2
    if np.min(pivots) <= pivot_floor:
        raise NotPositiveDefinite(
            f"smallest Cholesky pivot {np.min(pivots):.3e} is below the floor {pivot_floor:.3e}"
        )
    return sigma


def reference_node_sigmas(cov_at, nodes):
    """Node covariances as ``ParamFamily`` built them before it validated a stack: node by node."""
    return np.stack([reference_validate_covariance(cov_at(tuple(t))) for t in nodes])


def _reference_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def reference_rate(delta_min, lambdas, delta):
    """Rate at ``delta`` of a floor plus eigenvalues, by the stack-general ``Spectrum`` code, verbatim.

    This is the code every spectrum ran before a lone one was rated without
    broadcasting: sort and check the eigenvalues, prefix sums of the t
    smallest, the level as the largest candidate, then the rate, all with the
    stack's trailing axis.
    """
    asc = np.sort(np.atleast_1d(np.asarray(lambdas, dtype=float)), axis=-1)
    if asc.shape[-1] == 0 or not ((asc[..., 0] > 0.0).all() and (asc[..., -1] < math.inf).all()):
        raise EigenFailure(f"eigenvalues must be finite and positive, got {lambdas}")
    lam = asc[..., ::-1].copy()
    delta_min = _reference_scalar(np.asarray(delta_min, dtype=float))
    total = _reference_scalar(lam.sum(axis=-1))
    budget = np.asarray(delta, dtype=float) - delta_min
    if not np.isfinite(budget).all():
        raise BudgetOutOfRange(f"distortion must be finite, got {delta}")
    if (budget <= 0.0).any():
        raise InfeasibleDistortion(
            f"delta {np.min(delta)} is at or below the estimation floor {np.max(delta_min)};"
            " feasible range is open at the floor"
        )
    asc = lam[..., ::-1]
    kept = np.zeros_like(asc)
    np.cumsum(asc[..., :-1], axis=-1, out=kept[..., 1:])
    left = np.arange(asc.shape[-1], 0, -1, dtype=float)
    level = _reference_scalar(((np.asarray(budget, dtype=float)[..., None] - kept) / left).max(axis=-1))
    alpha = np.asarray(level)[..., None]
    bits = 0.5 * np.log2(np.maximum(lam / alpha, 1.0)).sum(axis=-1)
    return _reference_scalar(np.where(budget >= total * (1.0 - 1e-12), 0.0, bits))


def _reference_eigvalsh(s):
    try:
        return np.linalg.eigvalsh(s)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigendecomposition of the weighted form failed: {exc}") from exc


def _reference_factor(sigma_a):
    try:
        return np.linalg.cholesky(sigma_a)
    except np.linalg.LinAlgError as exc:
        raise SingularSigmaA(f"sampled-block covariance is not positive definite: {exc}") from exc


def reference_field_reduce(field, points):
    """(floor, S) of a field point set by the chain the package ran before validation handed on its factor.

    Validate the Gram matrix, factor it a second time, then two solves: with
    Sigma_A = L L^T, S = L^{-1} M L^{-T} and the floor is variance - tr S.
    """
    pts = np.asarray(FieldSamplingSet(points).points)
    sigma_a = reference_validate_covariance(field.kernel.corr(pts[:, None], pts[None, :]))
    if isinstance(field.kernel, GaussMarkovKernel):
        m_mat, variance = field.kernel.mass(pts)[0], 1.0
    else:
        u, w = _mesh_simpson(field.kernel.mesh_n)
        c = field.kernel.corr(u[:, None], pts[None, :])
        m_mat, variance = (c * w[:, None]).T @ c, float(w @ field.kernel.corr(u, u))
    l = _reference_factor(sigma_a)
    s = np.linalg.solve(l, np.linalg.solve(l, m_mat).T)
    return max(0.0, variance - float(np.trace(s))), s


def reference_field_rate(field, points, delta):
    """Rate of a field point set at ``delta``: ``reference_field_reduce``, one ``eigvalsh``, ``reference_rate``."""
    floor, s = reference_field_reduce(field, points)
    return reference_rate(floor, _reference_eigvalsh(s), delta)


def reference_vector_rate(sigma, sampled, delta):
    """Rate of the 1-based ``sampled`` set of covariance ``sigma`` at ``delta``, by the same frozen chain.

    Validate, factor the sampled block, W = L^{-1} C with C the cross block,
    floor tr Sigma_{A^c A^c} - ||W||_F^2, S = L^T L + W W^T, one ``eigvalsh``,
    ``reference_rate``.
    """
    sigma = reference_validate_covariance(sigma)
    a = np.asarray(sampled) - 1
    ac = np.setdiff1d(np.arange(len(sigma)), a)
    l = _reference_factor(sigma[np.ix_(a, a)])
    w = np.linalg.inv(l) @ sigma[np.ix_(a, ac)]
    floor = _reference_scalar(np.maximum(0.0, np.trace(sigma[np.ix_(ac, ac)]) - np.sum(w * w, axis=(-2, -1))))
    s = np.swapaxes(l, -1, -2) @ l + w @ np.swapaxes(w, -1, -2)
    return reference_rate(floor, _reference_eigvalsh(s), delta)


def reference_project_family(family, sampled):
    """Ambiguity atoms as ``project_family`` found them before sort and sweep, verbatim
    but for the units: sampled blocks divided by their largest absolute entry.

    Every bucket is compared with every later one, and every atom scans all
    nodes for its members.  The atoms are returned as one ``AmbiguityPartition``
    table, their averaged covariances stacked in atom order.
    """
    ss = as_sampling_set(sampled)
    ss.complement(family.m)   # refuses a label above m before any index is read
    a = ss.zero_based()
    if len(family.nodes) == 0:
        raise EmptyGrid("family grid is empty")
    blocks = family.node_sigmas[np.ix_(np.arange(len(family.nodes)), a, a)]
    flat = blocks.reshape(len(blocks), -1)
    unit = flat / np.abs(flat).max()
    keys = np.round(unit * (4.0 / ATOM_TOL)).astype(np.int64)
    _, first_idx, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    reps = unit[first_idx]
    n_buckets = len(first_idx)
    parent = list(range(n_buckets))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n_buckets):
        close = np.max(np.abs(reps[i + 1:] - reps[i]), axis=1) <= ATOM_TOL
        for j in np.flatnonzero(close):
            ri, rj = find(i), find(int(i + 1 + j))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    bucket_root = np.array([find(b) for b in range(n_buckets)])
    node_root = bucket_root[inverse]
    weights = family.node_weights
    atoms = []
    for root in sorted(set(node_root.tolist()), key=lambda r: int(np.min(np.flatnonzero(node_root == r)))):
        members = np.flatnonzero(node_root == root)
        if weights is not None:
            w = weights[members]
            wsum = float(np.sum(w))
            member_w = w / wsum if wsum > 0 else np.full(len(members), 1.0 / len(members))
            sigma = np.sum(member_w[:, None, None] * family.node_sigmas[members], axis=0)
            atom_weight = wsum
        else:
            sigma = family.node_sigmas[members].mean(axis=0)
            atom_weight = None
        sigma = 0.5 * (sigma + sigma.T)
        atoms.append((tuple(int(i) for i in members), sigma, atom_weight))
    members, sigmas, atom_weights = zip(*atoms)
    return AmbiguityPartition(
        sampled=ss,
        members=members,
        sigma=np.stack(sigmas),
        weights=None if weights is None else np.array(atom_weights),
    )
