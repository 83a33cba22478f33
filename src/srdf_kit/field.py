"""Sampling a second-order random field on [0, 1] at finitely many points.

The sampled covariance is the kernel Gram matrix, the weight matrix and the
estimation floor become kernel integrals, and the rate distortion function is
the same reverse waterfill as in the finite case.  Both kernels give these
integrals exactly.  For the Gauss-Markov kernel each cross-mass entry is a
closed form in its two points, and its floor-minimizing placement is solved
exactly.  A tabulated kernel is bilinear, so for a fixed sample it
is linear in u inside each mesh cell and the integrands are quadratic there:
Simpson's rule with one panel per mesh cell is exact wherever the samples lie.
Every other placement is searched by projected quasi-Newton steps on the
ordered points, driven by the objective's gradient in the points, which the
same closed forms and the same Simpson rule give exactly.  A tabulated
objective creases at mesh lines, so there the search also tries the knots
near each point wherever the steps stop.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooLarge, SrdfKitError
from .model import _objective, _validated_factor
from .srdf import RateCurve, Spectrum, _rate_curve, _spectrum

QUAD_POINTS_DEFAULT = 2048
SEP_TOL = 1e-6  # minimum spacing kept between optimized points
PLACEMENT_CAP = 128  # most points one placement places: one evaluation, value and gradient, is O(k^3)
RESTART_CAP = 256    # most restarts one placement runs: they run serially, each a full quasi-Newton search
DESCENT_STEPS = 200       # most steps one descent takes (a restart may descend the floor, then the rate)
GRADIENT_TOL = 1e-8       # a restart ends once its projected gradient step moves no point further
ROUNDING = 4.0 * float(np.finfo(float).eps)   # relative change below a value's rounding


@dataclass(frozen=True)
class GaussMarkovKernel:
    """Unit-variance kernel r(s, u) = p^|s - u| with 0 < p < 1."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"kernel parameter must be in (0, 1), got {self.p}")

    def corr(self, s, u) -> np.ndarray:
        return self.p ** np.abs(np.asarray(s, dtype=float) - np.asarray(u, dtype=float))


@dataclass(frozen=True)
class TabulatedKernel:
    """Kernel given by an N x N mesh on the uniform grid s_i = i/(N-1), bilinear in between.

    The per-cell Simpson rule over [0, 1] (``_mesh_simpson``), its ``nodes`` and
    ``weights``, and the integrated variance it gives are built once, here.
    """

    values: np.ndarray
    nodes: np.ndarray = dataclasses.field(init=False, compare=False, repr=False)
    weights: np.ndarray = dataclasses.field(init=False, compare=False, repr=False)
    variance: float = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1] or vals.shape[0] < 2:
            raise DomainError(f"mesh must be square with N >= 2, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("mesh values must be finite")
        scale = max(1e-300, float(np.max(np.abs(vals))))
        if np.max(np.abs(vals - vals.T)) > 1e-9 * scale:
            raise DomainError("mesh must be symmetric")
        u, w = _mesh_simpson(vals.shape[0])
        for name, array in (("values", 0.5 * (vals + vals.T)), ("nodes", u), ("weights", w)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "variance", float(w @ self.corr(u, u)))

    @property
    def mesh_n(self) -> int:
        return self.values.shape[0]

    def _cells(self, s, u):
        """Mesh cell (i0, j0) of each pair (s, u) and the offsets (ts, tu) in it, in cell widths."""
        n = self.mesh_n
        fs = np.clip(np.asarray(s, dtype=float), 0.0, 1.0) * (n - 1)
        fu = np.clip(np.asarray(u, dtype=float), 0.0, 1.0) * (n - 1)
        i0 = np.minimum(fs.astype(int), n - 2)
        j0 = np.minimum(fu.astype(int), n - 2)
        return i0, j0, fs - i0, fu - j0

    def corr(self, s, u) -> np.ndarray:
        # bilinear interpolation on the uniform mesh
        i0, j0, ts, tu = self._cells(s, u)
        v = self.values
        return (
            v[i0, j0] * (1 - ts) * (1 - tu)
            + v[i0 + 1, j0] * ts * (1 - tu)
            + v[i0, j0 + 1] * (1 - ts) * tu
            + v[i0 + 1, j0 + 1] * ts * tu
        )

    def slope(self, s, u) -> np.ndarray:
        """d corr(s, u) / d s: constant in s inside a mesh cell, taken from the right on a mesh line."""
        i0, j0, _, tu = self._cells(s, u)
        v = self.values
        return (self.mesh_n - 1) * ((v[i0 + 1, j0] - v[i0, j0]) * (1 - tu) + (v[i0 + 1, j0 + 1] - v[i0, j0 + 1]) * tu)

    @classmethod
    def from_mesh_csv(cls, path) -> "TabulatedKernel":
        """Read the mesh format: a header line with N, then N*N rows ``i,j,value``."""
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise DomainError(f"cannot read mesh file {path}: {exc}") from exc
        if not rows:
            raise DomainError(f"mesh file {path} is empty")
        try:
            n = int(rows[0][0])
        except (ValueError, IndexError) as exc:
            raise DomainError(f"mesh file {path} must start with a header line holding N") from exc
        if n < 2:
            raise DomainError(f"mesh file {path} must have N >= 2, got {n}")
        if len(rows) - 1 != n * n:
            raise DomainError(f"mesh file {path} must hold N*N={n * n} rows, got {len(rows) - 1}")
        vals = np.zeros((n, n))
        unset = np.ones((n, n), dtype=bool)
        for row in rows[1:]:
            try:
                i, j, v = int(row[0]), int(row[1]), float(row[2])
            except (ValueError, IndexError) as exc:
                raise DomainError(f"bad mesh row {row!r} in {path}") from exc
            if not (0 <= i < n and 0 <= j < n):
                raise DomainError(f"mesh indices {i},{j} outside 0..{n - 1} in {path}")
            vals[i, j] = v
            unset[i, j] = False
        if np.any(unset):
            raise DomainError(f"mesh file {path} leaves entries unset")
        return cls(vals)


@dataclass(frozen=True)
class FieldModel:
    """A field on [0, 1].

    Every field integral is exact, so ``quad_points`` sets nothing any more.
    It is still accepted and checked, so that configs and callers that pass
    it, positionally included, keep working.
    """

    kernel: GaussMarkovKernel | TabulatedKernel
    quad_points: int = QUAD_POINTS_DEFAULT

    def __post_init__(self) -> None:
        if self.quad_points < 8 or self.quad_points % 2 != 0:
            raise DomainError(f"quad_points must be an even integer >= 8, got {self.quad_points}")

    @property
    def integrals(self) -> str:
        """How the field integrals are evaluated: "closed-form" or "mesh-simpson"."""
        return "closed-form" if isinstance(self.kernel, GaussMarkovKernel) else "mesh-simpson"


@dataclass(frozen=True)
class FieldSamplingSet:
    """Strictly increasing sampling points in [0, 1]."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(float(p) for p in self.points))
        if len(self.points) == 0:
            raise DomainError("at least one sampling point is required")
        if any(not 0.0 <= p <= 1.0 for p in self.points):
            raise DomainError(f"sampling points must lie in [0, 1], got {self.points}")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise DomainError(f"sampling points must be strictly increasing, got {self.points}")

    @property
    def k(self) -> int:
        return len(self.points)


def _as_field_points(spec) -> FieldSamplingSet:
    return spec if isinstance(spec, FieldSamplingSet) else FieldSamplingSet(spec)


def _mesh_simpson(n: int):
    """Simpson nodes and weights over [0, 1] with one panel per cell of the n-knot mesh."""
    u = np.linspace(0.0, 1.0, 2 * n - 1)
    w = np.full(u.size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return u, w / (6.0 * (n - 1))


def field_gram(field: FieldModel, points) -> np.ndarray:
    """Sampled covariance: the kernel Gram matrix at the sampling points."""
    return _gram_factor(field, np.asarray(_as_field_points(points).points))[0]


def _gram_factor(field: FieldModel, pts: np.ndarray):
    """(Gram matrix, its Cholesky factor) at checked points ``pts``, validated once."""
    return _validated_factor(field.kernel.corr(pts[:, None], pts[None, :]))


def _gm_cross_mass(p: float, pts: np.ndarray) -> np.ndarray:
    """M_ij = integral over [0, 1] of p^(|u - a_i| + |u - a_j|) du for points a, exactly.

    With a = min(a_i, a_j), b = max(a_i, a_j) and l = ln p the integrand is
    p^(b-a) times p^(2(a-u)) left of a, 1 between a and b and p^(2(u-b))
    right of b, so M_ij = p^(b-a) [(b - a) + (expm1(2la) + expm1(2l(1-b))) / (2l)].
    """
    lo, hi = np.minimum.outer(pts, pts), np.maximum.outer(pts, pts)
    two_lp = 2.0 * math.log(p)
    gap = hi - lo
    return p ** gap * (gap + (np.expm1(two_lp * lo) + np.expm1(two_lp * (1.0 - hi))) / two_lp)


def _field_slopes(field: FieldModel, pts: np.ndarray, mass: np.ndarray, corr):
    """(G, H) at checked points ``pts`` with cross mass ``mass`` and, on a tabulated field, kernel
    values ``corr`` between the Simpson nodes and the points: moving a_i alone moves Sigma_A along
    e_i G_i^T + G_i e_i^T and M along e_i H_i^T + H_i e_i^T, with G_ij = d r(a_i, a_j) / d a_i
    (half that on the diagonal, where both arguments move) and H_ij the integral over [0, 1] of
    d r(a_i, u) / d a_i * r(u, a_j) du.

    Gauss-Markov: G_ij = sgn l p^|a_i - a_j| with sgn = sign(a_i - a_j) and l = ln p, and H is the
    derivative of ``_gm_cross_mass``'s closed form in a_i alone, sgn l M_ij + p^(b-a) expm1(2la) when
    a_i = a < b and sgn l M_ij - p^(b-a) expm1(2l(1-b)) when a_i = b > a; on the diagonal, half the
    derivative of M_ii, (expm1(2la) - expm1(2l(1-a))) / 2, is the mean of the two.  Tabulated: the
    slopes are linear in u inside each mesh cell like the kernel, so the per-cell Simpson rule is
    exact for H too.
    """
    kernel = field.kernel
    if field.integrals == "mesh-simpson":
        h = (kernel.slope(pts[None, :], kernel.nodes[:, None]) * kernel.weights[:, None]).T @ corr
        return kernel.slope(pts[:, None], pts[None, :]), h
    two_lp = 2.0 * math.log(kernel.p)
    gap = pts[:, None] - pts[None, :]
    side = np.sign(gap)
    decay = kernel.p ** np.abs(gap)
    # a_i is the left point a wherever 1 - sgn > 0 and the right point b wherever 1 + sgn > 0
    ends = (1.0 - side) * np.expm1(two_lp * pts)[:, None] - (1.0 + side) * np.expm1(two_lp * (1.0 - pts))[:, None]
    return 0.5 * two_lp * side * decay, 0.5 * (two_lp * side * mass + decay * ends)


def _field_block(field: FieldModel, points):
    """(Sigma_A, M, integrated variance, L, C) of the field sampled at ``points``, Sigma_A = L L^T.

    M = integral of c(u) c(u)^T du is the cross mass, with c(u) the kernel
    between u and the samples.  A Gauss-Markov field has unit variance and M
    in closed form, and C is None; a tabulated one takes both from the kernel's
    per-cell Simpson rule, exact for its integrands, and C holds c at its nodes.
    The points are checked once and Sigma_A is validated once; L is the factor
    its pivot check computed.
    """
    pts = np.asarray(_as_field_points(points).points)
    sigma_a, l = _gram_factor(field, pts)
    kernel = field.kernel
    if field.integrals == "closed-form":
        return sigma_a, _gm_cross_mass(kernel.p, pts), 1.0, l, None
    c = kernel.corr(kernel.nodes[:, None], pts[None, :])
    return sigma_a, (c * kernel.weights[:, None]).T @ c, kernel.variance, l, c


def _field_reduce(field: FieldModel, points):
    """(floor, S, variance, M, L, C) of the field sampled at ``points``: with Sigma_A = L L^T and
    weight G = Sigma_A^{-1} M Sigma_A^{-1}, S = L^T G L = L^{-1} M L^{-T}, and the floor
    left after the linear estimate is variance - tr(Sigma_A^{-1} M) = variance - tr S.
    One validated factor serves both solves, so a placement evaluation costs one
    Cholesky factor and, for a rate, one ``eigvalsh``, besides its gradient's; M and C go on to
    ``_field_slopes``."""
    _, m_mat, variance, l, c = _field_block(field, points)
    s = np.linalg.solve(l, np.linalg.solve(l, m_mat).T)
    return max(0.0, variance - float(s.trace())), s, variance, m_mat, l, c


def field_min_distortion(field: FieldModel, points) -> float:
    """Estimation floor: integrated variance left after conditioning on the samples."""
    return _field_reduce(field, points)[0]


def field_max_distortion(field: FieldModel) -> float:
    """Integrated variance of the field; the zero-rate distortion."""
    return 1.0 if field.integrals == "closed-form" else field.kernel.variance


def field_srdf_spectrum(field: FieldModel, points) -> Spectrum:
    """Floor and weighted spectrum of the field sampled at ``points``: its whole curve."""
    return _spectrum(*_field_reduce(field, points)[:2])


def field_srdf(field: FieldModel, points, delta) -> RateCurve:
    """Rate distortion function of the field sampled at ``points``, at ``delta`` (a float or an array)."""
    floor, s, variance = _field_reduce(field, points)[:3]   # variance is field_max_distortion's value
    return _rate_curve(_spectrum(floor, s).rate(delta), delta, floor, variance)


def gm_segment_explained(p: float, length: float) -> float:
    """Integrated variance explained on a segment bridged by its two endpoint samples.

    For the p^|s-u| kernel the integral over a segment of length L,
    conditioned on samples at both ends, is (q (1 - x) - 1) / (ln p (1 - q))
    with x = 2 L ln p and q = e^x.  The segment's floor contribution is L
    minus this value.  For short segments both differences cancel, so the
    numerator is t (1 - x) - x^2 (1 + x) / 2 with t = expm1(x) - x - x^2/2,
    and the denominator -ln p expm1(x).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"kernel parameter must be in (0, 1), got {p}")
    if not 0.0 < length <= 1.0:
        raise DomainError(f"segment length must be in (0, 1], got {length}")
    lp = math.log(p)
    x = 2.0 * length * lp
    if x > -1.0:
        numerator = _expm1_tail(x) * (1.0 - x) - 0.5 * x * x * (1.0 + x)
    else:
        numerator = math.exp(x) * (1.0 - x) - 1.0
    return numerator / (-lp * math.expm1(x))


def gm_min_distortion_single(p: float, a: float) -> float:
    """Closed-form estimation floor for one sample of the p^|s-u| field at position a."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"kernel parameter must be in (0, 1), got {p}")
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"sample position must be in [0, 1], got {a}")
    return 1.0 - (p ** (2.0 * a) + p ** (2.0 * (1.0 - a)) - 2.0) / (2.0 * math.log(p))


def gm_min_distortion_pinned(p: float, points) -> float:
    """Closed-form floor for a point set whose first and last samples sit at 0 and 1.

    Interior segments each contribute (length - explained); with both ends
    pinned the floor is one minus the summed explained mass.
    """
    pts = _as_field_points(points).points
    if len(pts) < 2 or pts[0] != 0.0 or pts[-1] != 1.0:
        raise DomainError(f"point set must start at 0 and end at 1, got {pts}")
    return 1.0 - sum(gm_segment_explained(p, b - a) for a, b in zip(pts, pts[1:]))


def _expm1_tail(x: float) -> float:
    """expm1(x) - x - x^2/2, by its Taylor series where the subtraction would cancel."""
    if abs(x) > 0.1:
        return math.expm1(x) - x - 0.5 * x * x
    return sum(x ** n / math.factorial(n) for n in range(3, 12))


def _gm_optimal_points(p: float, k: int, pin_endpoints: bool) -> np.ndarray:
    """The k points with the lowest Gauss-Markov floor, exactly.

    The floor splits at the samples into psi(e) = e - (1 - p^(2e))/(-2 ln p)
    for each end gap e and phi(g) = g - gm_segment_explained(p, g) for each
    interior gap g.  Both are convex, so the optimum has equal end gaps and
    equal interior gaps: pinned, the uniform spacing; one free point, the
    centre; otherwise 2e + (k-1) g = 1 with e the root of the strictly
    decreasing p^(2e) - E'(g), where E'(g) = 2q (q - 1 - 2g ln p) / (1 - q)^2
    with q = p^(2g) is the slope of the explained mass.  The root is
    bisected on [0, 1/2] down to rounding.  As p -> 1 both terms tend to 1,
    so there the slope is formed from their complements, 1 - E'(g) =
    -(2t + d^2) / (q - 1)^2 with d = q - 1 - 2g ln p and t = d - (2g ln p)^2 / 2.
    """
    if pin_endpoints:
        return np.linspace(0.0, 1.0, k)
    if k == 1:
        return np.array([0.5])
    two_lp = 2.0 * math.log(p)

    def interior_gap(e):
        return (1.0 - 2.0 * e) / (k - 1)

    def slope(e):
        x = two_lp * interior_gap(e)
        m = math.expm1(x)
        t = _expm1_tail(x)
        d = t + 0.5 * x * x
        explained = 2.0 * (1.0 + m) * d / (m * m)
        if explained < 0.5:
            return math.exp(two_lp * e) - explained
        return math.expm1(two_lp * e) - (2.0 * t + d * d) / (m * m)

    lo, hi = 0.0, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo + interior_gap(lo) * np.arange(k)


@dataclass(frozen=True)
class PlacementResult:
    points: tuple[float, ...]
    value: float
    objective: str
    restarts: int
    solver: str        # "exact" (Gauss-Markov min_delta_min) or "search"
    objective_calls: int   # evaluations, each a value with its gradient ("search") or a value ("exact")
    restart_values: tuple[float, ...]   # each restart's final value; empty for "exact"
    restart_iterations: tuple[int, ...] = ()   # each restart's steps, knot moves included; empty for "exact"
    restart_gradient_norms: tuple[float, ...] = ()   # each restart's final projected-gradient norm; nan at inf


def _placement_objective(field: FieldModel, objective):
    """(fn, reported name): fn(pts) is (the floor of the points, or their rate at delta, its gradient
    in the points), both from one reduction, or (inf, None) wherever that raises a package error.

    Moving a_i alone moves Sigma_A and M as ``_field_slopes`` says.  An eigenvalue lambda of
    M x = lambda Sigma_A x with x^T Sigma_A x = 1, the spectrum of S with x = L^{-T} v, moves by
    x^T (dM - lambda dSigma_A) x = 2 x_i ((H x)_i - lambda (G x)_i) (Magnus & Neudecker, Matrix
    Differential Calculus, ch. 8).  The floor is the variance less the sum of the eigenvalues.  At
    the rate's water level alpha the modes above it keep the budget by moving alpha, so each moves
    the rate by (1/lambda - 1/alpha) / (2 ln 2) per unit of its eigenvalue and the rest by nothing.
    """
    name, delta = _objective(objective)

    def evaluate(pts):
        floor, s, _, mass, l, corr = _field_reduce(field, pts)
        if delta is not None:
            spec = _spectrum(floor, s)
            rate = spec.rate(delta)
        lam, vec = np.linalg.eigh(s)
        if delta is None:
            value, weight = floor, -np.ones(lam.size)
        else:
            value, alpha = rate, spec.level(delta - floor)
            weight = (1.0 / np.maximum(lam, alpha) - 1.0 / alpha) / (2.0 * math.log(2.0))   # 0 below alpha
        x = np.linalg.solve(l.T, vec)
        g, h = _field_slopes(field, np.asarray(pts), mass, corr)
        return value, 2.0 * (x * weight * (h @ x - (g @ x) * lam)).sum(axis=1)

    def fn(pts):
        try:
            return evaluate(pts)
        except SrdfKitError:
            return math.inf, None

    return fn, name


def _project(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The nearest point to x whose entries lie in [lo, hi], in order and SEP_TOL apart.

    Less i SEP_TOL on entry i, that is the nearest nondecreasing sequence in [lo, hi - (n-1) SEP_TOL]:
    the nearest nondecreasing one, found by pooling adjacent violators, clipped to that box.
    """
    steps = SEP_TOL * np.arange(x.size)
    fit = x - steps
    if (fit[1:] < fit[:-1]).any():
        pools = []   # [sum, count] of each pool, their means increasing
        for v in fit.tolist():
            pools.append([v, 1])
            while len(pools) > 1 and pools[-2][0] * pools[-1][1] > pools[-1][0] * pools[-2][1]:
                total, count = pools.pop()
                pools[-1][0] += total
                pools[-1][1] += count
        fit = np.repeat([total / count for total, count in pools], [count for _, count in pools])
    return np.clip(np.clip(fit, lo, hi - SEP_TOL * (x.size - 1)) + steps, lo, hi)


def _scan(evaluate, x: np.ndarray, value: float, lo: float, hi: float, knots: np.ndarray):
    """Move each point in turn to the lowest of the mesh ``knots`` within two cells of it and
    between its neighbours, or of the dips between adjacent ones, where that is lower than the
    value: (x, value, grad) after the moves, or None when no point moved.  A dip is the least
    point of the parabola through the value and slope (the cell's, to the right) at a knot and the
    value at the next knot, where that lies between them."""
    moved = None
    for i in range(x.size):
        left = x[i - 1] + SEP_TOL if i > 0 else lo
        right = x[i + 1] - SEP_TOL if i < x.size - 1 else hi

        def at(a):
            trial = x.copy()
            trial[i] = a
            return (trial, *evaluate(trial))

        near = (np.abs(knots - x[i]) <= 2.0 * (knots[1] - knots[0])) & (knots >= left) & (knots <= right)
        probes = [at(a) for a in knots[near]]
        for (a, fa, ga), (b, fb, _) in zip(probes[:-1], probes[1:]):
            if fa < math.inf and fb < math.inf:
                h = b[i] - a[i]
                curve = (fb - fa - ga[i] * h) / (h * h)
                if curve > 0.0 and 0.0 < -ga[i] < 2.0 * curve * h:
                    probes.append(at(a[i] - ga[i] / (2.0 * curve)))
        for trial, trial_value, trial_grad in probes:
            if trial_value < value:
                x, value, moved = trial, trial_value, (trial, trial_value, trial_grad)
    return moved


def _descend(evaluate, x: np.ndarray, value: float, grad: np.ndarray, lo: float, hi: float, knots=None):
    """Projected BFGS from x, where evaluate(x) = (value, grad), on ordered points in [lo, hi]:
    (x, value, grad, accepted steps, final projected-gradient norm).

    Each step tries the projections of x + t d for t = 1, 1/2, ..., with d = -H grad and H the
    inverse-Hessian estimate, and takes the first trial that lowers the value, by at least 1e-4 of
    its first-order decrease (Nocedal & Wright, Numerical Optimization, ch. 3, 6 and 16).  H is
    first a multiple of the identity that moves no point more than a tenth of the equispaced gap,
    then s^T y / y^T y times it, updated by BFGS; a pair with s^T y <= 0 is skipped.  A direction
    whose first-order decrease falls to the value's rounding, or its step to rounding, before a
    trial is taken goes back to the first H, and there the search stops.  So does a projected
    gradient step that moves no point more than GRADIENT_TOL.  Where it stops, a scan over mesh
    ``knots`` (``_scan``), if given, that moves a point is a step, and the search goes on from
    there with the first H; otherwise it ends.  It ends at DESCENT_STEPS steps in any case.
    """
    inverse = None
    steps = 0
    while True:
        norm = float(np.abs(_project(x - grad, lo, hi) - x).max(initial=0.0))
        if steps == DESCENT_STEPS:
            return x, value, grad, steps, norm
        trial = None
        if norm > GRADIENT_TOL:
            if inverse is None:
                scale = (x.size + 1) * float(np.abs(grad).max())
                direction = -grad * (min(1.0, 0.1 / scale) if scale > 0.0 else 1.0)
            else:
                direction = -(inverse @ grad)
            t = 1.0
            while True:
                trial = _project(x + t * direction, lo, hi)
                decrease = -float(grad @ (trial - x))
                if t < ROUNDING or not decrease > ROUNDING * abs(value):
                    trial = None
                    break
                trial_value, trial_grad = evaluate(trial)
                if trial_value < value and trial_value <= value - 1e-4 * decrease:
                    break
                t *= 0.5
        if trial is None:
            if inverse is not None:
                inverse = None
                continue
            moved = None if knots is None else _scan(evaluate, x, value, lo, hi, knots)
            if moved is None:
                return x, value, grad, steps, norm
            x, value, grad = moved
            steps += 1
            continue
        s, y = trial - x, trial_grad - grad
        sy = float(s @ y)
        if sy > 0.0:
            if inverse is None:
                inverse = np.eye(x.size) * (sy / float(y @ y))
            hy = inverse @ y
            inverse += (sy + float(y @ hy)) / (sy * sy) * np.outer(s, s) - (np.outer(s, hy) + np.outer(hy, s)) / sy
        x, value, grad = trial, trial_value, trial_grad
        steps += 1


def optimize_placement(
    field: FieldModel,
    k: int,
    objective="min_delta_min",
    restarts: int = 16,
    pin_endpoints: bool = False,
    seed: int = 0,
) -> PlacementResult:
    """Place k sampling points: exactly where the maths allows, else by multi-start search.

    A Gauss-Markov field under ``min_delta_min`` is solved exactly
    (``_gm_optimal_points``), and ``restarts`` and ``seed`` go unused.
    Otherwise each restart runs a projected quasi-Newton search (``_descend``)
    on the analytic gradient of the objective (``_placement_objective``),
    keeping points sorted and separated by SEP_TOL.  On a tabulated field the
    objective creases at mesh lines and can dip inside any cell, so where the
    search stops, each point in turn also tries the knots near it and the dips
    between them (``_scan``), and the search goes on from any that scores
    lower.  Restart 0 starts from the equispaced layout, the rest from sorted
    uniform draws on deterministic per-restart streams.  A point set where
    the objective raises a package error, a singular Gram matrix or a target
    distortion at or below its floor, scores inf.  A rate search whose start
    scores inf first descends the floor, which is finite wherever the Gram
    matrix is not singular and has a gradient there, and searches the rate
    from where that ends.  A Gauss-Markov floor is a sum of convex functions
    of the gaps, so that descent reaches its least value, and the restart
    stays infeasible only if no layout meets the target.  A tabulated kernel
    has rank at most its N mesh knots, so more than N points are refused.
    With ``pin_endpoints`` the first and last points are fixed at 0 and 1
    and only the interior moves.  The result counts the evaluations and
    keeps each restart's final value (inf where it never met a finite one),
    step count (the floor's steps and the knot moves included) and
    projected-gradient norm.
    """
    if k < 1:
        raise DomainError(f"need at least one point, got k={k}")
    if k > PLACEMENT_CAP:
        raise GridTooLarge(f"k = {k} points exceeds the placement cap {PLACEMENT_CAP}")
    if pin_endpoints and k < 2:
        raise DomainError("pinned placement needs k >= 2")
    if restarts < 1:
        raise DomainError(f"need at least one restart, got restarts={restarts}")
    if restarts > RESTART_CAP:
        raise GridTooLarge(f"restarts = {restarts} exceeds the restart cap {RESTART_CAP}")
    gauss_markov = field.integrals == "closed-form"
    if not gauss_markov and k > field.kernel.mesh_n:
        raise DomainError(f"k = {k} points exceed the {field.kernel.mesh_n} mesh knots: the bilinear kernel's "
                          f"Gram matrix has rank at most {field.kernel.mesh_n}, so it would be singular")
    obj_fn, obj_name = _placement_objective(field, objective)
    if gauss_markov and obj_name == "min_delta_min":
        pts = tuple(float(a) for a in _gm_optimal_points(field.kernel.p, k, pin_endpoints))
        # the objective's value, without the gradient it would compute beside it
        return PlacementResult(points=pts, value=field_min_distortion(field, pts), objective=obj_name,
                               restarts=restarts, solver="exact", objective_calls=1, restart_values=())
    calls = 0
    # the search moves the free points only: all k, or the interior between the pinned ends
    lo, hi = (SEP_TOL, 1.0 - SEP_TOL) if pin_endpoints else (0.0, 1.0)
    knots = None if gauss_markov else np.linspace(0.0, 1.0, field.kernel.mesh_n)

    def placed(x):
        return np.concatenate([[0.0], x, [1.0]]) if pin_endpoints else x

    def counted(fn):
        def evaluate(x):
            nonlocal calls
            calls += 1
            value, grad = fn(tuple(placed(x)))
            return value, (grad[1:-1] if pin_endpoints and grad is not None else grad)
        return evaluate

    def search(fn, x, value, grad):
        if value == math.inf:
            return x, value, grad, 0, math.nan
        return _descend(fn, x, value, grad, lo, hi, knots)

    evaluate = counted(obj_fn)
    floor = counted(_placement_objective(field, "min_delta_min")[0])
    outcomes = []
    for r in range(restarts):
        if r == 0:
            x = np.linspace(0.0, 1.0, k)[1:-1] if pin_endpoints else (np.arange(k) + 0.5) / k
        else:
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
            )
            if pin_endpoints:
                x = np.sort(rng.uniform(SEP_TOL, 1.0 - SEP_TOL, size=k - 2))
            else:
                x = np.sort(rng.uniform(0.0, 1.0, size=k))
        value, grad = evaluate(x)
        steps = 0
        if value == math.inf and obj_name != "min_delta_min":
            x, _, _, steps, _ = search(floor, x, *floor(x))
            value, grad = evaluate(x)
        x, value, _, more, norm = search(evaluate, x, value, grad)
        outcomes.append((x, value, steps + more, norm))
    best_x, best_val = min(outcomes, key=lambda o: o[1])[:2]
    return PlacementResult(points=tuple(float(a) for a in placed(best_x)), value=float(best_val),
                           objective=obj_name, restarts=restarts, solver="search", objective_calls=calls,
                           restart_values=tuple(float(o[1]) for o in outcomes),
                           restart_iterations=tuple(o[2] for o in outcomes),
                           restart_gradient_norms=tuple(o[3] for o in outcomes))
