"""Sampling a second-order random field on [0, 1] at finitely many points.

The sampled covariance is the kernel Gram matrix, the weight matrix and the
estimation floor become kernel integrals, and the rate distortion function is
the same reverse waterfill as in the finite case.  Both kernels give these
integrals exactly.  For the Gauss-Markov kernel each cross-mass entry is a
closed form in its two points, and its floor-minimizing placement is solved
exactly.  A tabulated kernel is bilinear, so for a fixed sample it
is linear in u inside each mesh cell and the integrands are quadratic there:
Simpson's rule with one panel per mesh cell is exact wherever the samples lie.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooLarge, SrdfKitError
from .model import _objective, _validated_factor
from .srdf import SrdfPoint, Spectrum, _spectrum, _srdf_point

QUAD_POINTS_DEFAULT = 2048
SEP_TOL = 1e-6  # minimum spacing kept between optimized points
PLACEMENT_CAP = 128  # most points one placement places: a coordinate sweep is k line searches of O(k^3) calls
RESTART_CAP = 256    # most restarts one placement runs: they run serially, each a full coordinate search
FEASIBLE_BISECTIONS = 20  # halvings that locate an infeasible restart's first feasible point


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
    """Kernel given by an N x N mesh on the uniform grid s_i = i/(N-1), bilinear in between."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1] or vals.shape[0] < 2:
            raise DomainError(f"mesh must be square with N >= 2, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("mesh values must be finite")
        scale = max(1e-300, float(np.max(np.abs(vals))))
        if np.max(np.abs(vals - vals.T)) > 1e-9 * scale:
            raise DomainError("mesh must be symmetric")
        object.__setattr__(self, "values", 0.5 * (vals + vals.T))
        self.values.setflags(write=False)

    @property
    def mesh_n(self) -> int:
        return self.values.shape[0]

    def corr(self, s, u) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        u = np.asarray(u, dtype=float)
        n = self.mesh_n
        # bilinear interpolation on the uniform mesh
        fs = np.clip(s, 0.0, 1.0) * (n - 1)
        fu = np.clip(u, 0.0, 1.0) * (n - 1)
        i0 = np.minimum(fs.astype(int), n - 2)
        j0 = np.minimum(fu.astype(int), n - 2)
        ts = fs - i0
        tu = fu - j0
        v = self.values
        return (
            v[i0, j0] * (1 - ts) * (1 - tu)
            + v[i0 + 1, j0] * ts * (1 - tu)
            + v[i0, j0 + 1] * (1 - ts) * tu
            + v[i0 + 1, j0 + 1] * ts * tu
        )

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


def _field_block(field: FieldModel, points):
    """(Sigma_A, M, integrated variance, L) of the field sampled at ``points``, Sigma_A = L L^T.

    M = integral of c(u) c(u)^T du is the cross mass, with c(u) the kernel
    between u and the samples.  A Gauss-Markov field has unit variance and M
    in closed form; a tabulated one takes both from the per-cell Simpson rule,
    exact for its integrands.  The points are checked once and Sigma_A is
    validated once; L is the factor its pivot check computed.
    """
    pts = np.asarray(_as_field_points(points).points)
    sigma_a, l = _gram_factor(field, pts)
    if field.integrals == "closed-form":
        return sigma_a, _gm_cross_mass(field.kernel.p, pts), 1.0, l
    u, w = _mesh_simpson(field.kernel.mesh_n)
    c = field.kernel.corr(u[:, None], pts[None, :])
    return sigma_a, (c * w[:, None]).T @ c, float(w @ field.kernel.corr(u, u)), l


def _field_reduce(field: FieldModel, points):
    """(floor, S) of the field sampled at ``points``: with Sigma_A = L L^T and weight
    G = Sigma_A^{-1} M Sigma_A^{-1}, S = L^T G L = L^{-1} M L^{-T}, and the floor
    left after the linear estimate is variance - tr(Sigma_A^{-1} M) = variance - tr S.
    One validated factor serves both solves, so a placement-objective call costs one
    Cholesky factor and, for a rate, one ``eigvalsh``."""
    _, m_mat, variance, l = _field_block(field, points)
    s = np.linalg.solve(l, np.linalg.solve(l, m_mat).T)
    return max(0.0, variance - float(s.trace())), s


def field_min_distortion(field: FieldModel, points) -> float:
    """Estimation floor: integrated variance left after conditioning on the samples."""
    return _field_reduce(field, points)[0]


def field_max_distortion(field: FieldModel) -> float:
    """Integrated variance of the field; the zero-rate distortion."""
    if field.integrals == "closed-form":
        return 1.0
    u, w = _mesh_simpson(field.kernel.mesh_n)
    return float(w @ field.kernel.corr(u, u))


def field_srdf_spectrum(field: FieldModel, points) -> Spectrum:
    """Floor and weighted spectrum of the field sampled at ``points``: its whole curve."""
    return _spectrum(*_field_reduce(field, points))


def field_srdf(field: FieldModel, points, delta: float) -> SrdfPoint:
    """Rate distortion function of the field sampled at ``points``."""
    return _srdf_point(field_srdf_spectrum(field, points), delta)


def gm_segment_explained(p: float, length: float) -> float:
    """Integrated variance explained on a segment bridged by its two endpoint samples.

    For the p^|s-u| kernel the integral over a segment of the given length,
    conditioned on samples at both ends, has the closed form below; both logs
    are natural.  The segment's floor contribution is length minus this value.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"kernel parameter must be in (0, 1), got {p}")
    if not 0.0 < length <= 1.0:
        raise DomainError(f"segment length must be in (0, 1], got {length}")
    lp = math.log(p)
    q = p ** (2.0 * length)
    return (q * (1.0 - 2.0 * length * lp) - 1.0) / (lp * (1.0 - q))


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


def _brent(fn, lo: float, hi: float, x: float, fx: float, tol: float = 1e-6):
    """Minimize a unimodal scalar function on [lo, hi] from x, where fn(x) = fx; returns (x, fn(x)).

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 5): a parabola through the three best points when it is usable and
    all three values are finite, else a golden-section step.  The known start
    costs no call; an x not strictly inside (lo, hi) is replaced by the golden
    point, but is still returned if nothing better is found.  Stops once the
    bracket is tol wide; the value returned is the one already evaluated.
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    step = tol / 4.0   # smallest step; the loop ends once x is within 2 steps of both ends
    start = (x, fx)
    a, b = lo, hi
    if not a < x < b:
        x = a + golden * (b - a)
        fx = fn(x)
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while max(x - a, b - x) > 2.0 * step:
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(e) > step and math.isfinite(fx) and math.isfinite(fw) and math.isfinite(fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if x + d - a < 2.0 * step or b - x - d < 2.0 * step:
                    d = math.copysign(step, mid - x)
        if not parabolic:
            e = (a - x) if x >= mid else (b - x)
            d = golden * e
        u = x + (d if abs(d) >= step else math.copysign(step, d))
        fu = fn(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (a, u) if u >= x else (u, b)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return start if start[1] <= fx else (x, fx)


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
    objective_calls: int
    restart_values: tuple[float, ...]   # each restart's final value; empty for "exact"


def _placement_objective(field: FieldModel, objective):
    name, delta = _objective(objective)
    if delta is None:
        def fn(pts):
            return field_min_distortion(field, pts)
    else:
        def fn(pts):
            try:
                return field_srdf(field, pts, delta).rate_bits
            except SrdfKitError:
                return math.inf
    return fn, name


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
    Otherwise each restart runs Brent line searches (``_brent``) coordinate
    by coordinate, each started from the point's current position and value,
    keeping points sorted and separated by SEP_TOL.  Restart 0 starts from the
    equispaced layout or, for a free Gauss-Markov field, from the exact floor
    optimum when that scores lower; the rest start from sorted uniform draws
    on deterministic per-restart streams.  A Gauss-Markov draw that is
    infeasible (its floor at or above the target distortion, objective inf)
    moves first to the first feasible point on the segment to the exact floor
    optimum: along it the gaps change linearly and the floor, a sum of convex
    functions of the gaps, is convex and least at the optimum, so it does not
    rise and the feasible points form its final stretch, which bisection
    locates to 2^-FEASIBLE_BISECTIONS of its length.  A tabulated field has no
    known optimum, so its infeasible draws are searched from where they fall.
    With ``pin_endpoints`` the first and last points are fixed at 0 and 1
    and only the interior moves.  The result counts the objective calls and
    keeps each restart's final value.
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
    obj_fn, obj_name = _placement_objective(field, objective)
    if field.integrals == "closed-form" and obj_name == "min_delta_min":
        pts = tuple(float(a) for a in _gm_optimal_points(field.kernel.p, k, pin_endpoints))
        return PlacementResult(points=pts, value=float(obj_fn(pts)), objective=obj_name,
                               restarts=restarts, solver="exact", objective_calls=1, restart_values=())
    calls = 0

    def objective_at(pts):
        nonlocal calls
        calls += 1
        return obj_fn(tuple(pts))

    def first_feasible(start):
        opt = _gm_optimal_points(field.kernel.p, k, pin_endpoints)
        lo, hi, value = 0.0, 1.0, objective_at(opt)
        if value == math.inf:
            return start, value
        for _ in range(FEASIBLE_BISECTIONS):
            mid = 0.5 * (lo + hi)
            mid_value = objective_at(start + mid * (opt - start))
            if mid_value == math.inf:
                lo = mid
            else:
                hi, value = mid, mid_value
        return start + hi * (opt - start), value

    def run_restart(r: int):
        if r == 0:
            layouts = [np.linspace(0.0, 1.0, k) if pin_endpoints else (np.arange(k) + 0.5) / k]
            if field.integrals == "closed-form" and not pin_endpoints:
                # an equispaced start can sit on the infeasible plateau of min_rate_at
                layouts.append(_gm_optimal_points(field.kernel.p, k, False))
            pts, value = min(((list(a), objective_at(a)) for a in layouts), key=lambda start: start[1])
        else:
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
            )
            if pin_endpoints:
                inner = np.sort(rng.uniform(SEP_TOL, 1.0 - SEP_TOL, size=k - 2))
                pts = np.concatenate([[0.0], inner, [1.0]])
            else:
                pts = np.sort(rng.uniform(0.0, 1.0, size=k))
            value = objective_at(pts)
            if value == math.inf and field.integrals == "closed-form":
                pts, value = first_feasible(pts)
            pts = list(pts)
        free = range(1, k - 1) if pin_endpoints else range(k)
        for _ in range(40):
            largest_move = 0.0
            for i in free:
                lo = pts[i - 1] + SEP_TOL if i > 0 else 0.0
                hi = pts[i + 1] - SEP_TOL if i < k - 1 else 1.0
                if hi <= lo:
                    continue

                def line(x, i=i):
                    cand = list(pts)
                    cand[i] = x
                    return objective_at(cand)

                x, fx = _brent(line, lo, hi, pts[i], value)
                if fx < value:
                    largest_move = max(largest_move, abs(x - pts[i]))
                    pts[i] = x
                    value = fx
            if largest_move < 1e-5:
                break
        return tuple(pts), value

    outcomes = [run_restart(r) for r in range(restarts)]
    best_pts, best_val = outcomes[0]
    for pts, val in outcomes[1:]:
        if val < best_val:
            best_pts, best_val = pts, val
    best_pts = tuple(float(p) for p in best_pts)
    return PlacementResult(points=best_pts, value=float(best_val), objective=obj_name, restarts=restarts,
                           solver="search", objective_calls=calls,
                           restart_values=tuple(float(val) for _, val in outcomes))
