"""Rate distortion functions for a Gaussian vector observed through a sampling subset.

The reproduction covers all m components while the encoder sees only the
sampled block, so the mean squared error over the full vector splits into an
irreducible estimation floor plus a weighted error on the sampled block.  The
weight matrix G carries that reduction, and the rate distortion function is a
reverse waterfill over the eigenvalues of G Sigma_A, taken from one Cholesky
reduction of the sampled block.  Neither the floor nor the eigenvalues depend
on the distortion, so one ``Spectrum`` value holds a whole curve; it solves
the waterfill exactly from prefix sums of the sorted eigenvalues.  All rates
are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BudgetOutOfRange,
    DimensionMismatch,
    EigenFailure,
    IndexOutOfRange,
    InfeasibleDistortion,
    SingularSigmaA,
    ValidationError,
)
from .model import CovarianceModel, _blocks, as_sampling_set

RATE_CAP_BITS = 64.0        # rates above this are treated as "distortion floor reached"


def _factor(sigma_a: np.ndarray) -> np.ndarray:
    """Cholesky factor L of Sigma_A = L L^T; leading axes stack independent blocks."""
    try:
        return np.linalg.cholesky(sigma_a)
    except np.linalg.LinAlgError as exc:
        raise SingularSigmaA(f"sampled-block covariance is not positive definite: {exc}") from exc


def _reduce(sigma_a: np.ndarray, cross: np.ndarray, trace_ac):
    """(L, W, floor) of a sampled block with cross covariance ``cross`` to the unsampled
    components, whose variances sum to ``trace_ac``: with Sigma_A = L L^T and W = L^{-1} cross,
    their linear estimate explains ||W||_F^2, which leaves the floor trace_ac - ||W||_F^2.
    Leading axes stack independent blocks, with ``trace_ac`` of their shape.
    """
    l = _factor(sigma_a)
    w = np.linalg.inv(l) @ cross   # one small inverse per block: faster than a solve with m-k columns
    return l, w, _scalar(np.maximum(0.0, trace_ac - np.sum(w * w, axis=(-2, -1))))


def _model_blocks(model: CovarianceModel, sampled):
    """``_blocks`` of ``model`` along a sampling set; a label above m raises IndexOutOfRange."""
    ss = as_sampling_set(sampled)
    ss.complement(model.m)   # refuses a label above m before any index is read
    return _blocks(model.sigma, ss.zero_based())


def min_distortion(model: CovarianceModel, sampled) -> float:
    """Estimation floor: total MSE of the best unsampled-from-sampled estimate."""
    return _reduce(*_model_blocks(model, sampled))[2]


def max_distortion(model: CovarianceModel) -> float:
    """Distortion of the all-zero reproduction; beyond it the rate is zero."""
    return float(np.trace(model.sigma))


def _scalar(x):
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class Spectrum:
    """Estimation floor plus weighted spectrum: all a rate distortion curve depends on.

    ``lambdas`` holds the eigenvalues along its last axis (stored descending);
    leading axes stack independent spectra, such as one per ambiguity atom,
    with ``delta_min`` of the stack's shape.  ``rate`` and ``distortion``
    broadcast their argument against the stack, so one call evaluates a whole
    grid, and a scalar argument on a single spectrum returns a float.

    Both directions of the reverse waterfill (Cover & Thomas, Elements of
    Information Theory, section 10.3) are exact.  Forward, keeping the t
    smallest modes whole and levelling the rest gives the candidate level
    (budget - sum of the t smallest) / (k - t); inverse, levelling the j
    largest modes at rate R gives 2^((sum_{i<=j} log2 lambda_i - 2R) / j).
    Every candidate is at most the true level, and the candidate of the
    right prefix (the first whose level does not pass the next eigenvalue)
    equals it, so the level is the largest candidate.
    """

    delta_min: float | np.ndarray
    lambdas: np.ndarray

    def __post_init__(self) -> None:
        asc = np.sort(np.atleast_1d(np.asarray(self.lambdas, dtype=float)), axis=-1)
        # sorting puts the smallest entry first and any NaN last
        if not (asc.shape[-1] > 0 and (asc[..., 0] > 0.0).all() and (asc[..., -1] < math.inf).all()):
            raise EigenFailure(f"eigenvalues must be finite and positive, got {self.lambdas}")
        lam = asc[..., ::-1].copy()
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "delta_min", _scalar(np.asarray(self.delta_min, dtype=float)))
        object.__setattr__(self, "total", _scalar(lam.sum(axis=-1)))

    @cached_property
    def _forward(self):
        """Sum of the t smallest modes and the count of the rest, t = 0..k-1."""
        asc = self.lambdas[..., ::-1]
        kept = np.zeros(asc.shape)
        np.add.accumulate(asc[..., :-1], axis=-1, out=kept[..., 1:])
        return kept, np.arange(asc.shape[-1], 0, -1, dtype=float)

    @cached_property
    def _inverse(self):
        """Sum of log2 of the j largest modes and j, j = 1..k."""
        return np.cumsum(np.log2(self.lambdas), axis=-1), np.arange(1, self.lambdas.shape[-1] + 1, dtype=float)

    @property
    def delta_max(self):
        """Zero-rate distortion: the floor plus every mode left whole."""
        return self.delta_min + self.total

    def level(self, budget):
        """Water level alpha with sum_i min(alpha, lambda_i) = ``budget`` (> 0)."""
        kept, left = self._forward
        return _scalar(((np.asarray(budget, dtype=float)[..., None] - kept) / left).max(axis=-1))

    def rate(self, delta):
        """Bits needed for total distortion ``delta``; zero from delta_max on."""
        return self._rate_level(delta)[0]

    def _rate_level(self, delta):
        """(``rate(delta)``, the water level it is solved at), from one solve."""
        budget = np.asarray(delta, dtype=float) - self.delta_min
        if not np.isfinite(budget).all():
            raise BudgetOutOfRange(f"distortion must be finite, got {delta}")
        if (budget <= 0.0).any():
            raise InfeasibleDistortion(
                f"delta {np.min(delta)} is at or below the estimation floor {np.max(self.delta_min)};"
                " feasible range is open at the floor"
            )
        alpha = self.level(budget)
        bits = 0.5 * np.log2(np.maximum(self.lambdas / np.asarray(alpha)[..., None], 1.0)).sum(axis=-1)
        return _scalar(np.where(budget >= self.total * (1.0 - 1e-12), 0.0, bits)), alpha

    def distortion(self, rate_bits):
        """Total distortion at ``rate_bits``, the floor from RATE_CAP_BITS on; inverse of ``rate``."""
        r = np.asarray(rate_bits, dtype=float)
        if not np.isfinite(r).all() or (r < 0.0).any():
            raise BudgetOutOfRange(f"rate must be finite and nonnegative, got {rate_bits}")
        logs, count = self._inverse
        # capped, so that a huge rate cannot overflow: from the cap on, the floor is returned below
        alpha = np.exp2(((logs - 2.0 * np.minimum(r, RATE_CAP_BITS)[..., None]) / count).max(axis=-1))
        weighted = np.minimum(alpha[..., None], self.lambdas).sum(axis=-1)
        weighted = np.where(r == 0.0, self.total, np.where(r >= RATE_CAP_BITS, 0.0, weighted))
        return _scalar(self.delta_min + weighted)


def _lift(sigma_a: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Lift b = Sigma_A^{-1} cross: the unsampled components are estimated as b^T times the sampled block."""
    return np.linalg.solve(sigma_a, cross)


def _weight(b: np.ndarray) -> np.ndarray:
    """Weight matrix G = I + b b^T of a lift b, symmetrized; the coder's metric on the sampled block."""
    g = np.eye(b.shape[-2]) + b @ np.swapaxes(b, -1, -2)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def _spectrum(floor, s: np.ndarray) -> Spectrum:
    """Floor and eigenvalues of S = L^T G L, whose spectrum is that of G Sigma_A (Golub & Van Loan,
    Matrix Computations, section 8.7); the package's one eigendecomposition.  Leading axes stack
    blocks; a failed decomposition or a nonpositive eigenvalue raises EigenFailure.
    """
    try:
        lam = np.linalg.eigvalsh(s)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigendecomposition of the weighted form failed: {exc}") from exc
    return Spectrum(floor, lam)


def _block_spectrum(sigma_a: np.ndarray, cross: np.ndarray, trace_ac) -> Spectrum:
    """Floor and weighted spectrum of a sampled block, from S = L^T L + W W^T; arguments as in ``_reduce``."""
    l, w, floor = _reduce(sigma_a, cross, trace_ac)
    return _spectrum(floor, np.swapaxes(l, -1, -2) @ l + w @ np.swapaxes(w, -1, -2))


def srdf_spectrum(model: CovarianceModel, sampled) -> Spectrum:
    """Floor and weighted spectrum of a sampling set: its whole rate distortion curve."""
    return _block_spectrum(*_model_blocks(model, sampled))


@dataclass(frozen=True)
class WaterfillSolution:
    alpha: float
    rate_bits: float


def waterfill(lambdas, budget: float) -> WaterfillSolution:
    """Reverse waterfill: spend ``budget`` distortion across eigenvalue modes.

    The water level alpha solves sum_i min(alpha, lambda_i) = budget exactly
    (see ``Spectrum``); each mode contributes (1/2) log2(lambda_i / alpha)
    bits when lambda_i is above the level and nothing otherwise.
    """
    lams = np.atleast_1d(np.asarray(lambdas, dtype=float))
    spec = Spectrum(0.0, lams)
    if not budget > 0.0:
        raise BudgetOutOfRange(f"distortion budget must be positive, got {budget}")
    if budget > spec.total * (1.0 + 1e-9):
        raise BudgetOutOfRange(f"budget {budget} exceeds the spectrum total {spec.total}")
    alpha = float(spec.lambdas[0]) if budget >= spec.total else spec.level(budget)
    return WaterfillSolution(alpha=alpha, rate_bits=spec.rate(budget))


def waterfill_inverse(lambdas, rate_bits: float) -> float:
    """Weighted distortion sum_i min(alpha, lambda_i) left at ``rate_bits``; inverse of the waterfill rate."""
    return Spectrum(0.0, lambdas).distortion(rate_bits)


@dataclass(frozen=True)
class RateCurve:
    """Rates of one curve at the distortions asked for (a float for a float, an array of their shape
    for an array), and the feasible range: open at the floor ``delta_min``, rate 0 from ``delta_max`` on."""

    rate_bits: float | np.ndarray
    delta_min: float
    delta_max: float


def _rate_curve(rates, delta, delta_min: float, delta_max: float) -> RateCurve:
    """RateCurve of ``rates`` at ``delta``, zeroed from ``delta_max`` on: with modes small beside the floor,
    a spectrum's own delta_min + total can round short of it and leave a trace of rate there."""
    return RateCurve(_scalar(np.where(np.asarray(delta) >= delta_max, 0.0, rates)), delta_min, delta_max)


def srdf(model: CovarianceModel, sampled, delta) -> RateCurve:
    """Rate distortion function at distortion ``delta`` (a float or an array), sampling set fixed."""
    spec = srdf_spectrum(model, sampled)
    return _rate_curve(spec.rate(delta), delta, spec.delta_min, max_distortion(model))


def distortion_rate(model: CovarianceModel, sampled, rate_bits: float) -> float:
    """Distortion achieved at ``rate_bits``; inverse of srdf along the same curve."""
    return srdf_spectrum(model, sampled).distortion(rate_bits)


def correlation_model(sigmas, corr) -> CovarianceModel:
    """Build a covariance from per-component deviations and a correlation matrix."""
    s = np.asarray(sigmas, dtype=float)
    r = np.asarray(corr, dtype=float)
    if s.ndim != 1 or s.size == 0 or not np.all(s > 0.0):
        raise ValidationError(f"deviations must be a nonempty vector of positive numbers, got {s}")
    if r.shape != (s.size, s.size):
        raise DimensionMismatch(f"correlation must be {s.size}x{s.size}, got {r.shape}")
    if np.max(np.abs(np.diag(r) - 1.0)) > 1e-12:
        raise ValidationError("correlation matrix must have unit diagonal")
    return CovarianceModel(r * np.outer(s, s))


def _single_site(sigmas, corr, j):
    """(deviations, correlations, 0-based j) of a single-site closed form, once j labels one of its m components."""
    s = np.asarray(sigmas, dtype=float)
    r = np.asarray(corr, dtype=float)
    if s.ndim != 1 or r.shape != (s.size, s.size):
        raise DimensionMismatch(f"need m deviations and an m x m correlation, got shapes {s.shape} and {r.shape}")
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or not 1 <= j <= s.size:
        raise IndexOutOfRange(f"component label j={j!r} must be an integer within 1..{s.size}")
    return s, r, int(j) - 1


def single_site_min_distortion(sigmas, corr, j: int) -> float:
    """Estimation floor when only component j (1-based) is sampled."""
    s, r, jj = _single_site(sigmas, corr, j)
    others = [i for i in range(s.size) if i != jj]
    return float(sum(s[i] ** 2 * (1.0 - r[i, jj] ** 2) for i in others))


def single_site_srdf(sigmas, corr, j: int, delta: float) -> float:
    """Closed-form rate when one component is sampled.

    The weighted sampled variance collapses to a single mode
    sigma_j^2 + sum_{i != j} r_ij^2 sigma_i^2, so the curve is a plain log
    ratio over the distortion left above the floor.
    """
    s, r, jj = _single_site(sigmas, corr, j)
    dmin = single_site_min_distortion(sigmas, corr, j)
    if delta <= dmin:
        raise InfeasibleDistortion(f"delta {delta} is at or below the floor {dmin}")
    mode = float(s[jj] ** 2 + sum(s[i] ** 2 * r[i, jj] ** 2 for i in range(s.size) if i != jj))
    return max(0.0, 0.5 * math.log2(mode / (delta - dmin)))
