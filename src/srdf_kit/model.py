"""Covariance models and sampling-subset bookkeeping.

Which covariances are valid, and the error an invalid one raises, is
decided by one checker, ``_checked``.

Component labels are 1-based at the API surface (components are numbered
1..m everywhere a user sees them); all array indexing below converts to
0-based once, at construction time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetOutOfRange,
    IndexOutOfRange,
    NotPositiveDefinite,
    NotSquare,
    NotSymmetric,
    ValidationError,
)

SYM_TOL = 1e-9      # relative to the largest absolute entry
PD_TOL = 1e-12      # scaled by trace(sigma)/m before use
FLOAT_MAX = float(np.finfo(float).max)


def validate_covariance(raw: np.ndarray) -> np.ndarray:
    """Check that ``raw`` is a symmetric positive definite matrix, or a stack of them.

    Leading axes stack independent m x m matrices, each judged as if alone.
    Symmetry is judged relative to the matrix's largest absolute entry, then
    the matrix is symmetrized exactly so downstream algebra sees 0 skew.
    That entry must stay at most FLOAT_MAX / (2 m), so that neither the
    symmetrization nor the trace overflows, whatever their rounding.
    Positive definiteness requires every Cholesky pivot to clear a floor
    scaled to the mean variance.  ``_checked`` runs these checks and raises
    their errors; if a matrix of a stack fails, the first failing one, in C
    order, raises the error it raises alone.

    Returns the symmetrized copy.
    """
    return _validated_factor(raw)[0]


def _checked(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(symmetrized copy, Cholesky factor) of one m x m matrix ``sigma``, or the error of the first
    check it fails: non-finite, zero, overflow, asymmetric, Cholesky, pivot."""
    m = sigma.shape[0]
    scale = np.abs(sigma).max()   # NaN or inf wherever an entry is
    if not math.isfinite(scale):
        raise NotPositiveDefinite("covariance has a non-finite entry")
    if scale == 0.0:
        raise NotPositiveDefinite("covariance is identically zero")
    limit = FLOAT_MAX / (2 * m)
    if scale > limit:
        raise ValidationError(
            f"max |entry| = {scale:.3e} exceeds {limit:.3e}:"
            f" symmetrizing or tracing a {m}x{m} covariance overflows"
        )
    sigma_t = sigma.T
    skew = np.abs(sigma - sigma_t).max()
    if skew > SYM_TOL * scale:
        raise NotSymmetric(f"max |sigma - sigma^T| = {skew:.3e} exceeds {SYM_TOL:.0e} * max|entry|")
    sym = 0.5 * (sigma + sigma_t)
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky failed: {exc}") from exc
    pivot = (chol.diagonal() ** 2).min()
    pivot_floor = PD_TOL * sym.trace() / m
    if pivot <= pivot_floor:
        raise NotPositiveDefinite(f"smallest Cholesky pivot {pivot:.3e} is below the floor {pivot_floor:.3e}")
    return sym, chol


def _validated_factor(raw) -> tuple[np.ndarray, np.ndarray]:
    """(symmetrized copy, Cholesky factor) of ``raw`` once it passes ``validate_covariance``'s checks.

    The pivot check needs the factor anyway, so a caller that solves with the
    matrix takes it from here instead of factoring again.  A stack runs each
    check once over all its matrices, with the operations ``_checked`` gives
    one, and hands them to ``_checked`` in C order only where some fails.
    """
    sigma = np.asarray(raw, dtype=float)
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2]:
        raise NotSquare(f"covariance must be square, got shape {sigma.shape[-2:]}")
    m = sigma.shape[-1]
    if m == 0:
        raise NotSquare("covariance must be nonempty")
    if sigma.ndim == 2:
        return _checked(sigma)
    sigma_t = np.swapaxes(sigma, -1, -2)
    with np.errstate(invalid="ignore", over="ignore"):   # a non-finite or oversized matrix fails first
        scale = np.max(np.abs(sigma), axis=(-2, -1))
        bad = ~np.isfinite(sigma).all(axis=(-2, -1)) | (scale == 0.0) | (scale > FLOAT_MAX / (2 * m))
        bad |= np.max(np.abs(sigma - sigma_t), axis=(-2, -1)) > SYM_TOL * scale
        sym = 0.5 * (sigma + sigma_t)
        pivot_floor = PD_TOL * np.trace(sym, axis1=-2, axis2=-1) / m
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        pass   # some matrix has no factor
    else:
        if not (bad | (np.min(np.diagonal(chol, axis1=-2, axis2=-1) ** 2, axis=-1) <= pivot_floor)).any():
            return sym, chol
    for i in np.ndindex(sigma.shape[:-2]):
        _checked(sigma[i])
    raise AssertionError("unreachable: some matrix failed a check")


@dataclass(frozen=True)
class CovarianceModel:
    """A zero-mean jointly Gaussian source on components 1..m."""

    sigma: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2:   # validate_covariance would take a stack of matrices
            raise NotSquare(f"covariance must be square, got shape {sigma.shape}")
        object.__setattr__(self, "sigma", validate_covariance(sigma))
        self.sigma.setflags(write=False)

    @property
    def m(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class SamplingSet:
    """A fixed subset of sampled components, 1-based and strictly increasing."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        message = f"component labels must be integers, got {self.indices}"
        try:
            labels = tuple(self.indices)
            indices = tuple(operator.index(i) for i in labels)
        except TypeError as exc:
            raise IndexOutOfRange(message) from exc
        if any(isinstance(i, bool) for i in labels):   # operator.index passes true/false as 1/0
            raise IndexOutOfRange(message)
        object.__setattr__(self, "indices", indices)
        if len(self.indices) == 0:
            raise IndexOutOfRange("sampling set must be nonempty")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise IndexOutOfRange(f"sampling set must be strictly increasing, got {self.indices}")
        if self.indices[0] < 1:
            raise IndexOutOfRange(f"component labels are 1-based, got {self.indices}")

    @property
    def k(self) -> int:
        return len(self.indices)

    def zero_based(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=int) - 1

    def complement(self, m: int) -> np.ndarray:
        """0-based indices of the unsampled components among 1..m, ascending; a label above m raises."""
        if self.indices[-1] > m:
            raise IndexOutOfRange(f"sampling set {self.indices} exceeds model dimension m={m}")
        mask = np.ones(m, dtype=bool)
        mask[self.zero_based()] = False
        return np.flatnonzero(mask)


def as_sampling_set(spec) -> SamplingSet:
    return spec if isinstance(spec, SamplingSet) else SamplingSet(spec)


def _objective(objective) -> tuple[str, float | None]:
    """(reported name, target distortion or None) of a sampling-set search objective.

    ``"min_delta_min"`` asks for the lowest estimation floor and
    ``("min_rate_at", delta)`` for the lowest rate at distortion delta, which must be finite.
    """
    if objective == "min_delta_min":
        return "min_delta_min", None
    if isinstance(objective, tuple) and len(objective) == 2 and objective[0] == "min_rate_at":
        try:
            delta = float(objective[1])
        except (TypeError, ValueError) as exc:
            raise BudgetOutOfRange(f"distortion must be a number, got {objective[1]!r}") from exc
        if not math.isfinite(delta):
            raise BudgetOutOfRange(f"distortion must be finite, got {delta}")
        return f"min_rate_at:{delta:.9g}", delta
    raise ValidationError(f"unknown objective {objective!r}")


def _blocks(sigma: np.ndarray, a: np.ndarray):
    """(Sigma_A, cross, unsampled variance) of ``sigma`` split along the 0-based sampled rows ``a``.

    ``sigma`` (..., m, m) may stack atoms and ``a`` (..., k) may stack
    subsets, each row of ``a`` strictly increasing and below m: Sigma_A is
    (..., k, k), the cross block to the unsampled components, in ascending
    order, (..., k, m - k) and the variance tr Sigma_AcAc of the leading
    shape.  The gather copies entries, so it never rounds, and the variance
    sums the unsampled diagonal entries in ascending order.
    """
    m = sigma.shape[-1]
    unsampled = np.ones(a.shape[:-1] + (m,), dtype=bool)
    np.put_along_axis(unsampled, a, False, axis=-1)
    ac = np.nonzero(unsampled)[-1].reshape(a.shape[:-1] + (m - a.shape[-1],))
    rows = a[..., :, None]
    variance = np.diagonal(sigma, axis1=-2, axis2=-1)[..., ac].sum(axis=-1)
    return sigma[..., rows, a[..., None, :]], sigma[..., rows, ac[..., None, :]], variance
