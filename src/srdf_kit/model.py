"""Covariance models and sampling-subset bookkeeping.

Component labels are 1-based at the API surface (components are numbered
1..m everywhere a user sees them); all array indexing below converts to
0-based once, at construction time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IndexOutOfRange,
    NotPositiveDefinite,
    NotSquare,
    NotSymmetric,
    ValidationError,
)

SYM_TOL = 1e-9      # relative to the largest absolute entry
PD_TOL = 1e-12      # scaled by trace(sigma)/m before use


def validate_covariance(raw: np.ndarray) -> np.ndarray:
    """Check that ``raw`` is a symmetric positive definite matrix, or a stack of them.

    Leading axes stack independent m x m matrices, each judged as if alone.
    Symmetry is judged relative to the matrix's largest absolute entry, then
    the matrix is symmetrized exactly so downstream algebra sees 0 skew.
    Positive definiteness requires every Cholesky pivot to clear a floor
    scaled to the mean variance.  Each check runs once over the whole stack,
    with the operations a single matrix gets, so a matrix passes in a stack
    exactly when it passes alone.  If any fails, the first failing one, in C
    order, raises the error it raises alone.

    Returns the symmetrized copy.
    """
    return _validated_factor(raw)[0]


def _validated_factor(raw) -> tuple[np.ndarray, np.ndarray]:
    """(symmetrized copy, Cholesky factor) of ``raw`` once it passes ``validate_covariance``'s checks.

    The pivot check needs the factor anyway, so a caller that solves with the
    matrix takes it from here instead of factoring again.  A lone matrix first
    runs the same checks, in the same order and with the same floats, without
    the stack bookkeeping; one that fails any of them goes on to the stack
    path, which raises its error.
    """
    sigma = np.asarray(raw, dtype=float)
    if sigma.ndim == 2 and sigma.shape[0] == sigma.shape[1] > 0:
        scale = np.abs(sigma).max()
        if 0.0 < scale < math.inf:   # a NaN or infinite entry makes the max NaN or inf
            sigma_t = sigma.T
            if np.abs(sigma - sigma_t).max() <= SYM_TOL * scale:
                sym = 0.5 * (sigma + sigma_t)
                try:
                    chol = np.linalg.cholesky(sym)
                except np.linalg.LinAlgError:
                    pass
                else:
                    if (chol.diagonal() ** 2).min() > PD_TOL * sym.trace() / sigma.shape[0]:
                        return sym, chol
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2]:
        raise NotSquare(f"covariance must be square, got shape {sigma.shape[-2:]}")
    m = sigma.shape[-1]
    if m == 0:
        raise NotSquare("covariance must be nonempty")
    sigma_t = np.swapaxes(sigma, -1, -2)
    with np.errstate(invalid="ignore"):   # a non-finite matrix fails its first check below
        nonfinite = ~np.isfinite(sigma).all(axis=(-2, -1))
        scale = np.max(np.abs(sigma), axis=(-2, -1))
        skew = np.max(np.abs(sigma - sigma_t), axis=(-2, -1))
        asymmetric = skew > SYM_TOL * scale
        sigma = 0.5 * (sigma + sigma_t)
        pivot_floor = PD_TOL * np.trace(sigma, axis1=-2, axis2=-1) / m
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        pivots = None   # some matrix has no factor; each is factored alone below
    else:
        pivots = np.min(np.diagonal(chol, axis1=-2, axis2=-1) ** 2, axis=-1)
        if not (nonfinite | (scale == 0.0) | asymmetric | (pivots <= pivot_floor)).any():
            return sigma, chol
    for i in np.ndindex(nonfinite.shape):
        if nonfinite[i]:
            raise NotPositiveDefinite("covariance has a non-finite entry")
        if scale[i] == 0.0:
            raise NotPositiveDefinite("covariance is identically zero")
        if asymmetric[i]:
            raise NotSymmetric(f"max |sigma - sigma^T| = {skew[i]:.3e} exceeds {SYM_TOL:.0e} * max|entry|")
        if pivots is None:
            try:
                pivot = np.min(np.diag(np.linalg.cholesky(sigma[i])) ** 2)
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(f"Cholesky failed: {exc}") from exc
        else:
            pivot = pivots[i]
        if pivot <= pivot_floor[i]:
            raise NotPositiveDefinite(
                f"smallest Cholesky pivot {pivot:.3e} is below the floor {pivot_floor[i]:.3e}"
            )
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
        try:
            labels = tuple(self.indices)
            if any(isinstance(i, bool) for i in labels):   # operator.index passes true/false as 1/0
                raise TypeError("true/false is not a component label")
            object.__setattr__(self, "indices", tuple(operator.index(i) for i in labels))
        except TypeError as exc:
            raise IndexOutOfRange(f"component labels must be integers, got {self.indices}") from exc
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
    ``("min_rate_at", delta)`` for the lowest rate at distortion delta.
    """
    if objective == "min_delta_min":
        return "min_delta_min", None
    if isinstance(objective, tuple) and len(objective) == 2 and objective[0] == "min_rate_at":
        delta = float(objective[1])
        return f"min_rate_at:{delta:.9g}", delta
    raise ValidationError(f"unknown objective {objective!r}")


@dataclass(frozen=True)
class BlockPartition:
    """Covariance blocks of a model split along a sampling set.

    sigma_a is k x k, sigma_a_ac is k x (m-k) with rows indexed by the
    sampled components, sigma_ac is (m-k) x (m-k).
    """

    sigma_a: np.ndarray
    sigma_a_ac: np.ndarray
    sigma_ac: np.ndarray
    sampled: SamplingSet = field(repr=False)

    @property
    def k(self) -> int:
        return self.sigma_a.shape[0]

    @property
    def m(self) -> int:
        return self.sigma_a.shape[0] + self.sigma_ac.shape[0]


def partition(model: CovarianceModel, sampled) -> BlockPartition:
    """Gather the sampled/unsampled covariance blocks of ``model``.

    Reassembling the blocks in (A, A^c) order reproduces the original
    matrix entries exactly; the gather never rounds.
    """
    sampled = as_sampling_set(sampled)
    ac = sampled.complement(model.m)
    a = sampled.zero_based()
    return BlockPartition(
        sigma_a=model.sigma[np.ix_(a, a)],
        sigma_a_ac=model.sigma[np.ix_(a, ac)],
        sigma_ac=model.sigma[np.ix_(ac, ac)],
        sampled=sampled,
    )

