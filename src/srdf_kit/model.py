"""Covariance models and sampling-subset bookkeeping.

Component labels are 1-based at the API surface (components are numbered
1..m everywhere a user sees them); all array indexing below converts to
0-based once, at construction time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IndexOutOfRange,
    NotPositiveDefinite,
    NotSquare,
    NotSymmetric,
)

SYM_TOL = 1e-9      # relative to the largest absolute entry
PD_TOL = 1e-12      # scaled by trace(sigma)/m before use


def validate_covariance(raw: np.ndarray) -> np.ndarray:
    """Check that ``raw`` is a symmetric positive definite matrix.

    Symmetry is judged relative to the largest absolute entry, then the
    matrix is symmetrized exactly so downstream algebra sees 0 skew.
    Positive definiteness requires every Cholesky pivot to clear a floor
    scaled to the mean variance.

    Returns the symmetrized copy.
    """
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


@dataclass(frozen=True)
class CovarianceModel:
    """A zero-mean jointly Gaussian source on components 1..m."""

    sigma: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", validate_covariance(self.sigma))
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
            object.__setattr__(self, "indices", tuple(operator.index(i) for i in self.indices))
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
        """0-based indices of the unsampled components, ascending."""
        mask = np.ones(m, dtype=bool)
        mask[self.zero_based()] = False
        return np.flatnonzero(mask)


def as_sampling_set(spec) -> SamplingSet:
    return spec if isinstance(spec, SamplingSet) else SamplingSet(spec)


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
    if sampled.indices[-1] > model.m:
        raise IndexOutOfRange(
            f"sampling set {sampled.indices} exceeds model dimension m={model.m}"
        )
    a = sampled.zero_based()
    ac = sampled.complement(model.m)
    return BlockPartition(
        sigma_a=model.sigma[np.ix_(a, a)],
        sigma_a_ac=model.sigma[np.ix_(a, ac)],
        sigma_ac=model.sigma[np.ix_(ac, ac)],
        sampled=sampled,
    )

