"""Exhaustive search for the best fixed sampling subset of a given size."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import IndexOutOfRange, TooManySubsets
from .model import CovarianceModel, SamplingSet, _objective
from .srdf import Spectrum, _block_spectrum, _reduce

SUBSET_CAP = 1_000_000
SUBSET_CHUNK = 512    # subsets gathered and solved as one stack; bounds the stack's memory


@dataclass(frozen=True)
class SubsetRow:
    indices: tuple[int, ...]
    delta_min: float
    rate_bits: float | None   # None unless the objective evaluates a rate


@dataclass(frozen=True)
class SetSearchResult:
    best: SamplingSet
    value: float
    objective: str
    rows: tuple[SubsetRow, ...]


def _stacked_blocks(sigma: np.ndarray, a: np.ndarray):
    """(Sigma_A, cross, unsampled variance) of every 0-based subset row of ``a``, stacked."""
    n, k = a.shape
    unsampled = np.ones((n, len(sigma)), dtype=bool)
    unsampled[np.arange(n)[:, None], a] = False
    ac = np.nonzero(unsampled)[1].reshape(n, len(sigma) - k)
    sampled = a[:, :, None]
    return sigma[sampled, a[:, None, :]], sigma[sampled, ac[:, None, :]], np.diag(sigma)[ac].sum(axis=-1)


def best_fixed_set(model: CovarianceModel, k: int, objective="min_delta_min") -> SetSearchResult:
    """Enumerate all size-k subsets and keep the best under the objective.

    Objectives: ``"min_delta_min"`` picks the lowest estimation floor;
    ``("min_rate_at", delta)`` picks the lowest rate at the given distortion,
    treating infeasible subsets as infinitely expensive.  Ties keep the
    lexicographically first subset, which is the enumeration order.  The
    subsets are evaluated in stacks of SUBSET_CHUNK: one gather of their
    blocks, one stacked Cholesky reduction and, for rates, one stacked
    eigendecomposition.
    """
    if not 1 <= k <= model.m:
        raise IndexOutOfRange(f"subset size k={k} must be within 1..{model.m}")
    count = math.comb(model.m, k)
    if count > SUBSET_CAP:
        raise TooManySubsets(f"C({model.m},{k}) = {count} exceeds the cap {SUBSET_CAP}")
    obj_name, delta = _objective(objective)

    enumeration = combinations(range(1, model.m + 1), k)
    rows, values = [], []
    while chunk := list(islice(enumeration, SUBSET_CHUNK)):
        blocks = _stacked_blocks(model.sigma, np.array(chunk) - 1)
        if delta is None:
            vals = floors = _reduce(*blocks)[2]
            rates = [None] * len(chunk)
        else:
            spec = _block_spectrum(*blocks)
            floors = spec.delta_min
            vals = np.full(len(chunk), math.inf)
            feasible = ~(delta <= floors)   # a NaN delta goes on to rate's finiteness check
            if feasible.any():
                vals[feasible] = Spectrum(floors[feasible], spec.lambdas[feasible]).rate(delta)
            rates = vals.tolist()
        rows += map(SubsetRow, chunk, floors.tolist(), rates)
        values.append(vals)
    values = np.concatenate(values)
    best_idx = int(np.argmin(values))
    return SetSearchResult(
        best=SamplingSet(rows[best_idx].indices),
        value=float(values[best_idx]),
        objective=obj_name,
        rows=tuple(rows),
    )
