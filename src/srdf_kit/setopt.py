"""Exhaustive search for the best fixed sampling subset of a given size.

The subset table stays in numpy arrays from enumeration to result: one
``(count, k)`` index array in lexicographic order, solved in stacks of
SUBSET_CHUNK rows into preallocated floor and value arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import IndexOutOfRange, TooManySubsets
from .model import CovarianceModel, SamplingSet, _blocks, _objective
from .srdf import Spectrum, _block_spectrum, _reduce

SUBSET_CAP = 1_000_000
SUBSET_CHUNK = 512    # subsets gathered and solved as one stack; bounds the stack's memory


@dataclass(frozen=True)
class SetSearchResult:
    """The best subset and the whole table, one row per subset in enumeration order.

    ``subsets`` is the (count, k) array of 1-based labels; ``delta_min`` and
    ``rate_bits`` are its (count,) floors and rates, an infeasible rate being
    ``inf``.  ``rate_bits`` is None unless the objective evaluates a rate.
    Compare two results field by field: ``==`` on arrays has no single truth.
    """

    best: SamplingSet
    value: float
    objective: str
    subsets: np.ndarray
    delta_min: np.ndarray
    rate_bits: np.ndarray | None


def best_fixed_set(model: CovarianceModel, k: int, objective="min_delta_min") -> SetSearchResult:
    """Enumerate all size-k subsets and keep the best under the objective.

    Objectives: ``"min_delta_min"`` picks the lowest estimation floor;
    ``("min_rate_at", delta)`` picks the lowest rate at the given distortion,
    treating infeasible subsets as infinitely expensive.  Ties keep the
    lexicographically first subset, which is the enumeration order.  The
    subsets are enumerated once into one index array and evaluated in stacks
    of SUBSET_CHUNK rows: one gather of their blocks, one stacked Cholesky
    reduction and, for rates, one stacked eigendecomposition, written into
    the result's ``delta_min`` and ``rate_bits`` arrays.  No object is built
    per subset.
    """
    if not 1 <= k <= model.m:
        raise IndexOutOfRange(f"subset size k={k} must be within 1..{model.m}")
    count = math.comb(model.m, k)
    if count > SUBSET_CAP:
        raise TooManySubsets(f"C({model.m},{k}) = {count} exceeds the cap {SUBSET_CAP}")
    obj_name, delta = _objective(objective)

    subsets = np.fromiter(chain.from_iterable(combinations(range(model.m), k)), dtype=np.intp, count=count * k)
    subsets = subsets.reshape(count, k)
    floors = np.empty(count)
    values = floors if delta is None else np.empty(count)
    for lo in range(0, count, SUBSET_CHUNK):
        part = slice(lo, lo + SUBSET_CHUNK)
        blocks = _blocks(model.sigma, subsets[part])
        if delta is None:
            floors[part] = _reduce(*blocks)[2]
            continue
        spec = _block_spectrum(*blocks)
        floors[part] = spec.delta_min
        values[part] = math.inf
        feasible = delta > spec.delta_min
        if feasible.any():
            values[part][feasible] = Spectrum(spec.delta_min[feasible], spec.lambdas[feasible]).rate(delta)
    subsets += 1
    best_idx = int(np.argmin(values))
    return SetSearchResult(
        best=SamplingSet(subsets[best_idx].tolist()),
        value=float(values[best_idx]),
        objective=obj_name,
        subsets=subsets,
        delta_min=floors,
        rate_bits=None if delta is None else values,
    )
