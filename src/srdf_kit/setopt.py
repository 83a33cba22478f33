"""Exhaustive search for the best fixed sampling subset of a given size."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import IndexOutOfRange, TooManySubsets, ValidationError
from .model import CovarianceModel, SamplingSet, partition
from .srdf import min_distortion, srdf_spectrum

SUBSET_CAP = 1_000_000


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


def best_fixed_set(model: CovarianceModel, k: int, objective="min_delta_min", threads: int = 1) -> SetSearchResult:
    """Enumerate all size-k subsets and keep the best under the objective.

    Objectives: ``"min_delta_min"`` picks the lowest estimation floor;
    ``("min_rate_at", delta)`` picks the lowest rate at the given distortion,
    treating infeasible subsets as infinitely expensive.  Ties keep the
    lexicographically first subset, which is the enumeration order.
    """
    if not 1 <= k <= model.m:
        raise IndexOutOfRange(f"subset size k={k} must be within 1..{model.m}")
    count = math.comb(model.m, k)
    if count > SUBSET_CAP:
        raise TooManySubsets(f"C({model.m},{k}) = {count} exceeds the cap {SUBSET_CAP}")
    if objective == "min_delta_min":
        obj_name = "min_delta_min"
        delta = None
    elif isinstance(objective, tuple) and len(objective) == 2 and objective[0] == "min_rate_at":
        obj_name = f"min_rate_at:{float(objective[1]):.9g}"
        delta = float(objective[1])
    else:
        raise ValidationError(f"unknown objective {objective!r}")

    def evaluate(subset):
        bp = partition(model, subset)
        if delta is None:
            dmin = min_distortion(bp)
            return SubsetRow(indices=subset, delta_min=dmin, rate_bits=None), dmin
        spec = srdf_spectrum(bp)
        rate = math.inf if delta <= spec.delta_min else spec.rate(delta)
        return SubsetRow(indices=subset, delta_min=spec.delta_min, rate_bits=rate), rate

    subsets = list(combinations(range(1, model.m + 1), k))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(evaluate, subsets))
    else:
        outcomes = [evaluate(s) for s in subsets]

    rows = []
    best_idx = 0
    best_val = math.inf
    for i, (row, val) in enumerate(outcomes):
        rows.append(row)
        if val < best_val:
            best_idx, best_val = i, val
    return SetSearchResult(
        best=SamplingSet(subsets[best_idx]),
        value=best_val,
        objective=obj_name,
        rows=tuple(rows),
    )
