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


def best_fixed_set(model: CovarianceModel, k: int, objective="min_delta_min") -> SetSearchResult:
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

    subsets = list(combinations(range(1, model.m + 1), k))
    rows = []
    best_idx = 0
    best_val = math.inf
    for i, subset in enumerate(subsets):
        bp = partition(model, subset)
        if delta is None:
            val = min_distortion(bp)
            rows.append(SubsetRow(indices=subset, delta_min=val, rate_bits=None))
        else:
            spec = srdf_spectrum(bp)
            val = math.inf if delta <= spec.delta_min else spec.rate(delta)
            rows.append(SubsetRow(indices=subset, delta_min=spec.delta_min, rate_bits=val))
        if val < best_val:
            best_idx, best_val = i, val
    return SetSearchResult(
        best=SamplingSet(subsets[best_idx]),
        value=best_val,
        objective=obj_name,
        rows=tuple(rows),
    )
