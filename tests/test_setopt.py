import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

import srdf_kit.setopt
from srdf_kit import (
    CovarianceModel,
    FieldModel,
    GaussMarkovKernel,
    IndexOutOfRange,
    TooManySubsets,
    ValidationError,
    best_fixed_set,
    min_distortion,
    optimize_placement,
    partition,
    srdf,
)

from conftest import random_model

# frozen instance where the two objectives pick different subsets
CROSSOVER_SIGMA = np.array(
    [
        [2.0696282922790417, -2.2720198947190275, -2.821192901708262, -0.835660633798673],
        [-2.2720198947190275, 4.34352149378055, 3.9001218121893246, 1.569748180725658],
        [-2.821192901708262, 3.9001218121893246, 6.283867009197675, 0.6364154270980816],
        [-0.835660633798673, 1.569748180725658, 0.6364154270980816, 2.1545274609676426],
    ]
)
CROSSOVER_DELTA = 3.472607


class TestBestFixedSet:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_manual_enumeration_floor(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = int(rng.integers(2, 6))
        model = random_model(rng, m)
        k = int(rng.integers(1, m + 1))
        res = best_fixed_set(model, k, "min_delta_min")
        floors = {
            s: min_distortion(partition(model, s)) for s in combinations(range(1, m + 1), k)
        }
        best = min(floors, key=lambda s: (floors[s], s))
        assert res.best.indices == best
        assert res.value == pytest.approx(floors[best])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_manual_enumeration_rate(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = int(rng.integers(3, 6))
        model = random_model(rng, m)
        k = int(rng.integers(1, m))
        base = best_fixed_set(model, k, "min_delta_min").value
        dmax = float(np.trace(model.sigma))
        delta = base + 0.3 * (dmax - base)
        res = best_fixed_set(model, k, ("min_rate_at", delta))
        rates = {}
        for s in combinations(range(1, m + 1), k):
            try:
                rates[s] = srdf(model, s, delta).rate_bits
            except Exception:
                rates[s] = math.inf
        best = min(rates, key=lambda s: (rates[s], s))
        assert res.best.indices == best
        assert res.value == pytest.approx(rates[best], abs=1e-10)

    def test_objectives_can_disagree(self):
        model = CovarianceModel(CROSSOVER_SIGMA)
        floor = best_fixed_set(model, 2, "min_delta_min")
        rate = best_fixed_set(model, 2, ("min_rate_at", CROSSOVER_DELTA))
        assert floor.best.indices == (3, 4)
        assert rate.best.indices == (2, 3)
        assert floor.best.indices != rate.best.indices

    def test_rows_cover_all_subsets_in_order(self):
        model = CovarianceModel(np.eye(4))
        res = best_fixed_set(model, 2, "min_delta_min")
        got = [tuple(s) for s in res.subsets.tolist()]
        assert got == list(combinations(range(1, 5), 2))

    def test_tie_break_lexicographic(self):
        model = CovarianceModel(np.eye(3))
        res = best_fixed_set(model, 1, "min_delta_min")
        assert res.best.indices == (1,)

    @pytest.mark.parametrize("objective", ["min_delta_min", ("min_rate_at", 10.0)])
    def test_stacks_of_any_size_agree(self, monkeypatch, objective):
        # 20 subsets in stacks of 3: six full stacks and a partial one; at
        # delta 10 half of them are infeasible
        model = random_model(np.random.default_rng(7), 6)
        whole = best_fixed_set(model, 3, objective)
        monkeypatch.setattr(srdf_kit.setopt, "SUBSET_CHUNK", 3)
        stacked = best_fixed_set(model, 3, objective)
        for field in dataclasses.fields(whole):
            assert np.array_equal(getattr(stacked, field.name), getattr(whole, field.name)), field.name

    def test_tie_across_stacks_keeps_first(self, monkeypatch):
        monkeypatch.setattr(srdf_kit.setopt, "SUBSET_CHUNK", 2)
        res = best_fixed_set(CovarianceModel(np.eye(5)), 2, "min_delta_min")
        assert res.best.indices == (1, 2)
        assert len(set(res.delta_min.tolist())) == 1

    def test_all_infeasible_keeps_first(self):
        model = CovarianceModel(np.eye(3))
        res = best_fixed_set(model, 1, ("min_rate_at", 0.5))
        assert res.best.indices == (1,)
        assert math.isinf(res.value)
        assert all(math.isinf(r) for r in res.rate_bits.tolist())

    def test_k_out_of_range(self):
        model = CovarianceModel(np.eye(3))
        with pytest.raises(IndexOutOfRange):
            best_fixed_set(model, 0, "min_delta_min")
        with pytest.raises(IndexOutOfRange):
            best_fixed_set(model, 4, "min_delta_min")

    def test_subset_cap(self):
        model = CovarianceModel(np.eye(30))
        with pytest.raises(TooManySubsets):
            best_fixed_set(model, 15, "min_delta_min")

    def test_objective_label(self):
        model = CovarianceModel(np.eye(3))
        res = best_fixed_set(model, 1, ("min_rate_at", 2.5))
        assert res.objective == "min_rate_at:2.5"


SEARCHES = {
    "subset": lambda objective: best_fixed_set(CovarianceModel(np.eye(3)), 1, objective),
    "placement": lambda objective: optimize_placement(FieldModel(GaussMarkovKernel(0.5)), 2, objective, restarts=1),
}


class TestObjectiveFormat:
    @pytest.mark.parametrize("search", SEARCHES.values(), ids=SEARCHES.keys())
    @pytest.mark.parametrize("objective", [None, "min_rate", ("min_rate_at",), ("max_rate_at", 2.5), ["min_rate_at", 2.5]])
    def test_unknown_objective_raises_one_error_from_every_search(self, search, objective):
        with pytest.raises(ValidationError, match="unknown objective") as info:
            search(objective)
        assert type(info.value) is ValidationError

    @pytest.mark.parametrize("search", SEARCHES.values(), ids=SEARCHES.keys())
    @pytest.mark.parametrize(
        "objective,label",
        [("min_delta_min", "min_delta_min"), (("min_rate_at", 2.5), "min_rate_at:2.5"),
         (("min_rate_at", 1 / 3), "min_rate_at:0.333333333")],
    )
    def test_every_search_labels_an_objective_alike(self, search, objective, label):
        assert search(objective).objective == label
