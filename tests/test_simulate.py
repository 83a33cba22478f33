import dataclasses
import math
import os
import sys
import threading
import tracemalloc
import warnings
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest

from srdf_kit import (
    CodebookTooLarge,
    CovarianceModel,
    DimensionMismatch,
    EigenFailure,
    GridTooLarge,
    SimConfig,
    ValidationError,
    affine_family,
    as_sampling_set,
    build_code,
    fixed_var_corr_family,
    max_distortion,
    min_distortion,
    ml_cov_estimate,
    project_family,
    sample_gmms,
    two_step_code,
    universal_two_step,
)
from srdf_kit import simulate
from srdf_kit.simulate import (
    _STREAM_TRIAL,
    ASSIGN_TILE_FLOATS,
    DRAW_CAP,
    TRIAL_CHUNK_FLOATS,
    TrainedCode,
    _assign,
    _rng,
    _scalar_levels,
    _trial_chunk,
    _trial_keys,
    _usim_trials,
)
from srdf_kit.model import _blocks
from srdf_kit.srdf import _lift, _weight

from conftest import multi_atom_family, random_model, reference_assign, reference_usim_trials

NORM = NormalDist()


def lloyd_max_mse(levels, iters=300):
    """Optimal scalar quantizer MSE for N(0,1) by fixed-point iteration."""
    ppf, cdf, pdf = (np.vectorize(f) for f in (NORM.inv_cdf, NORM.cdf, NORM.pdf))
    c = ppf((np.arange(levels) + 0.5) / levels)
    for _ in range(iters):
        t = np.concatenate(([-np.inf], 0.5 * (c[:-1] + c[1:]), [np.inf]))
        prob = cdf(t[1:]) - cdf(t[:-1])
        c = (pdf(t[:-1]) - pdf(t[1:])) / prob
    return 1.0 - float(np.sum(prob * c ** 2))


class TestConfig:
    def test_codeword_count_rounding(self):
        assert SimConfig(n=1, rate_bits=2.0).codeword_count() == 4
        assert SimConfig(n=2, rate_bits=2.5).codeword_count() == 32
        assert SimConfig(n=1, rate_bits=0.0).codeword_count() == 1

    def test_train_blocks_floor(self):
        cfg = SimConfig(n=1, rate_bits=2.0)
        assert cfg.resolved_train_blocks() == 2000
        cfg = SimConfig(n=1, rate_bits=8.0)
        assert cfg.resolved_train_blocks() == 20 * 256
        with pytest.raises(ValidationError):
            SimConfig(n=1, rate_bits=8.0, train_blocks=100).resolved_train_blocks()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"rate_bits": -1.0},
            {"eval_blocks": 1},
            {"lbg_iters": 0},
            {"grid_delta": 0.0},
            {"est_length": 0},
            {"rate_bits": math.nan},
            {"rate_bits": math.inf},
            {"grid_delta": math.nan},
            {"n": math.nan},
            {"eval_blocks": math.inf},
            {"train_blocks": math.nan},
        ],
    )
    def test_field_validation(self, kwargs):
        with pytest.raises(ValidationError):
            SimConfig(**kwargs)

    def test_huge_integers_are_compared_by_value(self):
        # no float() of an integer beyond the float range: caps are met by value, a huge seed is a seed
        huge = 10 ** 400
        for n in (huge, DRAW_CAP + 1):
            with pytest.raises(GridTooLarge, match="block length"):
                SimConfig(n=n)
        assert SimConfig(n=DRAW_CAP, rate_bits=0.0).codeword_count() == 1
        with pytest.raises(CodebookTooLarge):
            SimConfig(n=DRAW_CAP, rate_bits=1e300).codeword_count()
        for name in ("train_blocks", "eval_blocks", "est_length", "lbg_iters", "seed"):
            assert getattr(SimConfig(**{name: huge}), name) == huge
        for name in ("rate_bits", "grid_delta"):
            with pytest.raises(ValidationError, match="finite"):
                SimConfig(**{name: huge})


class TestBuildingBlocks:
    def test_sample_covariance_converges(self):
        sig = np.array([[2.0, 0.8], [0.8, 1.0]])
        x = sample_gmms(CovarianceModel(sig), 4, 20000, seed=0)
        flat = x.transpose(1, 0, 2).reshape(2, -1)
        emp = flat @ flat.T / flat.shape[1]
        assert np.allclose(emp, sig, atol=0.05)

    def test_sampling_deterministic(self):
        model = CovarianceModel(np.eye(2))
        a = sample_gmms(model, 3, 10, seed=9)
        b = sample_gmms(model, 3, 10, seed=9)
        assert np.array_equal(a, b)
        c = sample_gmms(model, 3, 10, seed=10)
        assert not np.array_equal(a, c)

    def test_block_lift_coefficients(self):
        sig = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.3], [0.6, 0.3, 1.0]])
        lift = _lift(*_blocks(CovarianceModel(sig).sigma, np.array([0, 1]))[:2])
        y = np.array([2.0, -1.0])
        assert lift.T @ y == pytest.approx([0.6 * 2.0 + 0.3 * -1.0])

    def test_ml_cov_estimate(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 50000))
        est = ml_cov_estimate(x)
        assert np.allclose(est, np.eye(2), atol=0.05)
        # a stack, gathered as the trial loop gathers its sampled rows: each estimate is its block's, bit for bit
        stack = rng.standard_normal((5, 4, 64))[:, [0, 2, 3]]
        want = np.stack([ml_cov_estimate(block) for block in stack])
        assert ml_cov_estimate(stack).tobytes() == want.tobytes()
        assert ml_cov_estimate(stack.reshape(5, 1, 3, 64)).tobytes() == want.tobytes()
        with pytest.raises(DimensionMismatch):
            ml_cov_estimate(x[0])

    def test_no_slots_is_a_dimension_mismatch(self):
        # the estimate divided by zero slots: a warning and NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match="at least one slot"):
                ml_cov_estimate(np.zeros((3, 2, 0)))

    @pytest.mark.parametrize("n,j,lbg_iters", [(0, 2, 5), (1, 0, 5), (1, -2, 5), (1, 2, 0)])
    def test_a_size_below_one_is_a_validation_error(self, n, j, lbg_iters):
        # numpy's ValueError came out for n or j below 1, and lbg_iters = 0 gave an untrained code
        with pytest.raises(ValidationError, match="must be >= 1") as caught:
            build_code(np.eye(1), np.eye(1), n=n, j=j, train_blocks=400, lbg_iters=lbg_iters, seed=1)
        assert type(caught.value) is ValidationError

    def test_codewords_encode_to_themselves(self):
        g = np.array([[2.0, 0.4], [0.4, 1.0]])
        code = build_code(np.eye(2), g, n=2, j=8, train_blocks=400, lbg_iters=40, seed=1)
        idx, d2 = code.encode(code.codebook_blocks)
        assert idx.tolist() == list(range(8))
        assert np.max(d2) < 1e-12

    def test_codebook_cap(self):
        with pytest.raises(CodebookTooLarge):
            build_code(np.eye(1), np.eye(1), n=3, j=2 ** 24, train_blocks=10 ** 9, lbg_iters=1, seed=0)

    def test_huge_rate_is_refused_before_the_codebook_size_is_formed(self):
        # 2 ** (n * rate_bits) would be a 10^12-bit integer
        with pytest.raises(CodebookTooLarge):
            SimConfig(n=1, rate_bits=1.0e12).codeword_count()
        assert SimConfig(n=2, rate_bits=9.0).codeword_count() == simulate.CODEBOOK_CAP
        with pytest.raises(CodebookTooLarge):
            SimConfig(n=2, rate_bits=9.01).resolved_train_blocks()


class TestNearestCodeword:
    # rows of 1-4 dimensions; J = 200 and 300 lie above 192 and are not multiples of 8
    @pytest.mark.parametrize("n, k, j", [(1, 1, 512), (2, 1, 256), (2, 1, 200), (3, 1, 300), (2, 2, 64)])
    def test_training_follows_the_full_scan(self, monkeypatch, n, k, j):
        # a scalar code takes the bracket search, any other the tiled scan; the Lloyd loop hands
        # _assign its rows' norms, formed once per run
        sigma_a = np.array([[1.7]]) if k == 1 else np.array([[1.7, 0.4], [0.4, 0.9]])
        args = (sigma_a, np.eye(k), n, j, 20 * j, 60, 5)
        code = build_code(*args)
        assert (_scalar_levels(code.codebook_whitened, code.codebook_whitened) is None) == (n * k > 1)
        # the reference scans with no row norms handed in
        monkeypatch.setattr(simulate, "_assign", lambda x, cb, *hoisted: reference_assign(x, cb))
        ref = build_code(*args)
        assert code.codebook_whitened.tobytes() == ref.codebook_whitened.tobytes()
        assert code.lbg_iterations == ref.lbg_iterations > 1
        assert code.train_distortion == ref.train_distortion

    @pytest.mark.parametrize("scale", [1.0, 4.0 ** 300, 4.0 ** -300])
    @pytest.mark.parametrize("j", [1, 7, 200, 300])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf - inf at 4^300
    def test_ties_and_scales_match_the_full_scan(self, dim, j, scale):
        rng = np.random.default_rng([dim, j])
        cb = rng.standard_normal((j, dim))
        cb = cb[rng.integers(0, j, j)] * scale   # duplicate codewords tie; argmin takes the first
        x = np.concatenate([rng.standard_normal((900, dim)) * scale, cb,
                            0.5 * (cb[rng.integers(0, j, 300)] + cb[rng.integers(0, j, 300)])])
        want_idx, want_d2 = reference_assign(x, cb)
        for hoisted in ((), (np.einsum("nd,nd->n", x, x),)):
            idx, d2 = _assign(x, cb, *hoisted)
            assert np.array_equal(idx, want_idx)
            assert d2.tobytes() == want_d2.tobytes()   # NaN where 4^300 overflows, in the same places

    def test_a_close_pair_rescans_only_the_rows_beside_it(self, monkeypatch):
        rng = np.random.default_rng(36)
        levels = np.linspace(-3.0, 3.0, 512)
        p = 300
        levels[p + 1] = levels[p] + 1e-7 * 3.0   # the one pair closer than 1e-6 of the largest level
        cb = levels[rng.permutation(512), None]
        x = np.concatenate([rng.standard_normal(20000), levels, 0.5 * (levels[1:] + levels[:-1]),
                            levels[p - 1:p + 3] + 1e-9])[:, None]
        scanned = []
        scan = simulate._scan
        monkeypatch.setattr(simulate, "_scan", lambda rows, *args: scanned.append(rows.copy()) or scan(rows, *args))
        idx, d2 = _assign(x, cb)
        # rows in (levels[p - 1], levels[p]] and (levels[p + 1], levels[p + 2]]: their bracket's next
        # level out is one of the pair; rows between the two keep their bracket, which holds both
        h = np.searchsorted(levels, x[:, 0])
        beside = (h == p) | (h == p + 2)
        assert 0 < beside.sum() and (h == p + 1).any()
        assert np.concatenate(scanned).tobytes() == x[beside].tobytes()
        want_idx, want_d2 = reference_assign(x, cb)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(d2, want_d2)

    @pytest.mark.parametrize("seed", range(6))
    def test_close_levels_among_wide_ones_match_the_full_scan(self, seed):
        rng = np.random.default_rng(seed)
        j = int(rng.integers(50, 600))
        gaps = rng.uniform(0.01, 1.0, j)
        gaps[rng.random(j) < 0.3] = 1e-9   # far below 1e-6 of the largest level, some in runs
        levels = np.cumsum(gaps) - rng.uniform(0, j)
        cb = levels[rng.permutation(j), None]
        x = np.concatenate([rng.uniform(levels[0] - 1.0, levels[-1] + 1.0, 5000), levels,
                            0.5 * (levels[1:] + levels[:-1])])[:, None]
        assert _scalar_levels(x, cb)[2].any()   # the bracket search runs, and some rows rescan
        with mock.patch.object(simulate, "ASSIGN_TILE_FLOATS", 2 ** 10):
            idx, d2 = _assign(x, cb)
        want_idx, want_d2 = reference_assign(x, cb)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(d2, want_d2)

    @pytest.mark.parametrize("j", [2, 3, 40])
    def test_levels_all_close_rescan_the_rows_outside_the_bracket(self, monkeypatch, j):
        # every next level out is close, so only rows inside a two-level codebook's one gap keep
        # their bracket; the rest go to the scan and get its answer
        rng = np.random.default_rng(j)
        levels = 1.0 + 1e-9 * np.arange(j)
        cb = levels[rng.permutation(j), None]
        x = np.concatenate([rng.uniform(1.0 - 1e-8, 1.0 + 1e-8 * j, 3000), levels, [-5.0, 5.0]])[:, None]
        scanned = []
        scan = simulate._scan
        monkeypatch.setattr(simulate, "_scan", lambda rows, *args: scanned.append(rows.copy()) or scan(rows, *args))
        idx, d2 = _assign(x, cb)
        inside = np.searchsorted(levels, x[:, 0]) == 1 if j == 2 else np.zeros(len(x), dtype=bool)
        assert np.concatenate(scanned).tobytes() == x[~inside].tobytes()
        want_idx, want_d2 = reference_assign(x, cb)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(d2, want_d2)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_a_lone_last_row_joins_the_tile_before_it(self, monkeypatch, dim):
        # numpy multiplies a one-row matrix by its matrix-vector path, which rounds otherwise
        monkeypatch.setattr(simulate, "ASSIGN_TILE_FLOATS", 48 * 20)
        rng = np.random.default_rng(dim)
        cb = rng.standard_normal((20, dim))
        for tiles in (1, 2, 5):
            x = rng.standard_normal((48 * tiles + 1, dim))
            idx, d2 = _assign(x, cb)
            want_idx, want_d2 = reference_assign(x, cb)
            assert np.array_equal(idx, want_idx)
            assert np.array_equal(d2, want_d2)

    @pytest.mark.parametrize("rows, j, dim", [(10240, 512, 1), (5120, 256, 2), (200_000, 4, 1)])
    def test_memory_is_bounded_by_the_tile(self, rows, j, dim):
        # the full scan peaks at 64 MB, 20 MB and 15 MB on these
        rng = np.random.default_rng(12)
        x, cb = rng.standard_normal((rows, dim)), rng.standard_normal((j, dim))
        if dim == 1:
            cb = np.linspace(-3.0, 3.0, j)[rng.permutation(j), None]
            assert _scalar_levels(x, cb) is not None
        tracemalloc.start()
        try:
            idx, d2 = _assign(x, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < idx.nbytes + d2.nbytes + 4 * 8 * ASSIGN_TILE_FLOATS
        assert np.array_equal(idx, reference_assign(x, cb)[0])

    def test_memory_is_bounded_by_the_tile_when_nearly_every_row_rescans(self):
        # every other pair of 512 levels lies 1e-7 M apart, so each row in a wide gap borders a
        # close pair and the scan takes a whole bracket tile of rows at once; the full scan peaks
        # at 200 MB
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2 ** 15, 1))
        levels = np.linspace(-3.0, 3.0, 512)
        levels[1::2] = levels[::2] + 3e-7
        cb = levels[rng.permutation(512), None]
        rescan = _scalar_levels(x, cb)[2]
        assert rescan[np.searchsorted(levels, x[:, 0])].mean() > 0.99
        tracemalloc.start()
        try:
            idx, d2 = _assign(x, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < idx.nbytes + d2.nbytes + 4 * 8 * ASSIGN_TILE_FLOATS
        assert np.array_equal(idx, reference_assign(x, cb)[0])


class TestTwoStepCode:
    def test_scalar_matches_lloyd_max(self):
        # k = m = 1 reduces to plain scalar quantization of N(0,1)
        model = CovarianceModel(np.eye(1))
        cfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=20000, seed=0, train_blocks=20000)
        rep = two_step_code(model, [1], cfg)
        oracle = lloyd_max_mse(4)
        assert rep.total_mse.mean == pytest.approx(oracle, abs=0.01)
        assert rep.delta_min == 0.0
        # Shannon bound sits below the scalar quantizer
        assert rep.analytic_distortion_at_rate == pytest.approx(2.0 ** (-4.0), abs=1e-12)
        assert rep.total_mse.mean > rep.analytic_distortion_at_rate

    def test_decomposition_identity(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, 3)
        cfg = SimConfig(n=2, rate_bits=2.0, eval_blocks=12000, seed=3)
        rep = two_step_code(model, [1, 3], cfg)
        dmin = min_distortion(model, [1, 3])
        resid = abs(rep.total_mse.mean - rep.weighted_mse.mean - dmin)
        combined = rep.total_mse.half_width_95 + rep.weighted_mse.half_width_95
        assert resid <= 3.0 * combined

    def test_zero_rate_reports_full_variance(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, 2)
        cfg = SimConfig(n=1, rate_bits=0.0, eval_blocks=8000, seed=5)
        rep = two_step_code(model, [1], cfg)
        assert rep.codeword_count == 1
        assert rep.rate_bits_actual == 0.0
        dmax = max_distortion(model)
        assert rep.total_mse.mean == pytest.approx(dmax, abs=4.0 * rep.total_mse.half_width_95 + 0.01)

    def test_distortion_decreases_with_rate(self):
        rng = np.random.default_rng(29)
        model = random_model(rng, 2)
        means = []
        for rate in (1.0, 2.0, 3.0):
            cfg = SimConfig(n=1, rate_bits=rate, eval_blocks=6000, seed=11)
            means.append(two_step_code(model, [1, 2], cfg).total_mse.mean)
        assert means[0] > means[1] > means[2]

    def test_empirical_respects_converse(self):
        rng = np.random.default_rng(31)
        model = random_model(rng, 3)
        cfg = SimConfig(n=2, rate_bits=3.0, eval_blocks=10000, seed=7)
        rep = two_step_code(model, [2, 3], cfg)
        assert rep.total_mse.mean >= rep.analytic_distortion_at_rate - 3.0 * rep.total_mse.half_width_95

    def test_deterministic_reports(self):
        model = CovarianceModel(np.array([[1.0, 0.4], [0.4, 2.0]]))
        cfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=3000, seed=13)
        a = two_step_code(model, [1], cfg)
        b = two_step_code(model, [1], cfg)
        assert a == b

    def test_trace_rows(self):
        model = CovarianceModel(np.eye(2))
        cfg = SimConfig(n=1, rate_bits=1.0, eval_blocks=50, seed=1, trace=True, train_blocks=2000)
        rep = two_step_code(model, [1], cfg)
        assert len(rep.block_trace) == 50
        total, weighted, lift = rep.block_trace[0]
        assert total >= 0.0 and weighted >= 0.0 and lift >= 0.0
        assert "block_trace" not in rep.to_dict()

    def test_trace_rides_beside_the_same_report(self):
        model = CovarianceModel(np.array([[1.0, 0.6], [0.6, 1.5]]))
        cfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=400, seed=3)
        plain = two_step_code(model, [1], cfg)
        traced = two_step_code(model, [1], dataclasses.replace(cfg, trace=True))
        assert plain.block_trace is None
        assert traced.block_trace.shape == (400, 3) and traced.block_trace.dtype == np.float64
        assert traced == plain and traced.to_dict() == plain.to_dict()
        for column, ci in zip(traced.block_trace.T, (traced.total_mse, traced.weighted_mse, traced.lift_mse)):
            assert np.mean(column) == pytest.approx(ci.mean, rel=1e-12)

    @pytest.mark.parametrize("m, k, n", [(3, 1, 2), (4, 2, 2), (6, 3, 3), (6, 2, 1)])
    def test_trace_is_the_per_block_errors_bit_for_bit(self, m, k, n):
        # each block's squared errors summed over its contiguous (k, n) and (m - k, n) differences,
        # whatever layout the run keeps its arrays in
        model = random_model(np.random.default_rng(m * k * n), m)
        cfg = SimConfig(n=n, rate_bits=2.0 / n, eval_blocks=500, seed=m, trace=True)
        a = np.arange(m - k, m)
        ac = np.arange(m - k)
        rep = two_step_code(model, list(a + 1), cfg)
        sigma_a, cross, _ = _blocks(model.sigma, a)
        b = _lift(sigma_a, cross)
        code = build_code(sigma_a, _weight(b), n, cfg.codeword_count(), cfg.resolved_train_blocks(), cfg.lbg_iters, m)
        x = sample_gmms(model, n, cfg.eval_blocks, m)
        x_a, x_ac = np.ascontiguousarray(x[:, a]), np.ascontiguousarray(x[:, ac])
        idx, d2 = code.encode(x_a)
        y_a = code.decode(idx)
        y_ac = np.einsum("ij,bjt->bit", b.T, y_a)
        samp = np.sum((x_a - y_a) ** 2, axis=(1, 2)) / n
        lift = np.sum((x_ac - y_ac) ** 2, axis=(1, 2)) / n
        want = np.column_stack((samp + lift, d2 / n, lift))
        assert rep.block_trace.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m, k, n", [(2, 1, 1), (4, 2, 2), (4, 3, 1)])
    def test_peak_memory_stays_within_three_draws(self, m, k, n):
        # the draw, its gathered blocks, the reproductions and the squared errors once all stayed
        # bound at the same time: 4-7.5 draws at peak
        draw = 2 ** 19   # floats, 4 MB
        model = random_model(np.random.default_rng(m + k + n), m)
        cfg = SimConfig(n=n, rate_bits=2.0 / n, eval_blocks=draw // (m * n), seed=9)
        tracemalloc.start()
        try:
            two_step_code(model, list(range(1, k + 1)), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * draw


class TestUniversalTwoStep:
    def test_degenerate_prior_matches_fixed(self):
        sig = np.array([[1.0, 0.5], [0.5, 1.0]])
        fam = affine_family(sig, [np.zeros((2, 2))], [(0.0, 0.0)], prior="uniform", grid_res=1)
        cfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=600, seed=2, est_length=64)
        urep = universal_two_step(fam, [1], cfg)
        fcfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=20000, seed=2)
        frep = two_step_code(CovarianceModel(sig), [1], fcfg)
        gap = abs(urep.total_mse.mean - frep.total_mse.mean)
        assert gap <= urep.total_mse.half_width_95 + frep.total_mse.half_width_95
        assert urep.universal_overhead_bits == 0.0
        assert urep.grid_size == 1

    def test_hit_rate_tracks_estimation_length(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=9)
        cfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=400, seed=6, est_length=512, grid_delta=0.05)
        rep = universal_two_step(fam, [1], cfg)
        # variance estimate has sd sqrt(2/512), so the 0.1 window is 1.6 sigma
        assert 0.80 <= rep.estimator_hit_rate <= 0.97
        assert rep.bad_event_mass == pytest.approx(1.0 - rep.estimator_hit_rate)
        assert rep.bad_event_mse <= rep.bad_event_mse_cap + 1e-12

    def test_multi_atom_overhead(self):
        base = np.array([[1.0, 0.3], [0.3, 1.0]])
        fam = affine_family(base, [np.array([[1.0, 0.0], [0.0, 0.0]])], [(0.0, 0.6)], prior="uniform", grid_res=3)
        cfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=300, seed=8, est_length=128)
        rep = universal_two_step(fam, [1], cfg)
        assert rep.grid_size == 3
        assert rep.universal_overhead_bits == pytest.approx(math.log2(3) / 128)
        assert rep.rate_bits_actual == pytest.approx(2.0 + math.log2(3) / 128)

    def test_est_length_must_align(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=5)
        cfg = SimConfig(n=3, rate_bits=1.0, eval_blocks=10, seed=0, est_length=64)
        with pytest.raises(ValidationError):
            universal_two_step(fam, [1], cfg)

    def test_deterministic(self):
        fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=5)
        cfg = SimConfig(n=1, rate_bits=1.0, eval_blocks=200, seed=21, est_length=128)
        a = universal_two_step(fam, [1], cfg)
        b = universal_two_step(fam, [1], cfg)
        assert a == b

    def test_atom_cap_is_checked_before_any_codebook(self, monkeypatch):
        # 40 x 40 nodes, each its own atom: the grid projects at once, but 1600 codebooks would train
        base = np.array([[2.0, 0.3], [0.3, 1.5]])
        fam = affine_family(base, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [(0.0, 1.0)] * 2,
                            prior="uniform", grid_res=40)
        calls = []
        monkeypatch.setattr(simulate, "build_code", lambda *args, **kw: calls.append(args))
        with pytest.raises(GridTooLarge, match="1600 ambiguity atoms, which exceeds the atom cap 1024"):
            universal_two_step(fam, [1, 2], SimConfig(n=1, rate_bits=1.0, eval_blocks=10, est_length=8))
        assert calls == []

    def test_atom_cap_admits_the_cap(self, monkeypatch):
        monkeypatch.setattr(simulate, "ATOM_CAP", 3)
        base = np.array([[1.0, 0.3], [0.3, 1.0]])
        cfg = SimConfig(n=1, rate_bits=1.0, eval_blocks=20, seed=3, est_length=16)
        for grid_res, admitted in ((3, True), (4, False)):
            fam = affine_family(base, [np.diag([1.0, 0.0])], [(0.0, 0.6)], prior="uniform", grid_res=grid_res)
            if admitted:
                assert universal_two_step(fam, [1], cfg).grid_size == 3
            else:
                with pytest.raises(GridTooLarge, match="atom cap 3"):
                    universal_two_step(fam, [1], cfg)


def finite_numbers(value):
    """Whether every number in a report dict (nested dicts, lists and tuples) is finite."""
    if isinstance(value, dict):
        return all(finite_numbers(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


class TestLargeScales:
    # a sum of squares of entries near 1e186 overflowed: half-widths, the bad-event cap and the
    # atom distances were inf, and every trial picked atom 0
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("driver", ["fixed", "universal"])
    def test_every_number_in_the_report_is_finite(self, driver):
        cfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=200, est_length=64, seed=7)
        if driver == "fixed":
            report = two_step_code(CovarianceModel(np.array([[1e186, 5e185], [5e185, 1e186]])), [1], cfg)
        else:
            report = universal_two_step(fixed_var_corr_family(1e186, 0.2, 0.8, grid_res=9), [1], cfg)
            assert 0.0 < report.bad_event_mse_cap < math.inf
        assert 0.0 < report.total_mse.half_width_95 < math.inf
        assert finite_numbers(report.to_dict())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [4.0 ** 300, 4.0 ** -300])
    def test_atom_choices_do_not_depend_on_the_family_scale(self, monkeypatch, c):
        picks = []
        trials = simulate._usim_trials
        monkeypatch.setattr(simulate, "_usim_trials", lambda *args: picks.append(trials(*args)) or picks[-1])
        cfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=200, est_length=64, seed=11)
        for scale in (1.0, c):
            family = affine_family(scale * np.array([[1.0, 0.3], [0.3, 1.0]]), [scale * np.diag([1.0, 0.0])],
                                   [(0.0, 1.0)], prior="uniform", grid_res=5)
            assert finite_numbers(universal_two_step(family, [1], cfg).to_dict())
        assert len(np.unique(picks[0][0])) == 5
        assert np.array_equal(picks[1][0], picks[0][0])


FIXED_SOURCE = CovarianceModel(np.array([[1.0, 0.6], [0.6, 1.5]]))
CORR_FAMILY = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=3)
DRIVERS = {
    "fixed": lambda cfg: two_step_code(FIXED_SOURCE, [1], cfg),
    "universal": lambda cfg: universal_two_step(CORR_FAMILY, [1], cfg),
}


def spy_scheme(monkeypatch):
    """Calls that factor a sampled block or train a code, in call order (filled as the calls come)."""
    calls = []
    for name in ("_block_spectrum", "build_code"):
        monkeypatch.setattr(simulate, name, lambda *args, name=name, **kw: calls.append(name))
    return calls


class TestRefusalOrder:
    # m = 2 and k = 1 on both drivers, so each draw cap is passed by one float
    @pytest.mark.parametrize(
        "driver, kwargs, error, match",
        [
            *[
                pytest.param(driver, *case, id=f"{driver}-{case_id}")
                for driver in DRIVERS
                for case_id, case in {
                    "codebook": ({"rate_bits": 19.0}, CodebookTooLarge, "exceeds the cap"),
                    "train_blocks": ({"train_blocks": 10}, ValidationError, "below 20 per codeword"),
                    "train_draw": ({"train_blocks": DRAW_CAP + 1}, GridTooLarge, r"train_blocks \* n \* k"),
                }.items()
            ],
            pytest.param("fixed", {"eval_blocks": DRAW_CAP // 2 + 1}, GridTooLarge, r"eval_blocks \* n \* m",
                         id="fixed-eval_draw"),
            pytest.param("universal", {"est_length": DRAW_CAP // 2 + 1}, GridTooLarge, r"est_length \* m",
                         id="universal-est_length_draw"),
            pytest.param("universal", {"eval_blocks": DRAW_CAP + 1}, GridTooLarge, "eval_blocks needs",
                         id="universal-eval_draw"),
        ],
    )
    def test_config_refusals_factor_and_train_nothing(self, monkeypatch, driver, kwargs, error, match):
        calls = spy_scheme(monkeypatch)
        with pytest.raises(error, match=match):
            DRIVERS[driver](SimConfig(**{"rate_bits": 1.0, "eval_blocks": 10, "est_length": 8, **kwargs}))
        assert calls == []

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_config_refusal_comes_before_a_spectrum_failure(self, monkeypatch, driver):
        def failing(*args):
            raise EigenFailure("stand-in spectrum failure")

        monkeypatch.setattr(simulate, "_block_spectrum", failing)
        with pytest.raises(EigenFailure, match="stand-in"):
            DRIVERS[driver](SimConfig(rate_bits=1.0, eval_blocks=10, est_length=8))
        # a run bad both ways exits 2 for its config, no longer 3 for its spectrum
        with pytest.raises(CodebookTooLarge):
            DRIVERS[driver](SimConfig(rate_bits=19.0, eval_blocks=10, est_length=8))

    @pytest.mark.parametrize(
        "driver, kwargs, error, match",
        [
            ("fixed", {"rate_bits": 19.0, "train_blocks": DRAW_CAP + 1, "eval_blocks": DRAW_CAP},
             CodebookTooLarge, "codebook size"),
            ("fixed", {"train_blocks": 10, "eval_blocks": DRAW_CAP}, ValidationError, "below 20 per codeword"),
            ("fixed", {"train_blocks": DRAW_CAP + 1, "eval_blocks": DRAW_CAP // 2 + 1}, GridTooLarge, "eval_blocks"),
            # a universal run checks its est_length and trial draws before it projects the family
            ("universal", {"rate_bits": 19.0, "est_length": DRAW_CAP // 2 + 1, "eval_blocks": DRAW_CAP + 1},
             GridTooLarge, "est_length"),
            ("universal", {"rate_bits": 19.0, "eval_blocks": DRAW_CAP + 1}, GridTooLarge, "eval_blocks"),
            ("universal", {"rate_bits": 19.0, "train_blocks": DRAW_CAP + 1}, CodebookTooLarge, "codebook size"),
        ],
    )
    def test_the_first_config_refusal_wins(self, monkeypatch, driver, kwargs, error, match):
        calls = spy_scheme(monkeypatch)
        with pytest.raises(error, match=match):
            DRIVERS[driver](SimConfig(**{"rate_bits": 1.0, "est_length": 8, **kwargs}))
        assert calls == []


def one_atom_family(rng, k):
    """(family, sampling set [1..k]): affine, uniform prior, one atom of three members.

    The direction moves an unsampled variance alone, so every member has the
    same sampled block.
    """
    m = k + 2
    a = rng.standard_normal((m, m + 2))
    hidden = np.zeros((m, m))
    hidden[-1, -1] = 1.0
    family = affine_family(a @ a.T / (m + 2) + 0.3 * np.eye(m), [hidden], [(0.0, 0.5)], prior="uniform", grid_res=3)
    return family, list(range(1, k + 1))


def usim_setup(k, n, est_length, seed, make_family=multi_atom_family):
    """(family, a, ac, cfg, codes, lifts, reps) of a family (three atoms by default) sampled at [1..k]."""
    family, sampled = make_family(np.random.default_rng(seed), k)
    cfg = SimConfig(n=n, rate_bits=1.0, eval_blocks=30, seed=seed, lbg_iters=10, est_length=est_length)
    ss = as_sampling_set(sampled)
    a, ac = ss.zero_based(), ss.complement(family.m)
    sigma = project_family(family, ss).sigma
    reps, _, lifts, codes = simulate._scheme(sigma, a, cfg, [(i,) for i in range(len(sigma))])
    return family, a, ac, cfg, codes, lifts, reps


def spy_encode(monkeypatch):
    """Blocks per ``TrainedCode.encode`` call, in call order (filled as the calls come)."""
    seen = []
    encode = TrainedCode.encode
    monkeypatch.setattr(
        TrainedCode, "encode", lambda code, blocks: seen.append(math.prod(blocks.shape[:-2])) or encode(code, blocks)
    )
    return seen


def assert_trials_match(got, ref):
    """(atom, hit, total, weighted, lift) per trial against ``reference_usim_trials``, which also returns estimates."""
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    for g, r in zip(got[2:], ref[3:]):
        np.testing.assert_allclose(g, r, rtol=1e-13, atol=0.0)


class TestUsimChunks:
    @pytest.mark.parametrize("chunk", [1, 7, None])
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("est_length", [8, 64, 512])
    def test_chunks_match_serial_trials(self, monkeypatch, chunk, n, k, est_length):
        args = usim_setup(k, n, est_length, seed=100 * k + est_length + n)
        family, cfg, reps = args[0], args[3], args[6]
        per_trial = max(family.m * est_length, est_length // n * cfg.codeword_count(), reps.size)
        if chunk is not None:
            # a budget below one trial runs trials alone; 7 trials do not divide the 30
            monkeypatch.setattr(simulate, "TRIAL_CHUNK_FLOATS", 1 if chunk == 1 else chunk * per_trial)
        seen = spy_encode(monkeypatch)
        assert_trials_match(_usim_trials(*args), reference_usim_trials(*args))
        # the reference encodes one trial per call; the chunked loop at most a chunk of them
        chunked = seen[: len(seen) - cfg.eval_blocks]
        trials_per_call = max(chunked) // (est_length // n)
        assert trials_per_call == 1 or trials_per_call * per_trial <= simulate.TRIAL_CHUNK_FLOATS
        if chunk is not None:
            assert trials_per_call <= chunk

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (1, 3)])
    def test_one_atom_chunks_encode_their_draws_in_place(self, monkeypatch, n, k):
        # every chunk holds one atom, so each encodes its whole chunk from a view of the draws,
        # without a gather
        args = usim_setup(k, n, 16, seed=40 + k, make_family=one_atom_family)
        family, cfg, reps = args[0], args[3], args[6]
        assert len(reps) == 1 and len(family.nodes) == 3
        per_trial = max(family.m * 16, 16 // n * cfg.codeword_count(), reps.size)
        monkeypatch.setattr(simulate, "TRIAL_CHUNK_FLOATS", 7 * per_trial)
        monkeypatch.setattr(simulate, "_trial_workers", lambda: 1)   # one worker takes the chunks in order
        seen = spy_encode(monkeypatch)
        got = _usim_trials(*args)
        assert seen == [7 * 16 // n] * 4 + [2 * 16 // n]   # 30 trials in chunks of 7
        assert_trials_match(got, reference_usim_trials(*args))

    def test_every_atom_in_one_chunk(self, monkeypatch):
        # all 30 trials share one chunk and pick all three atoms: one gather and encode per atom
        args = usim_setup(2, 1, 8, seed=1)
        family, cfg, reps = args[0], args[3], args[6]
        monkeypatch.setattr(simulate, "_trial_workers", lambda: 1)
        assert _trial_chunk(family.m, len(reps), 2, cfg) >= cfg.eval_blocks
        seen = spy_encode(monkeypatch)
        got = _usim_trials(*args)
        assert sorted(np.unique(got[0])) == [0, 1, 2]
        assert sorted(seen) == sorted(8 * np.bincount(got[0]))
        assert_trials_match(got, reference_usim_trials(*args))

    def test_trials_keep_no_estimate_per_trial(self):
        # a (trials, k, k) array of ML estimates, 23 MB here, was kept though no report reads it
        # (at 2^25 trials of k = 6 it asked for 9.7 GB)
        k, trials = 24, 5_000
        family, sampled = multi_atom_family(np.random.default_rng(7), k)
        cfg = SimConfig(n=1, rate_bits=0.0, eval_blocks=trials, seed=7, lbg_iters=2, est_length=8)
        tracemalloc.start()
        try:
            rep = universal_two_step(family, sampled, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.eval_blocks == trials
        assert peak < trials * k * k * 8

    def test_node_draw_is_the_draw_of_choice(self):
        # _usim_trials rekeys one generator per trial and draws a chunk's nodes with one search of
        # the prior's cdf; each node and the normals after it are those of rng.choice(p=...) on the
        # trial's own stream
        gen = np.random.default_rng(8)
        rng = _rng(0, _STREAM_TRIAL)
        fresh = rng.bit_generator.state
        for case in range(300):
            weights = gen.dirichlet(np.full(int(gen.integers(1, 30)), gen.uniform(0.05, 3.0)))
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            first, count = int(gen.integers(0, 10 ** 6)), int(gen.integers(1, 8))
            u, normals = np.empty(count), []
            for i, key in enumerate(_trial_keys(case, _STREAM_TRIAL, first, count)):
                fresh["state"]["key"] = key
                rng.bit_generator.state = fresh
                u[i] = rng.random()
                normals.append(rng.standard_normal(4))
            nodes = np.searchsorted(cdf, u, side="right")
            for i in range(count):
                theirs = _rng(case, _STREAM_TRIAL, first + i)
                assert nodes[i] == theirs.choice(len(weights), p=weights)
                assert np.array_equal(normals[i], theirs.standard_normal(4))

    @staticmethod
    def count_streams(monkeypatch, workers):
        """Generators and SeedSequences built by 30 one-trial chunks on ``workers`` workers."""
        args = usim_setup(2, 1, 8, seed=5)
        monkeypatch.setattr(simulate, "TRIAL_CHUNK_FLOATS", 1)   # one trial per chunk: 30 chunks
        monkeypatch.setattr(simulate, "_trial_workers", lambda: workers)
        ref = reference_usim_trials(*args)
        simulate._spawn_pool.cache_clear()
        made = {"_rng": 0, "SeedSequence": 0}

        def counted(name, make):
            def build(*a, **kw):
                made[name] += 1
                return make(*a, **kw)
            return build

        monkeypatch.setattr(simulate, "_rng", counted("_rng", simulate._rng))
        monkeypatch.setattr(np.random, "SeedSequence", counted("SeedSequence", np.random.SeedSequence))
        got = _usim_trials(*args)
        for g, r in zip(got[:2], ref[:2]):
            assert np.array_equal(g, r)
        return made

    def test_trials_build_no_stream_per_trial(self, monkeypatch):
        # one generator, rekeyed per trial, and one spawn pool for the keys: not one of each per trial
        assert self.count_streams(monkeypatch, 1) == {"_rng": 1, "SeedSequence": 2}

    @pytest.mark.parametrize("workers", [2, 3])
    def test_each_worker_builds_one_generator(self, monkeypatch, workers):
        made = self.count_streams(monkeypatch, workers)
        assert made["_rng"] == workers
        # workers that miss the spawn pool's cache at once may each build it
        assert workers + 1 <= made["SeedSequence"] <= 2 * workers

    def test_worker_count_leaves_every_trial_unchanged(self, monkeypatch):
        # chunks of 1 trial, of 7 and of the default budget, on 1, 2 and 3 workers: the same arrays,
        # bit for bit, though the budget split over the workers changes the chunks
        args = usim_setup(2, 2, 64, seed=12)
        family, cfg, reps = args[0], args[3], args[6]
        per_trial = max(family.m * 64, 64 // 2 * cfg.codeword_count(), reps.size)
        first = None
        for budget in (1, 7 * per_trial, TRIAL_CHUNK_FLOATS):
            monkeypatch.setattr(simulate, "TRIAL_CHUNK_FLOATS", budget)
            for workers in (1, 2, 3):
                monkeypatch.setattr(simulate, "_trial_workers", lambda: workers)
                got = _usim_trials(*args)
                if first is None:
                    first = got
                    assert len(np.unique(got[0])) == 3
                    assert_trials_match(got, reference_usim_trials(*args))
                for g, f in zip(got, first):
                    assert g.dtype == f.dtype and g.tobytes() == f.tobytes(), (budget, workers)

    def test_more_workers_than_cpus_under_fast_switching(self, monkeypatch):
        # a chunk taken twice or skipped, or a slice written by the wrong trial, would show
        args = usim_setup(2, 1, 8, seed=4)
        monkeypatch.setattr(simulate, "TRIAL_CHUNK_FLOATS", 1)   # one trial per chunk: 30 chunks
        monkeypatch.setattr(simulate, "_trial_workers", lambda: 1)
        want = _usim_trials(*args)
        monkeypatch.setattr(simulate, "_trial_workers", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = _usim_trials(*args)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_workers_share_the_budget(self, monkeypatch):
        args = usim_setup(1, 1, 8, seed=2, make_family=one_atom_family)   # one encode per chunk
        family, cfg, reps = args[0], args[3], args[6]
        per_trial = max(family.m * 8, 8 * cfg.codeword_count(), reps.size)
        monkeypatch.setattr(simulate, "TRIAL_CHUNK_FLOATS", 12 * per_trial)
        monkeypatch.setattr(simulate, "_trial_workers", lambda: 3)
        seen = spy_encode(monkeypatch)
        _usim_trials(*args)
        # three chunks in flight, each 4 trials of its 1/3 share
        assert sorted(seen) == [2 * 8] + [4 * 8] * 7

    def test_workers_are_the_cpus_the_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert simulate._trial_workers() == 3
        monkeypatch.delattr(os, "sched_getaffinity")   # where there is no affinity call
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert simulate._trial_workers() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulate._trial_workers() == 1

    def test_a_failing_chunk_stops_every_worker(self, monkeypatch):
        family, sampled = multi_atom_family(np.random.default_rng(3), 2)
        cfg = SimConfig(n=1, rate_bits=1.0, eval_blocks=40, seed=3, lbg_iters=3, est_length=8)
        monkeypatch.setattr(simulate, "TRIAL_CHUNK_FLOATS", 1)   # one trial per chunk: 40 chunks
        monkeypatch.setattr(simulate, "_trial_workers", lambda: 3)
        boom = RuntimeError("encode failed")
        calls = []
        lock = threading.Lock()
        encode = TrainedCode.encode

        def failing(code, blocks):
            with lock:
                calls.append(None)
                fail = len(calls) == 5
            if fail:
                raise boom
            return encode(code, blocks)

        monkeypatch.setattr(TrainedCode, "encode", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            universal_two_step(family, sampled, cfg)
        assert info.value is boom
        assert threading.active_count() == before
        # the chunks already taken finish and no more start: far fewer than the 40 chunks run
        assert len(calls) < 20

    def test_huge_seed_keeps_the_trial_streams(self):
        args = list(usim_setup(1, 2, 64, seed=3))
        args[3] = dataclasses.replace(args[3], seed=10 ** 400)   # 42 entropy words
        assert_trials_match(_usim_trials(*args), reference_usim_trials(*args))

    @pytest.mark.parametrize(
        "m, n, rate, est_length, atoms, k",
        [(2, 1, 1.0, 512, 1, 1), (3, 1, 3.0, 1024, 9, 2), (4, 2, 1.0, 8, 3, 3), (9, 3, 2.0, 2048, 1, 4),
         (64, 1, 0.0, 8192, 1, 1), (2, 1, 12.0, 2**20, 1, 1),
         # the estimate's differences from 14 400 or 1024 representatives outweigh the draw
         (3, 1, 2.0, 512, 14_400, 2), (40, 1, 2.0, 64, 1024, 30)],
    )
    def test_chunk_fills_the_budget(self, m, n, rate, est_length, atoms, k):
        cfg = SimConfig(n=n, rate_bits=rate, est_length=est_length)
        c = _trial_chunk(m, atoms, k, cfg)
        per_trial = max(m * est_length, est_length // n * cfg.codeword_count(), atoms * k * k)
        if per_trial > TRIAL_CHUNK_FLOATS:
            assert c == 1
        else:
            assert c * per_trial <= TRIAL_CHUNK_FLOATS < (c + 1) * per_trial


KEY_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 200 + 7, 10 ** 400]


class TestTrialKeys:
    @pytest.mark.parametrize("stream", [_STREAM_TRIAL, 0, 2 ** 40])
    @pytest.mark.parametrize("seed", KEY_SEEDS, ids=["0", "1", "2^32-1", "2^32", "2^64+3", "2^200+7", "10^400"])
    def test_keys_are_the_seed_sequence_keys(self, seed, stream):
        chunk = _trial_chunk(3, 1, 1, SimConfig(n=1, rate_bits=2.0, est_length=512))
        gen = np.random.default_rng(seed % 2 ** 32)
        spans = [(0, 2), (chunk - 1, 2), (2 * chunk - 2, chunk + 3), (DRAW_CAP - 1, 1), (DRAW_CAP - 7, 7)]
        spans += [(int(gen.integers(0, DRAW_CAP - 16)), int(gen.integers(1, 16))) for _ in range(4)]
        for first, count in spans:
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # no numpy overflow warning from the hash constants
                keys = _trial_keys(seed, stream, first, count)
            assert keys.shape == (count, 2) and keys.dtype == np.uint64
            for i, key in enumerate(keys):
                want = np.random.SeedSequence(seed, spawn_key=(stream, first + i)).generate_state(2, np.uint64)
                assert np.array_equal(key, want), (first + i, key, want)

    @pytest.mark.parametrize("seed", KEY_SEEDS[:3] + KEY_SEEDS[-1:])
    def test_keys_are_the_keys_of_the_trial_generators(self, seed):
        keys = _trial_keys(seed, _STREAM_TRIAL, 5, 3)
        for i, key in enumerate(keys):
            assert np.array_equal(key, _rng(seed, _STREAM_TRIAL, 5 + i).bit_generator.state["state"]["key"])
