"""Monte Carlo check of the two-step coding scheme.

Blocks of the sampled components are quantized by a trained codebook under
the weighted metric, then the unsampled components are filled in by the
linear estimate from the reproduced samples.  The per-slot mean squared
error over all components then splits, up to sampling noise, into the
weighted sampled error plus the estimation floor; the reports carry both
sides of that identity with confidence half-widths.

Both drivers share one scheme builder, ``_scheme``, which gives a stack of
covariance matrices (a fixed source's one, or a universal run's ambiguity
atoms) their spectra, lifts and codes, and one report builder, ``_report``.

Randomness is counter-based: every consumer draws from its own Philox stream
keyed by (seed, stream id), so reports are bit-reproducible and independent
of evaluation order.  The universal trials run in chunks of trials, on as
many workers as the process has CPUs (the calling thread and helper
threads, while there are chunks for them), but each trial keeps its own
stream and every per-trial sum runs in an order fixed by the trial alone, so
reports depend on neither the chunk size nor the worker count.  Trial t's
stream is still the one of ``SeedSequence(seed, spawn_key=(4, t))``; only
its Philox key depends on t, so the keys of a chunk are derived in one
vectorized pass (``_trial_keys``) and each worker rekeys its one generator
per trial, with no SeedSequence or Generator built per trial.  The chunks in
flight share the TRIAL_CHUNK_FLOATS budget.  A chunk's sampled draws stay
in the (trial, component, slot) layout they are drawn in: each atom's trials
are whitened from a (trial, component, block, slot) view of them,
``_whiten`` writes the slot-major rows the codebook is scored against
directly, and the chosen codewords are written back through the same view
of the reproductions, so no transposed copy of a block is made.

The LBG assignment step, which training and encoding share, finds each row's
nearest codeword.  A scalar code (n k = 1) looks only at the two levels that
bracket the row in sorted order, O(log J) per row, except for the rows whose
next level out beyond the bracket lies closer than 1e-6 of the largest level
to it; those rows, and every row of any other code, score every codeword over
row tiles of ASSIGN_TILE_FLOATS scores, formed in place.  The codebook is
scaled by -2 once per call rather than each tile of scores, and the Lloyd
loop forms its training rows' squared norms once per run rather than once
per iteration.  Both paths return what one full scan returns, bit for bit,
wherever no product of a row entry and a codeword entry is subnormal or
overflows (see ``_assign``).
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import CodebookTooLarge, DimensionMismatch, GridTooLarge, NoPrior, TrainingDiverged, ValidationError
from .model import CovarianceModel, _blocks, as_sampling_set
from .srdf import _block_spectrum, _lift, _weight
from .universal import ParamFamily, project_family

CODEBOOK_CAP = 2 ** 18
ATOM_CAP = 1024      # most atoms one universal run trains codebooks for, one after another
DRAW_CAP = 2 ** 25    # most floats one stage draws at once, or keeps per trial
# most floats one array of the chunks of universal trials in flight holds, all together (2 MB):
# on C CPUs, each chunk's gets 1/C; numpy asks for huge pages from 4 MB on, and those would keep
# the heap's freed chunk arrays resident, in each helper thread's own malloc arena too
TRIAL_CHUNK_FLOATS = 2 ** 18
ASSIGN_TILE_FLOATS = 2 ** 15   # most scores one tile of the nearest-codeword search holds (256 KB)
_TILE_ROW_MULTIPLE = 48        # rows per scan tile come in multiples of this; see _assign
_MIN_TRAIN_PER_CODEWORD = 20

_STREAM_TRAIN = 1
_STREAM_EVAL = 2
_STREAM_INIT = 3
_STREAM_TRIAL = 4


def _check_draw(what: str, floats: int) -> None:
    if floats > DRAW_CAP:
        # a product of config integers may pass Python's digit limit for str(int)
        count = floats if floats.bit_length() <= 64 else f"about 2^{floats.bit_length() - 1}"
        raise GridTooLarge(f"{what} needs {count} floats, which exceeds the cap {DRAW_CAP}")


def _rng(seed: int, *stream: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(seq))


# numpy's SeedSequence hash (after O'Neill's seed_seq_fe), all mod 2^32
_M32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> int:
    return max(1, -(-value.bit_length() // 32))


@functools.lru_cache(maxsize=8)
def _spawn_pool(seed: int, stream: int):
    """(pool words, entropy word count) of ``SeedSequence(seed, spawn_key=(stream,))``."""
    parent = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    # the run entropy is padded to the pool size whenever there is a spawn key
    words = max(parent.pool_size, _uint32_words(seed)) + _uint32_words(stream)
    return tuple(int(w) for w in parent.pool), words


def _trial_keys(seed: int, stream: int, first: int, count: int) -> np.ndarray:
    """Philox keys of the streams (seed, stream, t) for t in [first, first + count), shape (count, 2).

    Row t equals ``SeedSequence(seed, spawn_key=(stream, t)).generate_state(2, np.uint64)``
    for 0 <= t < 2^32, the key ``_rng(seed, stream, t)`` gives its Philox.
    SeedSequence hashes its entropy words in order into a pool of 4 words, so
    the pool of ``SeedSequence(seed, spawn_key=(stream,))`` is its state after
    every word but t.  Mixing t into each pool word uses a hash constant that
    advanced once per earlier hash, 4 per entropy word, whatever the data, so
    it is a closed power of the multiplier; generate_state's output hash
    follows.  Both run as uint32 passes over the t of the chunk; the constants
    are Python ints reduced mod 2^32, so numpy never sees a scalar overflow.
    numpy keeps SeedSequence and Philox streams fixed across releases (its
    stream-compatibility policy, NEP 19); the tests check these keys against
    SeedSequence itself.
    """
    pool, words = _spawn_pool(int(seed), int(stream))
    t = np.arange(first, first + count, dtype=np.uint32)
    mix_const = _HASH_INIT_A * pow(_HASH_MULT_A, len(pool) * words, 1 << 32) & _M32
    out_const = _HASH_INIT_B
    state = np.empty((count, len(pool)), dtype=np.uint32)
    for i, word in enumerate(pool):
        v = t ^ np.uint32(mix_const)          # hashmix(t)
        mix_const = mix_const * _HASH_MULT_A & _M32
        v *= np.uint32(mix_const)
        v ^= v >> 16
        w = np.uint32(_MIX_MULT_L * word & _M32) - np.uint32(_MIX_MULT_R) * v   # mix(pool word, hashmix(t))
        w ^= w >> 16
        w ^= np.uint32(out_const)             # generate_state's hash of pool word i
        out_const = out_const * _HASH_MULT_B & _M32
        w *= np.uint32(out_const)
        w ^= w >> 16
        state[:, i] = w
    # uint32 pairs in little-endian order, as generate_state joins them
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


@dataclass(frozen=True)
class SimConfig:
    n: int = 1
    rate_bits: float = 2.0
    train_blocks: int | None = None   # None: 20 per codeword, at least 2000
    eval_blocks: int = 10_000
    seed: int = 0
    lbg_iters: int = 60
    grid_delta: float = 0.05
    est_length: int = 2048            # universal runs: slots observed per trial
    trace: bool = False

    def __post_init__(self) -> None:
        for name, kind in _FIELD_KINDS.items():
            value = getattr(self, name)
            if kind is bool or value is None or (kind is int and isinstance(value, int)):
                continue   # an integer field is exact at any size and meets its caps by value
            if not abs(value) <= sys.float_info.max:   # also false for NaN; no float() of a huge int
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.n < 1:
            raise ValidationError(f"block length must be >= 1, got {self.n}")
        if self.n > DRAW_CAP:   # every run draws blocks of n slots; also keeps n * rate_bits a float
            raise GridTooLarge(f"block length n = {self.n} exceeds the cap {DRAW_CAP}")
        if self.rate_bits < 0.0:
            raise ValidationError(f"rate must be nonnegative, got {self.rate_bits}")
        if self.eval_blocks < 2:
            raise ValidationError(f"need at least 2 evaluation blocks, got {self.eval_blocks}")
        if self.lbg_iters < 1:
            raise ValidationError(f"lbg_iters must be >= 1, got {self.lbg_iters}")
        if self.grid_delta <= 0.0:
            raise ValidationError(f"grid_delta must be positive, got {self.grid_delta}")
        if self.est_length < 1:
            raise ValidationError(f"est_length must be >= 1, got {self.est_length}")

    def codeword_count(self) -> int:
        bits = self.n * self.rate_bits - 1e-9
        if bits > math.log2(CODEBOOK_CAP):   # before 2 ** bits, which a huge rate would make enormous
            raise CodebookTooLarge(
                f"codebook size 2^{self.n * self.rate_bits:g} exceeds the cap {CODEBOOK_CAP}"
            )
        return 2 ** max(0, math.ceil(bits))

    def resolved_train_blocks(self) -> int:
        j = self.codeword_count()
        if self.train_blocks is None:
            return max(_MIN_TRAIN_PER_CODEWORD * j, 2000)
        if self.train_blocks < _MIN_TRAIN_PER_CODEWORD * j:
            raise ValidationError(
                f"train_blocks={self.train_blocks} is below {_MIN_TRAIN_PER_CODEWORD} per codeword"
                f" (codebook size {j})"
            )
        return self.train_blocks


# each SimConfig field's kind, read from its annotation: int, float or bool ("int | None" is an int or None)
_FIELD_KINDS = {f.name: {"int": int, "float": float, "bool": bool}[f.type.partition(" ")[0]]
                for f in fields(SimConfig)}


@dataclass(frozen=True)
class MeanCI:
    mean: float
    half_width_95: float


def _unit(x) -> float:
    """The power of two, at most 2^1000, that brings the largest |entry| of ``x`` into [0.5, 1).

    Scaling by it is exact, so a statistic of the scaled entries, scaled
    back, has the bits of the unscaled one wherever neither overflows nor
    underflows, and a sum of squares of the scaled entries cannot overflow.
    """
    return math.ldexp(1.0, -max(math.frexp(float(np.max(np.abs(x))))[1], -1000))


def _mean_ci(values: np.ndarray) -> MeanCI:
    """Mean and 95% half-width; the sample deviation is ``np.std(..., ddof=1)``'s, step for step, of the
    values in ``_unit``s, formed in place in their one scaled copy."""
    values = np.asarray(values, dtype=float)
    unit = _unit(values)
    dev = values * unit
    dev -= np.mean(dev)
    std = math.sqrt(float(np.sum(np.square(dev, out=dev))) / (len(values) - 1))
    return MeanCI(mean=float(np.mean(values)), half_width_95=1.96 * std / math.sqrt(len(values)) / unit)


@dataclass(frozen=True)
class SimReport:
    kind: str
    n: int
    rate_bits_target: float
    rate_bits_actual: float
    codeword_count: int
    seed: int
    train_blocks: int
    eval_blocks: int
    delta_min: float
    analytic_distortion_at_rate: float
    total_mse: MeanCI
    weighted_mse: MeanCI
    lift_mse: MeanCI
    lbg_iterations: tuple[int, ...]
    train_distortion: tuple[float, ...]
    estimator_hit_rate: float | None = None
    universal_overhead_bits: float | None = None
    grid_size: int | None = None
    bad_event_mass: float | None = None
    bad_event_mse: float | None = None
    bad_event_mse_cap: float | None = None
    # (blocks, 3) float array of (total, weighted, lift) MSE per block or trial; not in to_dict
    block_trace: np.ndarray | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "block_trace"}
        return {k: asdict(v) if is_dataclass(v) else v for k, v in out.items() if v is not None}


def sample_gmms(model: CovarianceModel, n: int, blocks: int, seed: int, stream: tuple = (_STREAM_EVAL,)) -> np.ndarray:
    """Draw iid blocks of the source: shape (blocks, m, n), each column N(0, sigma)."""
    return _sample_cov(np.linalg.cholesky(model.sigma), n, blocks, seed, stream)


def _sample_cov(chol: np.ndarray, n: int, blocks: int, seed: int, stream: tuple) -> np.ndarray:
    rng = _rng(seed, *stream)
    z = rng.standard_normal((blocks, chol.shape[0], n))
    return np.einsum("ij,bjt->bit", chol, z)


def ml_cov_estimate(x_a: np.ndarray) -> np.ndarray:
    """Maximum likelihood covariance of a zero-mean sampled block (k, n), or of each block of a (..., k, n) stack."""
    x = np.asarray(x_a, dtype=float)
    if x.ndim < 2:
        raise DimensionMismatch(f"expected a (..., k, n) stack of blocks, got shape {x.shape}")
    if x.shape[-1] == 0:
        raise DimensionMismatch(f"a block needs at least one slot, got shape {x.shape}")
    return x @ np.swapaxes(x, -1, -2) / x.shape[-1]


def _scalar_levels(x: np.ndarray, cb: np.ndarray):
    """(sorted distinct levels, first codeword index of each, rescan) of a scalar codebook, or None.

    None, so that ``_assign`` scans every codeword, unless the codebook has one
    coordinate, x has rows, every row and level is below 1e150 in magnitude
    and the largest |level| M is above 1e-150.  ``np.unique`` keeps the first
    index of equal levels, the one ``argmin`` returns.

    A row at ``np.searchsorted`` position h brackets levels h - 1 and h (the
    end level alone beyond either end), so the next levels out are h - 2 and
    h + 1.  ``rescan[h]`` is True when either lies closer than 1e-6 M to its
    bracket level, and ``rescan`` is None when no two levels do.
    """
    if cb.shape[1] != 1 or not len(x):
        return None
    levels, first = np.unique(cb[:, 0], return_index=True)
    span = float(np.max(np.abs(levels)))
    if not (1e-150 < span < 1e150 and -1e150 < x.min() and x.max() < 1e150):   # false for NaN too
        return None
    close = np.diff(levels) < 1e-6 * span
    if not close.any():
        return levels, first, None
    gap = np.zeros(len(levels) + 3, dtype=bool)   # gap[i + 2]: levels i and i + 1 lie close
    gap[2:-2] = close
    return levels, first, gap[:-2] | gap[2:]


def _bracket(xs: np.ndarray, levels, first, sq, m2, rescan):
    """(index, score, near) of the better of the two levels that bracket each entry of xs.

    ``sq`` and ``m2`` hold c.c and -2 c of each level, ``rescan`` is the mask
    of ``_scalar_levels``, and ``near`` marks the entries whose bracket it
    flags (None with it).  See ``_assign``.
    """
    hi = np.searchsorted(levels, xs)   # levels[hi - 1] < x <= levels[hi]
    near = None if rescan is None else rescan[hi]
    lo = np.maximum(hi - 1, 0)
    np.minimum(hi, len(levels) - 1, out=hi)
    score_lo = sq[lo] + xs * m2[lo]
    score_hi = sq[hi] + xs * m2[hi]
    lo, hi = first[lo], first[hi]
    up = (score_hi < score_lo) | ((score_hi == score_lo) & (hi < lo))
    return np.where(up, hi, lo), np.where(up, score_hi, score_lo), near


def _scan(x: np.ndarray, cb_sq: np.ndarray, m2cb: np.ndarray, x_sq=None):
    """(index, score + x.x) of the first lowest score cb_sq + x.m2cb of each row of x, over row tiles.

    ``m2cb`` is the codebook times -2; ``x_sq``, if given, holds x.x for every
    row, which is otherwise formed per tile.  See ``_assign``.
    """
    j = len(cb_sq)
    out_i = np.empty(len(x), dtype=np.int64)
    out_d = np.empty(len(x))
    step = max(_TILE_ROW_MULTIPLE, ASSIGN_TILE_FLOATS // j // _TILE_ROW_MULTIPLE * _TILE_ROW_MULTIPLE)
    rows = min(step + 1, len(x))
    tile = np.empty((rows, j))
    flat = np.arange(0, tile.size, j)   # flat position of each tile row's first score
    pos = np.empty(rows, dtype=np.int64)
    sq = np.empty(rows) if x_sq is None else None
    s = 0
    while s < len(x):
        e = s + step + (len(x) - s == step + 1)
        xx = x[s:e]
        n = len(xx)
        part = np.matmul(xx, m2cb.T, out=tile[:n])
        part += cb_sq
        idx = np.argmin(part, axis=1, out=pos[:n])
        out_i[s:e] = idx
        idx += flat[:n]
        part.take(idx, out=out_d[s:e], mode="clip")   # unbuffered; every index is in range
        out_d[s:e] += np.einsum("nd,nd->n", xx, xx, out=sq[:n]) if x_sq is None else x_sq[s:e]
        s = e
    return out_i, out_d


def _assign(x: np.ndarray, cb: np.ndarray, x_sq=None):
    """Nearest codeword per row of x; returns (indices, squared distances).

    Each codeword c scores c.c + x.(-2 c); a row takes the first lowest score,
    plus x.x clamped at 0, as its squared distance.  The codebook is scaled by
    -2 once per call, and x.(-2 c) equals -2 (x.c), the score c.c - 2 x.c of a
    full scan, bit for bit, wherever no product of an entry of x and one of c
    is subnormal or overflows: scaling by a power of two is exact away from
    those.  x.x is ``x_sq`` when the caller gives it (the Lloyd loop forms it
    once per run for its fixed training rows); otherwise it is formed per tile
    of rows.

    Scalar codes look only at the two levels that bracket the row in sorted
    order (``np.searchsorted``): the nearest level of a scalar quantizer is one
    of them (Lloyd 1982), so a row costs O(log J) instead of O(J).  The two are
    scored as the scan scores them, so the result is the full scan's, bit for
    bit, unless a level beyond the bracket wins by rounding.  With u = 2^-53,
    the score of a level c is computed within 2u (c^2 + 2|x c|) of its exact
    value, so two scores differ from their exact difference by at most
    20u M^2 for |x| <= 2M and 10u |x| M beyond, M being the largest |level|.
    A level c' beyond the nearer bracket level b scores (b - c')(2x - b - c')
    more, exactly, which is at least g^2 for |x| <= 2M and g |x| beyond, g
    being the gap between the bracket level on the side of c' and the next
    level out.  So g >= 1e-6 M leaves a margin of over 400.  A row whose
    bracket has a next level out closer than that is scored by the scan
    instead, after the bracket tile's temporaries are freed; the other rows
    keep their bracket, and a one-coordinate product is the same per row
    whichever rows the scan is given.  ``_scalar_levels`` also bounds the
    magnitudes so that nothing overflows or underflows to matter, and sends
    every other case to the scan.

    The scan forms its scores in place, over row tiles of ASSIGN_TILE_FLOATS
    scores.  OpenBLAS may round a row's dot products by the row's place in its
    kernel's panels of rows (OpenBLAS 0.3.31 on x86-64 does, in panels of 12
    rows, for codebooks of over 192 words that are not a multiple of 8), so
    tiles come in multiples of _TILE_ROW_MULTIPLE rows, which keeps every row
    where one untiled product puts it.  A lone last row would take numpy's
    matrix-vector path, which rounds otherwise too, so the last tile absorbs it.
    """
    cb_sq = np.einsum("jd,jd->j", cb, cb)
    m2cb = -2.0 * cb
    scalar = _scalar_levels(x, cb)
    if scalar is None:
        out_i, out_d = _scan(x, cb_sq, m2cb, x_sq)
    else:
        levels, first, rescan = scalar
        sq, m2 = cb_sq[first], m2cb[first, 0]
        out_i = np.empty(len(x), dtype=np.int64)
        out_d = np.empty(len(x))
        step = ASSIGN_TILE_FLOATS // 2   # two candidate scores per row
        for s in range(0, len(x), step):
            xs = x[s:s + step, 0]
            out_i[s:s + step], out_d[s:s + step], near = _bracket(xs, levels, first, sq, m2, rescan)
            out_d[s:s + step] += xs * xs if x_sq is None else x_sq[s:s + step]
            if near is not None and near.any():   # the bracket's temporaries are gone by now
                r = np.flatnonzero(near) + s
                out_i[r], out_d[r] = _scan(x[r], cb_sq, m2cb, None if x_sq is None else x_sq[r])
                del r   # not held beside the next tile's bracket temporaries
    np.maximum(out_d, 0.0, out=out_d)
    return out_i, out_d


def _whiten(t: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Whitened rows of a stack of (k, n) blocks in any layout: (..., k, n) -> (rows, n*k).

    Row r holds T x_t for each slot t of block r in turn (slot-major), each
    entry the sum over j of T[i, j] x[j, t], which ``einsum`` writes in that
    order straight from the stack, so a (trial, block, component, slot) view
    of a chunk's draws needs no transposed copy.  einsum sums a row of T
    against a block's components with its dot kernel when both lie
    contiguously, and that kernel groups three or more products otherwise
    than the strided sum; T is read in Fortran order (``build_code``'s
    transform already is), so every layout of the blocks gives each entry
    the sum ``einsum("ij,bjt->bit")`` forms on the contiguous blocks, bit for
    bit.
    """
    k, n = blocks.shape[-2:]
    rows = np.empty(blocks.shape[:-2] + (n, k))   # C order, so the reshape below is a view
    np.einsum("ij,...jt->...ti", np.asfortranarray(t), blocks, out=rows)
    return rows.reshape(-1, n * k)


def _train_codebook(train_t: np.ndarray, j: int, iters: int, rng: np.random.Generator):
    """Generalized Lloyd iterations in the whitened space.

    Assignment minimizes the whitened squared distance (the weighted metric),
    the centroid update is the cell mean, and empty cells are reseeded at the
    training points farthest from their codewords.  Training stops early once
    the relative improvement drops below 1e-6.
    """
    n_samples, dim = train_t.shape
    idx = rng.choice(n_samples, size=j, replace=False)
    cb = train_t[np.sort(idx)].copy()
    prev = math.inf
    stole = False
    iters_run = 0
    dist = math.inf
    x_sq = np.einsum("nd,nd->n", train_t, train_t)   # the training rows stay fixed
    for it in range(iters):
        assign, d2 = _assign(train_t, cb, x_sq)
        dist = float(np.mean(d2))
        iters_run = it + 1
        if dist > prev * (1.0 + 1e-9) and not stole:
            raise TrainingDiverged(
                f"training distortion rose from {prev:.6e} to {dist:.6e} at iteration {iters_run}"
            )
        if prev - dist <= 1e-6 * max(dist, 1e-300):
            break
        prev = dist
        counts = np.bincount(assign, minlength=j)
        sums = np.empty((j, dim))
        for d in range(dim):
            sums[:, d] = np.bincount(assign, weights=train_t[:, d], minlength=j)
        nonempty = counts > 0
        cb[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        stole = bool(len(empty))
        if stole:
            far = np.argsort(-d2, kind="stable")
            cb[empty] = train_t[far[: len(empty)]]
    return cb, iters_run, dist


@dataclass(frozen=True)
class TrainedCode:
    """A block code on the sampled components under the weighted metric."""

    transform: np.ndarray          # T with d_A(z) = ||T z||^2
    codebook_whitened: np.ndarray  # (J, n*k), slot-major layout
    codebook_blocks: np.ndarray    # (J, k, n), reproduction blocks
    lbg_iterations: int
    train_distortion: float

    def encode(self, blocks: np.ndarray):
        """Nearest codeword for each (k, n) block of a (..., k, n) stack.

        The stack is whitened in whatever layout it has (see ``_whiten``): a
        strided view of blocks is whitened where it lies, not copied first.
        Returns (indices, weighted distances), each shaped like the stack
        without its last two axes.
        """
        idx, d2 = _assign(_whiten(self.transform, blocks), self.codebook_whitened)
        lead = blocks.shape[:-2]
        return idx.reshape(lead), d2.reshape(lead)

    def decode(self, idx) -> np.ndarray:
        """Reproduction blocks of codeword indices: shape idx.shape + (k, n)."""
        return self.codebook_blocks.take(np.asarray(idx, dtype=int), axis=0)


def build_code(
    sigma_a: np.ndarray,
    g: np.ndarray,
    n: int,
    j: int,
    train_blocks: int,
    lbg_iters: int,
    seed: int,
    stream: tuple = (),
) -> TrainedCode:
    """Train a codebook for blocks of N(0, sigma_a) under the metric g."""
    if min(n, j, lbg_iters) < 1:
        raise ValidationError(f"n, j and lbg_iters must be >= 1, got n={n}, j={j}, lbg_iters={lbg_iters}")
    if j > CODEBOOK_CAP:
        raise CodebookTooLarge(f"codebook size {j} exceeds the cap {CODEBOOK_CAP}")
    if train_blocks < j:
        raise ValidationError(f"cannot train {j} codewords from {train_blocks} blocks")
    k = sigma_a.shape[0]
    _check_draw("train_blocks * n * k", train_blocks * n * k)
    t = np.linalg.cholesky(g).T
    train = _sample_cov(np.linalg.cholesky(sigma_a), n, train_blocks, seed, (_STREAM_TRAIN, *stream))
    train_t = _whiten(t, train)
    cb_t, iters_run, dist = _train_codebook(train_t, j, lbg_iters, _rng(seed, _STREAM_INIT, *stream))
    flat = cb_t.reshape(j * n, k).T
    blocks = np.linalg.solve(t, flat).reshape(k, j, n).transpose(1, 0, 2)
    return TrainedCode(
        transform=t,
        codebook_whitened=cb_t,
        codebook_blocks=np.ascontiguousarray(blocks),
        lbg_iterations=iters_run,
        train_distortion=dist,
    )


def _scheme(sigma: np.ndarray, a: np.ndarray, cfg: SimConfig, streams, draws=()):
    """(Sigma_A, spectra, lifts, codes) of the two-step scheme for each matrix of a (c, m, m) stack.

    Matrix i's blocks sampled at the 0-based rows ``a`` are coded under the
    weighted metric of their lift by a code trained on the streams
    ``streams[i]``.  The refusals that read only the config run first, so a
    refused run factors nothing: the codebook size, the training blocks, then
    the draw caps, the caller's ``draws`` of (what, floats) pairs before the
    training draw.
    """
    j = cfg.codeword_count()
    train_blocks = cfg.resolved_train_blocks()
    for what, floats in (*draws, ("train_blocks * n * k", train_blocks * cfg.n * len(a))):
        _check_draw(what, floats)
    sigma_a, cross, trace_ac = _blocks(sigma, a)
    spectra = _block_spectrum(sigma_a, cross, trace_ac)
    lifts = _lift(sigma_a, cross)
    codes = [
        build_code(s, g, cfg.n, j, train_blocks, cfg.lbg_iters, cfg.seed, stream)
        for s, g, stream in zip(sigma_a, _weight(lifts), streams)
    ]
    return sigma_a, spectra, lifts, codes


def _report(cfg: SimConfig, weights, spectra, codes, errors, overhead: float = 0.0, **extra) -> SimReport:
    """The report of a run: the fields both drivers share, then the driver's own ``extra``.

    ``delta_min`` and the analytic distortion at the code's rate are sums over the stack of
    ``spectra`` weighted by ``weights`` (the atoms' prior, or 1 for a fixed source); ``errors``
    holds the (total, weighted, lift) MSE per block or trial; ``overhead`` adds to the code's rate.
    """
    j = cfg.codeword_count()
    rate = math.log2(j) / cfg.n
    total, weighted, lift = errors
    return SimReport(
        n=cfg.n,
        rate_bits_target=cfg.rate_bits,
        rate_bits_actual=rate + overhead,
        codeword_count=j,
        seed=cfg.seed,
        train_blocks=cfg.resolved_train_blocks(),
        eval_blocks=cfg.eval_blocks,
        delta_min=float(sum(weights * spectra.delta_min)),
        analytic_distortion_at_rate=float(sum(weights * spectra.distortion(rate))),
        total_mse=_mean_ci(total),
        weighted_mse=_mean_ci(weighted),
        lift_mse=_mean_ci(lift),
        lbg_iterations=tuple(c.lbg_iterations for c in codes),
        train_distortion=tuple(c.train_distortion for c in codes),
        block_trace=np.column_stack(errors) if cfg.trace else None,
        **extra,
    )


def two_step_code(model: CovarianceModel, sampled, cfg: SimConfig) -> SimReport:
    """Train, encode, lift, and report the distortion split for one fixed source: the one-atom scheme."""
    ss = as_sampling_set(sampled)
    ac = ss.complement(model.m)
    a = ss.zero_based()
    draws = [("eval_blocks * n * m", cfg.eval_blocks * cfg.n * model.m)]
    _, spectra, lifts, codes = _scheme(model.sigma[None], a, cfg, [()], draws)
    code = codes[0]

    # each array is freed once used, so the run holds under three draws at once; the squared
    # errors are formed in place in the reproductions, whose C order gives each block one sum over
    # its contiguous entries (x[:, a] is laid out component-major); (y - x)^2 is (x - y)^2 bit for bit
    x = sample_gmms(model, cfg.n, cfg.eval_blocks, cfg.seed, (_STREAM_EVAL,))
    x_a = x[:, a, :]
    x_ac = x[:, ac, :]
    del x
    idx, d2 = code.encode(x_a)
    weighted_b = d2 / cfg.n
    del d2
    y_a = code.decode(idx)
    del idx
    y_ac = np.einsum("ij,bjt->bit", lifts[0].T, y_a)
    y_a -= x_a
    del x_a
    samp_b = np.sum(np.square(y_a, out=y_a), axis=(1, 2)) / cfg.n
    del y_a
    y_ac -= x_ac
    del x_ac
    lift_b = np.sum(np.square(y_ac, out=y_ac), axis=(1, 2)) / cfg.n
    del y_ac
    return _report(cfg, 1.0, spectra, codes, (samp_b + lift_b, weighted_b, lift_b), kind="fixed")


def _trial_workers() -> int:
    """CPUs the process may run on: the most workers ``_usim_trials`` runs its chunks on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _trial_chunk(m: int, atoms: int, k: int, cfg: SimConfig, workers: int = 1) -> int:
    """Trials per chunk of the universal trial loop, with ``workers`` chunks in flight.

    A trial's largest arrays are its (m, est_length) draw, the distances of
    its est_length / n blocks to the codewords, and the differences of its
    k x k estimate from each atom's representative.  The chunks in flight
    share TRIAL_CHUNK_FLOATS: a chunk holds as many trials as its 1/workers
    share allows for each, and one trial where one is larger.
    """
    per_trial = max(m * cfg.est_length, cfg.est_length // cfg.n * cfg.codeword_count(), atoms * k * k)
    return max(1, TRIAL_CHUNK_FLOATS // workers // per_trial)


def _usim_trials(family: ParamFamily, a, ac, cfg: SimConfig, codes, lifts, reps):
    """The trials of ``universal_two_step``, run in chunks of trials on the process's CPUs.

    Trial t draws from its own Philox stream (seed, _STREAM_TRIAL, t): first
    its node, then its (m, est_length) block, so no draw depends on the chunk
    or on the worker that runs it.  The chunks are sized for
    ``_trial_workers()`` in flight and run on W = min(that, chunk count)
    workers: the calling thread and W - 1 helper threads, which take chunk
    starts from one shared iterator.  Each worker owns one generator, rekeyed
    per trial with the chunk's keys from ``_trial_keys``; the nodes come from
    one search of the prior's cdf.  Everything after the draws runs once per
    chunk, stacked over its trials: one encode and decode per atom present.
    Each atom's trials are whitened from a (trial, component, block, slot)
    view of the chunk's sampled draws (gathered first only when the chunk
    holds more than one atom), and the codewords are written back through the
    same view of the reproductions, so no transposed copy of a block is made.
    The ML estimates serve the atom choice and the hit test of their chunk
    and are not kept.  A chunk writes only its own trials' slices of the
    outputs.  The first exception in a worker stops further chunks from
    starting and is raised here once every helper has been joined.  Returns
    per-trial arrays (atom, hit, total, weighted and lift MSE).
    """
    m, slots, n = family.m, cfg.est_length, cfg.n
    k = len(a)
    blocks = slots // n
    nodes_n = len(family.nodes)
    chols = np.linalg.cholesky(family.node_sigmas)
    node_block = family.node_sigmas[np.ix_(np.arange(nodes_n), a, a)]
    # the distances are taken in the units of the largest sampled entry, so no square overflows or underflows
    unit = _unit(node_block)
    node_block *= unit
    reps = reps * unit
    trials = cfg.eval_blocks
    sel = np.empty(trials, dtype=np.int64)
    hits = np.empty(trials, dtype=bool)
    total, weighted, lift = np.empty(trials), np.empty(trials), np.empty(trials)
    cdf = np.cumsum(family.node_weights)
    cdf /= cdf[-1]
    cpus = _trial_workers()
    chunk = _trial_chunk(m, len(reps), k, cfg, cpus)
    starts = range(0, trials, chunk)
    workers = min(cpus, len(starts))

    def code_chunk(t0, rng, fresh):
        c = min(chunk, trials - t0)
        part = slice(t0, t0 + c)
        philox = rng.bit_generator
        keys = _trial_keys(cfg.seed, _STREAM_TRIAL, t0, c)
        u = np.empty(c)
        z = np.empty((c, m, slots))
        for i in range(c):
            fresh["state"]["key"] = keys[i]
            philox.state = fresh   # now the stream of _rng(seed, _STREAM_TRIAL, t0 + i)
            u[i] = rng.random()
            rng.standard_normal(out=z[i])
        nodes = np.searchsorted(cdf, u, side="right")   # the draws of rng.choice(p=...)
        x = chols[nodes] @ z
        del z  # the heap keeps a chunk's peak, so free each array once it is used
        x_a, x_ac = x[:, a], x[:, ac]
        del x
        th = ml_cov_estimate(x_a) * unit
        s = sel[part] = np.argmin(np.linalg.norm(reps - th[:, None], axis=(2, 3)), axis=1)
        hits[part] = np.linalg.norm(th - node_block[nodes], axis=(1, 2)) <= 2.0 * cfg.grid_delta * unit
        y_a = np.empty_like(x_a)
        # (trial, block, component, slot); splitting the slot axis alone keeps the reshape a view
        # of y_a in any layout (x[:, a] is laid out component-major)
        y_blocks = y_a.reshape(c, k, blocks, n).transpose(0, 2, 1, 3)
        d2 = np.empty((c, blocks))
        present = np.unique(s)
        for atom in present:
            rows = slice(None) if len(present) == 1 else np.flatnonzero(s == atom)
            x_rows = x_a[rows]   # the chunk itself, or a gather of the atom's trials
            idx, d2[rows] = codes[atom].encode(x_rows.reshape(-1, k, blocks, n).transpose(0, 2, 1, 3))
            y_blocks[rows] = codes[atom].decode(idx)
        y_ac = lifts[s].transpose(0, 2, 1) @ y_a
        weighted[part] = np.sum(d2, axis=1) / slots
        lift[part] = np.sum((x_ac - y_ac) ** 2, axis=(1, 2)) / slots
        # a trial's squared sampled errors are summed per component, then over the components in
        # order, so that no chunk size or layout changes a bit; (y - x)^2 is (x - y)^2 bit for bit
        y_a -= x_a
        rows = np.sum(np.square(y_a, out=y_a), axis=2)
        total[part] = np.add.accumulate(rows, axis=1)[:, -1] / slots + lift[part]

    pending = iter(starts)
    lock = threading.Lock()
    failed = []

    def next_start():
        with lock:
            return None if failed else next(pending, None)

    def work(rng):
        fresh = rng.bit_generator.state   # counter 0, empty buffer: a new Philox but for its key
        try:
            while (t0 := next_start()) is not None:
                code_chunk(t0, rng, fresh)
        except BaseException as exc:   # raised in the caller once every helper has stopped
            failed.append(exc)

    gens = [_rng(cfg.seed, _STREAM_TRIAL) for _ in range(workers)]
    helpers = [threading.Thread(target=work, args=(rng,)) for rng in gens[1:]]
    for h in helpers:
        h.start()
    work(gens[0])
    for h in helpers:
        h.join()
    if failed:
        raise failed[0]
    return sel, hits, total, weighted, lift


def universal_two_step(family: ParamFamily, sampled, cfg: SimConfig) -> SimReport:
    """Universal two-step coding over a family: estimate the atom, then code within it.

    Each trial draws a member from the prior, observes est_length slots of
    the sampled block, picks the atom whose representative is nearest to the
    ML covariance estimate, and codes the slots as consecutive n-blocks with
    that atom's codebook and lift.  The reported rate includes the
    log2(#atoms)/est_length overhead of announcing the atom.
    """
    ss = as_sampling_set(sampled)
    ac = ss.complement(family.m)
    a = ss.zero_based()
    if family.node_weights is None:
        raise NoPrior("universal coding draws members from the prior; the family has none")
    if cfg.est_length % cfg.n != 0:
        raise ValidationError(
            f"est_length={cfg.est_length} must be a multiple of the block length n={cfg.n}"
        )
    _check_draw("est_length * m", cfg.est_length * family.m)
    _check_draw("eval_blocks", cfg.eval_blocks)
    part = project_family(family, ss)
    atoms = len(part.members)
    if atoms > ATOM_CAP:   # before any codebook is trained
        raise GridTooLarge(
            f"the family splits into {atoms} ambiguity atoms, which exceeds the atom cap {ATOM_CAP}"
            " (each atom trains its own codebook)"
        )
    reps, spectra, lifts, codes = _scheme(part.sigma, a, cfg, [(i,) for i in range(atoms)])
    _, hits, total_t, weighted_t, lift_t = _usim_trials(family, a, ac, cfg, codes, lifts, reps)

    hit_rate = float(np.mean(hits))
    bad_mass = 1.0 - hit_rate
    overhead = math.log2(atoms) / cfg.est_length if atoms > 1 else 0.0
    unit = _unit(total_t)
    return _report(
        cfg, part.weights, spectra, codes, (total_t, weighted_t, lift_t), overhead,
        kind="universal", estimator_hit_rate=hit_rate, universal_overhead_bits=overhead, grid_size=atoms,
        bad_event_mass=bad_mass,
        bad_event_mse=float(np.sum(total_t[~hits])) / cfg.eval_blocks,
        bad_event_mse_cap=math.sqrt(bad_mass * float(np.mean((total_t * unit) ** 2))) / unit,
    )
