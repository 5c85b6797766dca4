"""Discrete jump measures, seeded noise, and pathwise integration.

All processes in this package are driven by one Brownian motion W and a
finite family of independent Poisson streams, one per jump mark.  A process
with drift ``alpha``, Brownian volatility ``beta`` and jump volatilities
``gamma_k`` (one per mark ``x_k`` with arrival intensity ``w_k``) evolves as

    dX_t = alpha dt + beta dW_t + sum_k gamma_k (dN_k - w_k dt),

i.e. every jump term is compensated.  Paths live on a uniform grid; the
jumps of a step are applied at the step end with coefficients frozen at the
step-start state, which is the grid realization of predictability.

Noise is generated from one master seed with per-path substreams; within a
path the Brownian and jump draws come from disjoint substreams, so enabling
or disabling jumps never perturbs the Brownian increments.  The substream
of path p and stream s (0 Brownian, 1 jumps) is exactly NumPy's
SeedSequence(seed, spawn_key=(p, s)) feeding a PCG64 generator: the seed's
pool is SeedSequence(seed).pool, once per seed, and only the path and
stream words are hashed here, in one broadcast pass over the uint32 path
indices of a block, instead of by one SeedSequence object per stream.
The jump counts are Generator.poisson's draws on the jump substream.  When
the atoms share one small per-step rate they are decoded from one bulk
Generator.random fill per path, as NumPy's sampler reads that stream, and
otherwise drawn by NumPy's call; either way the seeds, the substreams, the
stream and every count are the same.
:func:`sample_noise_block` is the one place where a seed and path indices
become noise: every block of a run or of a check, one path or thousands, is
drawn by it.  Every path is made by the block kernels below.  Each prices a
sequence of coefficient specs over one measure, with one initial value
each, on noise as :func:`sample_noise_block` draws it, dW (..., steps) and
counts (..., steps, n_atoms) with any leading path axes (a (steps,) array
is one path), into one row per spec: shape (n_specs, ..., steps + 1), row k
from the k-th initial value.  Rows are formed one at a time and every
reduction runs along one path's steps or elementwise over the atoms, so a
path's values are bitwise the same in any block and beside any other specs.
A path's noise depends on its index alone, not on the block, the range of
paths or the process it is drawn in, so a Monte Carlo run can split its
paths into ranges of whole blocks and give each range to another process
(sim_harness._range_rows) without changing a byte.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# Path-steps simulated together in one block of paths (at least one path
# per block), read only by _block_paths: 16 paths at 1000 steps, 1 path at
# 50 000 steps, 128 KiB per block array of doubles.  A block pays a fixed
# cost (a seed hash, noise generators, kernel calls) whatever its size.
# Measured on a 2-CPU Intel Xeon VM (Python 3.11, NumPy 2.4), run_scenario
# on fig3 with 512 paths, median of 31 alternated rounds, time relative to
# 8192 on one CPU / two CPUs: 2048 1.41 / 1.43, 4096 1.16 / 1.19, 16384
# 0.95 / 0.90, 32768 0.93 / 0.92, 65536 0.97 / 1.00.  The six verify suites
# at 150 paths (12 rounds) took 0.97 on one CPU at 16384 and 1.00 at 32768,
# and 0.96 against 1.03 on two, so the block is not larger.  Results do not
# depend on it.
_BLOCK_PATH_STEPS = 16384

# Largest per-step jump rate at which sample_noise_block decodes the counts
# of a one-rate measure from uniforms (_knuth_counts) instead of calling
# Generator.poisson per path.  The decode saves NumPy's per-draw work but
# fills a margin of uniforms and resolves runs of arrivals in Python, both
# growing with the rate.  Measured on a 2-CPU Intel Xeon VM (Python 3.11,
# NumPy 2.4): sample_noise_block per path on blocks of _block_paths paths at
# 7.5 arrivals per atom and unit time, the two alternated block by block
# over 60 rounds, median time decoded / NumPy's call in a default process
# and with MALLOC_MMAP_THRESHOLD_=1e9, by atoms at per-step rates 0.00375 /
# 0.0075 / 0.01 / 0.015 / 0.02 / 0.03: 1 atom 0.86 0.88 0.90 0.90 0.93 0.96
# and 0.83 0.90 0.91 0.92 0.95 0.98 (42 of 60 rounds won at 0.03), 2 atoms
# 0.72 0.76 0.77 0.81 0.84 0.91 and 0.74 0.78 0.80 0.85 0.87 0.93, 5 atoms
# 0.61 0.64 0.67 0.72 0.73 0.82 and 0.64 0.67 0.63 0.72 0.76 0.84.  Near
# 0.04 it ties (0.97 to 1.01), at 0.05 two atoms lose (1.03, 23 and 12 of
# 60 rounds won), and at fig3's 4 and 1 steps (1.875 and 7.5 per step) the
# decode takes 2.9 to 4.6 times as long.  Results do not depend on it.
_DECODE_MAX_RATE = 0.02

__all__ = [
    "IntegrationError",
    "PriceRangeError",
    "JumpAtom",
    "LevyMeasure",
    "TimeGrid",
    "SymmetricCoefficients",
    "sample_noise_block",
    "compensate",
    "integrate_block",
    "integrate_proportional_block",
    "exponential_prices",
    "product_coefficients",
    "quotient_coefficients",
]


class IntegrationError(RuntimeError):
    """Raised when an integrated path leaves the finite floats."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class PriceRangeError(IntegrationError):
    """Raised when a simulated price is zero, negative or not finite.

    Exponential prices underflow to 0 or overflow to inf when the
    volatilities are extreme for the grid; ``path_index`` and ``step`` name
    the first such grid point (``step`` indexes the grid times).
    """

    def __init__(self, path_index: int, step: int, message: str):
        self.path_index = path_index
        super().__init__(step, message)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _plain(value) -> str:
    """The repr of a rejected value, a NumPy scalar as the Python value it holds."""
    return repr(value.item() if isinstance(value, np.generic) else value)


def _check_count(value, what: str, low: int | None = None, high: int | None = None, why_low: str = "") -> int:
    """Return a count, seed or index as a Python int: the one rule for every
    integer the package accepts.  A bool is not taken for one; ``low`` and
    ``high`` are inclusive bounds, and ``why_low`` is appended to the
    message of a value below ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {_plain(value)}")
    n = int(value)
    if low is not None and n < low:
        raise ValueError(f"{what} must be at least {low}, got {n}{why_low}")
    if high is not None and n > high:
        raise ValueError(f"{what} must be at most {high}, got {n}")
    return n


def _check_real(value, what: str) -> float:
    """Return a finite real number as a float; a bool is not taken for one."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a number, got {_plain(value)}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the largest float
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {_plain(value)}")
    return x


def _real_fields(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` as a finite float."""
    for name in names:
        object.__setattr__(obj, name, _check_real(getattr(obj, name), name))


def _check_jump_vol(values) -> tuple[float, ...]:
    """Jump volatilities as finite floats, each > -1: the one rule that
    keeps every jump factor 1 + gamma_k of a stochastic exponential positive."""
    jump_vol = tuple(_check_real(g, "jump_vol") for g in values)
    if any(g <= -1.0 for g in jump_vol):
        raise ValueError("jump_vol (jump volatilities) must be > -1")
    return jump_vol


@dataclass(frozen=True)
class JumpAtom:
    """One jump mark with its expected arrival rate per unit time."""

    location: float
    intensity: float

    def __post_init__(self):
        _real_fields(self, "location", "intensity")
        if self.intensity <= 0.0:
            raise ValueError(f"intensity must be positive, got {self.intensity!r}")


@dataclass(frozen=True)
class LevyMeasure:
    """Finite set of jump atoms; empty means a purely Brownian market."""

    atoms: tuple[JumpAtom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        locs = [a.location for a in self.atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be pairwise distinct")

    @classmethod
    def bernoulli(cls, rate: float, up_prob: float, up: float = 1.0, down: float = -1.0) -> "LevyMeasure":
        """Two-atom measure: marks {up, down} arriving at total rate ``rate``,
        the up mark with probability ``up_prob`` per arrival."""
        rate, up_prob = _check_real(rate, "rate"), _check_real(up_prob, "up_prob")
        if rate <= 0.0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        if not 0.0 < up_prob < 1.0:
            raise ValueError("up_prob must lie in (0, 1)")
        up_rate, down_rate = rate * up_prob, rate * (1.0 - up_prob)
        if up_rate == 0.0 or down_rate == 0.0:
            raise ValueError(f"rate {rate!r} with up_prob {up_prob!r} gives an atom intensity that underflows to 0")
        return cls((JumpAtom(up, up_rate), JumpAtom(down, down_rate)))

    def __len__(self) -> int:
        return len(self.atoms)

    @cached_property
    def locations(self) -> np.ndarray:
        return _readonly(np.array([a.location for a in self.atoms], dtype=float))

    @cached_property
    def intensities(self) -> np.ndarray:
        return _readonly(np.array([a.intensity for a in self.atoms], dtype=float))

    @property
    def total_intensity(self) -> float:
        return float(self.intensities.sum())


def _check_atoms(n_entries: int, measure: LevyMeasure, what: str) -> None:
    """The one per-atom length rule: ``what`` holds one jump entry per atom
    of ``measure``."""
    if n_entries != len(measure):
        raise ValueError(f"{what} has {n_entries} jump entries but the measure has {len(measure)} atoms")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = horizon with n = steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        _real_fields(self, "horizon")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        object.__setattr__(self, "steps", _check_count(self.steps, "steps", 1))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def times(self) -> np.ndarray:
        return _readonly(np.linspace(0.0, self.horizon, self.steps + 1))


@dataclass(frozen=True)
class SymmetricCoefficients:
    """Constant coefficient triple (drift, brownian_vol, jump_vol) over a measure.

    ``jump_vol`` holds one gamma(x_k) per atom of ``measure``, in atom order.
    The block kernels read three constants of a spec, each computed once
    per spec object on first use and then cached: ``jump_vol_array``, the
    jump volatilities as a read-only float array; the compensator
    sum_k gamma_k w_k; and the log jump factors log(1 + gamma_k), read by
    :func:`exponential_prices`.  Every gamma_k is above -1 by construction
    (:func:`_check_jump_vol`), so each log jump factor is finite.
    """

    drift: float
    brownian_vol: float
    jump_vol: tuple[float, ...]
    measure: LevyMeasure

    def __post_init__(self):
        _real_fields(self, "drift", "brownian_vol")
        object.__setattr__(self, "jump_vol", _check_jump_vol(self.jump_vol))
        _check_atoms(len(self.jump_vol), self.measure, "jump_vol")

    @cached_property
    def jump_vol_array(self) -> np.ndarray:
        return _readonly(np.array(self.jump_vol, dtype=float))

    @cached_property
    def _compensator(self) -> float:
        return compensate(self.measure, self.jump_vol_array)

    @cached_property
    def _log_jump_factors(self) -> tuple[float, ...]:
        return tuple(np.log1p(self.jump_vol_array).tolist())


def _check_paths(first_path, n_paths) -> tuple[int, int]:
    """Path indices first_path .. first_path + n_paths - 1 as Python ints;
    each must fit one 32-bit word of a substream key."""
    first_path = _check_count(first_path, "first_path", 0)
    n_paths = _check_count(n_paths, "n_paths", 1)
    if first_path + n_paths > 2**32:
        raise ValueError(
            f"path indices must lie in [0, 2**32), got {first_path} .. {first_path + n_paths - 1}"
        )
    return first_path, n_paths


# NumPy's SeedSequence hash (pool size 4), on the Python ints of _seed_pool
# and the uint32 arrays of _substream_seeds alike: a value is masked to 32
# bits before its shift, and array products wrap modulo 2**32 (silently in
# one or more dimensions).  The first step makes the array the others update.
_MASK32 = 0xFFFFFFFF


def _hash_constants(value: int, multiplier: int):
    """The (xor, multiplier) pairs of successive hash calls: the constant
    advances by one multiplication per call, whatever the data."""
    while True:
        following = (value * multiplier) & _MASK32
        yield value, following
        value = following


def _hashmix(value, xor, multiplier):
    value = value ^ xor
    value *= multiplier
    value &= _MASK32
    value ^= value >> 16
    return value


def _mix(x, y):
    value = 0xCA01F9DD * x - 0x4973F715 * y
    value &= _MASK32
    value ^= value >> 16
    return value


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int):
    """The part of SeedSequence(seed, spawn_key=(p, s))'s hash that depends
    on the seed alone, as uint32 arrays that broadcast against a row of path
    words: SeedSequence(seed).pool, (4, 1); the xor and multiplier that mix
    the path word into each pool word, (4, 1) each, which follow the four
    hash constants per seed word (at least four words) that made the pool;
    each stream word's hash, (2, 4, 1); and the xor and multiplier of
    generate_state, which hashes the pool, cycled twice, into the eight
    32-bit words of four uint64 seed words, (8, 1) each."""
    from numpy.random import SeedSequence

    pool = SeedSequence(seed).pool
    constants = _hash_constants(0x43B0D7E5, 0x931E8875)
    for _ in range(4 * max(4, (seed.bit_length() + 31) // 32)):
        next(constants)
    path_xor, path_multiplier = zip(*(next(constants) for _ in range(4)))
    stream_constants = [next(constants) for _ in range(4)]
    streams = [[_hashmix(stream, *c) for c in stream_constants] for stream in (0, 1)]
    state_constants = _hash_constants(0x8B51F9DD, 0x58F38DED)
    state_xor, state_multiplier = zip(*(next(state_constants) for _ in range(8)))
    parts = (pool, path_xor, path_multiplier, streams, state_xor, state_multiplier)
    return tuple(_readonly(np.array(part, dtype=np.uint32)[..., np.newaxis]) for part in parts)


def _substream_seeds(seed: int, paths: np.ndarray) -> np.ndarray:
    """The PCG64 seed words of ``paths``, a 1-D uint32 array of path
    indices: shape (len(paths), 2, 4), uint64.

    Row [i, s] is bitwise SeedSequence(seed, spawn_key=(paths[i], s))
    .generate_state(4, np.uint64): the same hash, run in one broadcast pass
    over the n path words on the cached seed pool.  The path word is mixed
    into the pool's (4, n) words once for both streams, each stream word
    into (2, 4, n) words, and generate_state makes (2, 8, n) words.
    """
    pool, path_xor, path_multiplier, streams, state_xor, state_multiplier = _seed_pool(_check_count(seed, "seed", 0))
    path_pool = _mix(pool, _hashmix(paths, path_xor, path_multiplier))
    stream_pool = _mix(path_pool, streams)
    state = _hashmix(np.concatenate((stream_pool, stream_pool), axis=1), state_xor, state_multiplier)
    # (2, 8, n) words to (n, 2, 8), C-contiguous; each uint64 seed word is a
    # little-endian pair of 32-bit words
    state = np.ascontiguousarray(state.transpose(2, 0, 1), dtype="<u4")
    return state.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seeded_generator():
    """``make(words)``: a Generator(PCG64) seeded with four hashed uint64
    words, as default_rng(SeedSequence) would be.  numpy.random is imported
    on the first draw, not with the package."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        """A seed sequence whose PCG64 state words are already hashed."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a hashed seed holds exactly 4 uint64 words")
            return self.words

    def make(words: np.ndarray):
        return Generator(PCG64(HashedSeed(words)))

    return make


def _uniform_margin(draws: int, rate: float) -> int:
    """Uniforms filled per path beyond one per draw.  A path's arrivals are
    Poisson with mean draws * rate and exceed the margin with probability
    below 1e-14; a path that needs more is filled again."""
    mean = draws * rate
    return math.ceil(mean + 8.0 * math.sqrt(mean)) + 8


def _resolve_runs(uniforms: np.ndarray, limit: float, hits: np.ndarray, linked: np.ndarray, counts: np.ndarray) -> None:
    """Set the arrivals ``counts`` of the hits in runs, for
    :func:`_knuth_counts`: ``hits`` are the flat positions of the uniforms
    above ``limit`` in the C-contiguous ``uniforms``, and hit i + 1 is the
    uniform right after hit i, in the same row, for each i in ``linked``.
    A run of such hits starts a draw and is resolved one product at a time,
    as Generator.poisson multiplies: a hit that starts a draw gets its
    count, a hit read inside another draw gets 0."""
    flat, width = uniforms.reshape(-1), uniforms.shape[1]
    runs = []  # [first, last] hit of each run
    for i in linked.tolist():
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    for first, last in runs:
        start = int(hits[first])
        # a draw ends at the first uniform at most the limit, or at the row's end
        run = flat[start : min(int(hits[last]) + 2, (start // width + 1) * width)].tolist()
        counts[first : last + 1] = 0
        pos = 0
        while pos <= last - first:
            begin, product, count = pos, run[pos], 0
            while product > limit:
                count += 1
                pos += 1
                if pos == len(run):
                    break
                product *= run[pos]
            counts[first + begin] = count
            pos += 1


def _knuth_counts(uniforms: np.ndarray, limit: float, draws: int, refill) -> np.ndarray:
    """Poisson counts (n_paths, draws), int64, decoded from each row of the
    C-contiguous ``uniforms`` exactly as Generator.poisson draws them from
    the same stream at a rate below 10 (Knuth's product of uniforms).  A
    draw multiplies uniforms until the product is at most ``limit`` =
    exp(-rate) and counts the uniforms before that one, so a draw of count
    k reads k + 1 uniforms.  A uniform above the limit (a hit) right after
    one at most the limit starts a draw of at least one arrival; when the
    next uniform is not a hit, of exactly one.  A row whose draws need more
    uniforms than it holds is decoded again from ``refill(row, width)``,
    its stream's first ``width`` uniforms.  The counts are written,
    C-contiguous, over the memory of ``uniforms``."""
    n_paths, width = uniforms.shape
    hits = np.flatnonzero(uniforms > limit)
    rows, cols = np.divmod(hits, width)
    counts = np.ones(len(hits), dtype=np.int64)
    linked = np.flatnonzero((np.diff(hits) == 1) & (cols[:-1] != width - 1))
    if len(linked):
        _resolve_runs(uniforms, limit, hits, linked, counts)
        arrivals = counts > 0
        rows, cols, counts = rows[arrivals], cols[arrivals], counts[arrivals]
    # a draw's index is its first uniform's less the arrivals before it in its row
    before = np.cumsum(counts) - counts
    index = cols - (before - before[np.searchsorted(rows, rows)])
    kept = index < draws
    rows, index, counts = rows[kept], index[kept], counts[kept]
    short = np.flatnonzero(draws + np.bincount(rows, weights=counts, minlength=n_paths) > width).tolist()
    redrawn = [
        _knuth_counts(refill(row, 2 * width)[np.newaxis], limit, draws, lambda _, w, row=row: refill(row, w))
        for row in short
    ]
    out = uniforms.reshape(-1)[: n_paths * draws].view(np.int64).reshape(n_paths, draws)
    out.fill(0)
    out[rows, index] = counts
    for row, row_counts in zip(short, redrawn):
        out[row] = row_counts[0]
    return out


def sample_noise_block(
    measure: LevyMeasure, grid: TimeGrid, seed: int, first_path: int, n_paths: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the noise of paths first_path .. first_path + n_paths - 1: the
    one place where a seed and path indices become noise.

    Returns the Brownian increments, shape (n_paths, steps), and the jump
    counts, shape (n_paths, steps, n_atoms), C-contiguous.  Every path is
    drawn from its own substreams: the Brownian draws from
    SeedSequence(seed, spawn_key=(path_index, 0)) and the jump draws from
    spawn_key (path_index, 1), exactly, with the seeds of all n_paths paths
    hashed in one pass.  So a path's noise does not depend on the block it is
    drawn in, paths are independent, and the Brownian part is invariant to
    the jump measure.  Path indices must lie below 2**32; the seed must be
    a nonnegative integer.

    The counts are Generator.poisson's draws on the jump substream, in C
    order.  When every atom has the same per-step rate, at most
    _DECODE_MAX_RATE, each path's substream fills one row of uniforms with
    one Generator.random call and :func:`_knuth_counts` decodes the counts
    from it as NumPy's sampler would draw them: the same stream, the same
    counts.  Other blocks, with unequal rates or a higher rate, keep
    NumPy's call per path, which is faster there (see _DECODE_MAX_RATE),
    and a rate beyond NumPy's sampler fails in that call.
    """
    first_path, n_paths = _check_paths(first_path, n_paths)
    seeds = _substream_seeds(seed, np.arange(first_path, first_path + n_paths, dtype=np.uint32))
    steps, n_atoms = grid.steps, len(measure)
    scale = np.sqrt(grid.dt)
    rates = measure.intensities * grid.dt
    if n_atoms and (rates == rates[0]).all():
        # a scalar rate draws the same counts, element by element in C
        # order, without broadcasting a rate array
        rates = float(rates[0])
    decode = isinstance(rates, float) and rates <= _DECODE_MAX_RATE
    generator = _seeded_generator()
    dw = np.empty((n_paths, steps))
    if decode:
        draws = steps * n_atoms
        uniforms = np.empty((n_paths, draws + _uniform_margin(draws, rates)))
    else:
        counts = np.empty((n_paths, steps, n_atoms), dtype=np.int64)
    for row, (brownian, jumps) in enumerate(seeds):
        generator(brownian).standard_normal(steps, out=dw[row])
        if decode:
            generator(jumps).random(out=uniforms[row])
        elif n_atoms:
            counts[row] = generator(jumps).poisson(rates, size=(steps, n_atoms))
    if decode:
        counts = _knuth_counts(
            uniforms, math.exp(-rates), draws, lambda row, width: generator(seeds[row, 1]).random(width)
        ).reshape(n_paths, steps, n_atoms)
    # normal(0.0, scale) draws 0.0 + scale * z: the same double as scale * z
    # for every z but an exact zero, where only the sign of a zero changes
    dw *= scale
    return dw, counts


def _block_paths(steps: int) -> int:
    """Paths in one block of :func:`_noise_blocks` on a grid of ``steps``
    steps: at most _BLOCK_PATH_STEPS path-steps, and at least one path."""
    return max(1, _BLOCK_PATH_STEPS // steps)


def _noise_blocks(measure: LevyMeasure, grid: TimeGrid, seed: int, start: int, stop: int):
    """Noise of paths start .. stop - 1 as (first_path, dW, counts), one
    :func:`sample_noise_block` call per block of :func:`_block_paths` paths,
    the first block at ``start``.  The block size changes no result.  A range
    that starts at a multiple of the block size is cut into the same blocks
    as the whole run.
    """
    start, n_paths = _check_paths(start, _check_count(stop, "stop") - start)
    block = _block_paths(grid.steps)
    for first in range(start, start + n_paths, block):
        yield (first, *sample_noise_block(measure, grid, seed, first, min(block, start + n_paths - first)))


def compensate(measure: LevyMeasure, jump_vol) -> float:
    """Compensator integral of a jump volatility: sum_k gamma(x_k) * intensity_k."""
    gam = np.asarray(jump_vol, dtype=float)
    _check_atoms(len(gam), measure, "jump_vol")
    return float(gam @ measure.intensities)


def _check_same_measure(a: SymmetricCoefficients, b: SymmetricCoefficients) -> LevyMeasure:
    if a.measure != b.measure:
        raise ValueError("coefficients are defined over different measures")
    return a.measure


_Specs = Sequence[SymmetricCoefficients]  # the specs of one block kernel call, over one measure


def _check_specs(specs: _Specs, x0s, brownian_increments: np.ndarray, jump_counts: np.ndarray, grid: TimeGrid) -> None:
    """Reject anything but one or more specs over one measure, one initial
    value each, and noise whose shape does not fit the grid and that measure."""
    if not specs or len(x0s) != len(specs):
        raise ValueError(f"need one initial value per spec and at least one spec, got {len(x0s)} for {len(specs)}")
    for spec in specs[1:]:
        _check_same_measure(specs[0], spec)
    if brownian_increments.shape[-1:] != (grid.steps,) or jump_counts.shape[:-1] != brownian_increments.shape:
        raise ValueError(f"noise must have shapes (..., {grid.steps}) and (..., {grid.steps}, n_atoms) for this grid")
    _check_atoms(jump_counts.shape[-1], specs[0].measure, "jump_counts")


def _euler(
    specs: _Specs,
    brownian_increments: np.ndarray,
    jump_counts: np.ndarray,
    grid: TimeGrid,
    x0s: Sequence[float],
    proportional: bool,
) -> np.ndarray:
    """Euler values of constant-coefficient dynamics, shaped as the module
    docstring says.  Each step adds
    alpha dt + beta dW_i + sum_k gamma_k (count_ik - w_k dt), scaled by the
    step-start state when ``proportional``.  Raises
    :class:`IntegrationError` at the first non-finite state, by spec, then
    path, then step."""
    _check_specs(specs, x0s, brownian_increments, jump_counts, grid)
    dt = grid.dt
    values = np.empty((len(specs),) + brownian_increments.shape[:-1] + (grid.steps + 1,))
    # overflow produces non-finite states that are reported as typed errors
    with np.errstate(over="ignore", invalid="ignore"):
        for coeffs, x0, row in zip(specs, x0s, values):
            jump_terms = np.zeros(brownian_increments.shape)
            for k, g in enumerate(coeffs.jump_vol):
                jump_terms += jump_counts[..., k] * g
            inc = coeffs.drift * dt + coeffs.brownian_vol * brownian_increments + jump_terms
            inc -= coeffs._compensator * dt
            row[..., 0] = x0
            if proportional:
                np.cumprod(1.0 + inc, axis=-1, out=row[..., 1:])
                row[..., 1:] *= x0
            else:
                np.cumsum(inc, axis=-1, out=row[..., 1:])
                row[..., 1:] += x0
    if not np.isfinite(values).all():
        rows = values.reshape(len(specs), -1, grid.steps + 1)
        _, path, index = (int(i) for i in np.argwhere(~np.isfinite(rows))[0])
        where = f" on block path {path}" if values.ndim > 2 else ""
        raise IntegrationError(index - 1, f"non-finite state{where} at step {index - 1}")
    return values


def integrate_block(
    specs: _Specs, brownian_increments: np.ndarray, jump_counts: np.ndarray, grid: TimeGrid, x0s: Sequence[float]
) -> np.ndarray:
    """Euler values of constant-coefficient compensated dynamics for a block
    of paths, one row per spec (see the module docstring).  Raises
    :class:`IntegrationError` at the first non-finite state."""
    return _euler(specs, brownian_increments, jump_counts, grid, x0s, proportional=False)


def integrate_proportional_block(
    specs: _Specs, brownian_increments: np.ndarray, jump_counts: np.ndarray, grid: TimeGrid, x0s: Sequence[float]
) -> np.ndarray:
    """Euler values of proportional dynamics dX = X_left (alpha dt + beta dW
    + jumps) for a block of paths, shaped as :func:`integrate_block`."""
    return _euler(specs, brownian_increments, jump_counts, grid, x0s, proportional=True)


def exponential_prices(
    specs: _Specs, brownian_increments: np.ndarray, jump_counts: np.ndarray, grid: TimeGrid, x0s: Sequence[float]
) -> np.ndarray:
    """Grid values of the stochastic exponential for a block of paths, one
    row per spec (see the module docstring),

        X_t = x0 exp( (alpha - beta^2/2) t + beta W_t
                      + sum_jumps log(1 + gamma(x)) - t sum_k gamma_k w_k ).

    Every gamma_k of a spec is above -1 by construction.  Each atom's counts
    are converted once per call to one contiguous float array.  A row's
    per-step log increments beta dW_i + sum_k log(1 + gamma_k) count_ik are
    added elementwise in atom order (a matrix product may reorder the sum)
    and accumulated by one cumsum into columns 1 .. steps, with column 0
    held at exponent 0.0.  The drift term on the grid times, exp and the
    x0 scale then run over whole contiguous rows, and column 0 is set to
    x0 last, so it is x0 exactly and every other column is the double of
    adding the drift to that column alone.
    """
    _check_specs(specs, x0s, brownian_increments, jump_counts, grid)
    values = np.empty((len(specs),) + brownian_increments.shape[:-1] + (grid.steps + 1,))
    jumps = [jump_counts[..., k].astype(float) for k in range(jump_counts.shape[-1])]
    for coeffs, x0, row in zip(specs, x0s, values):
        log_steps = coeffs.brownian_vol * brownian_increments
        for jump, factor in zip(jumps, coeffs._log_jump_factors):
            log_steps += jump * factor
        row[..., 0] = 0.0
        np.cumsum(log_steps, axis=-1, out=row[..., 1:])
        del log_steps  # one row's temporaries at a time
        # _checked_prices reports a price that overflowed; an infinite drift
        # times t_0 = 0 is a NaN only in column 0, which is set last
        with np.errstate(over="ignore", invalid="ignore"):
            row += (coeffs.drift - 0.5 * coeffs.brownian_vol**2 - coeffs._compensator) * grid.times
            np.exp(row, out=row)
            row *= x0
        row[..., 0] = x0
    return values


def _checked_prices(values: np.ndarray, names: Sequence[str], first_path: int) -> np.ndarray:
    """``values`` (n_specs, paths, steps + 1), row k the prices of
    ``names[k]`` on paths ``first_path``, ``first_path + 1``, ...; raises
    :class:`PriceRangeError` at the first price (by spec, then path, then
    step) that underflowed to zero or left the finite floats, so no
    statistic is computed from it."""
    if not (values.min() > 0.0 and values.max() < np.inf):  # NaN fails both
        spec, row, step = (int(i) for i in np.argwhere(~((values > 0.0) & (values < np.inf)))[0])
        raise PriceRangeError(
            first_path + row,
            step,
            f"{names[spec]} price {float(values[spec, row, step])!r} on path {first_path + row} at step {step} "
            "is not positive and finite",
        )
    return values


def product_coefficients(a: SymmetricCoefficients, b: SymmetricCoefficients) -> SymmetricCoefficients:
    """Coefficients of X*Y for proportional processes X, Y over the same measure."""
    measure = _check_same_measure(a, b)
    ga, gb = a.jump_vol_array, b.jump_vol_array
    drift = a.drift + b.drift + a.brownian_vol * b.brownian_vol + compensate(measure, ga * gb)
    return SymmetricCoefficients(
        drift, a.brownian_vol + b.brownian_vol, tuple(ga + gb + ga * gb), measure
    )


def quotient_coefficients(a: SymmetricCoefficients, b: SymmetricCoefficients) -> SymmetricCoefficients:
    """Coefficients of X/Y for proportional processes X, Y over the same measure."""
    measure = _check_same_measure(a, b)
    ga, gb = a.jump_vol_array, b.jump_vol_array
    gq = (ga - gb) / (1.0 + gb)
    drift = (
        a.drift
        - b.drift
        - b.brownian_vol * (a.brownian_vol - b.brownian_vol)
        - compensate(measure, gb * gq)
    )
    return SymmetricCoefficients(drift, a.brownian_vol - b.brownian_vol, tuple(gq), measure)
