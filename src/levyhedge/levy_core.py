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
or disabling jumps never perturbs the Brownian increments.  Every path is
made by the block kernels below: noise arrays in, value arrays out, with any
leading path axes, so a (steps,) array is one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Path-steps simulated together in one block of paths (at least one path
# per block), read only by _noise_blocks.  It bounds the block arrays to
# ~64 KiB each: 8 paths at 1000 steps, 1 path at 50 000 steps.  Results do
# not depend on it.
_BLOCK_PATH_STEPS = 8192

__all__ = [
    "IntegrationError",
    "PriceRangeError",
    "SingularDenominatorError",
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


class SingularDenominatorError(ValueError):
    """Raised by the quotient transform when a denominator jump factor is 0."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_integer(value, what: str) -> None:
    """Reject a count that is not an integer; a bool is not taken for one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _check_real(value, what: str) -> float:
    """Return a finite real number as a float; a bool is not taken for one."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the largest float
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return x


def _real_fields(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` as a finite float."""
    for name in names:
        object.__setattr__(obj, name, _check_real(getattr(obj, name), name))


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
        if not 0.0 < up_prob < 1.0:
            raise ValueError("up_prob must lie in (0, 1)")
        return cls((JumpAtom(up, rate * up_prob), JumpAtom(down, rate * (1.0 - up_prob))))

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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = horizon with n = steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        _real_fields(self, "horizon")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        _check_integer(self.steps, "steps")
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")

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
    """

    drift: float
    brownian_vol: float
    jump_vol: tuple[float, ...]
    measure: LevyMeasure

    def __post_init__(self):
        _real_fields(self, "drift", "brownian_vol")
        object.__setattr__(self, "jump_vol", tuple(_check_real(g, "jump_vol") for g in self.jump_vol))
        if len(self.jump_vol) != len(self.measure):
            raise ValueError("jump_vol length must equal the measure's atom count")

    @property
    def jump_vol_array(self) -> np.ndarray:
        return np.asarray(self.jump_vol, dtype=float)


def sample_noise_block(
    measure: LevyMeasure, grid: TimeGrid, seed: int, first_path: int, n_paths: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the noise of paths first_path .. first_path + n_paths - 1.

    Returns the Brownian increments, shape (n_paths, steps), and the jump
    counts, shape (n_paths, steps, n_atoms).  Every path is drawn from its
    own substreams, keyed (path_index, 0) for the Brownian and
    (path_index, 1) for the jump draws under the master seed, so a path's
    noise does not depend on the block it is drawn in, paths are
    independent, and the Brownian part is invariant to the jump measure.
    """
    if first_path < 0:
        raise ValueError("path_index must be nonnegative")
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    steps, n_atoms = grid.steps, len(measure)
    scale = np.sqrt(grid.dt)
    rates = measure.intensities * grid.dt
    if n_atoms and (rates == rates[0]).all():
        # a scalar rate draws the same counts, element by element in C
        # order, without broadcasting a rate array
        rates = float(rates[0])
    dw = np.empty((n_paths, steps))
    counts = np.empty((n_paths, steps, n_atoms), dtype=np.int64)
    for row, path_index in enumerate(range(first_path, first_path + n_paths)):
        brownian_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(path_index, 0)))
        dw[row] = brownian_rng.normal(0.0, scale, steps)
        if n_atoms:
            jump_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(path_index, 1)))
            counts[row] = jump_rng.poisson(rates, size=(steps, n_atoms))
    return dw, counts


def _noise_blocks(measure: LevyMeasure, grid: TimeGrid, seed: int, n_paths: int):
    """Noise of paths 0 .. n_paths - 1 as (first_path, dW, counts), one block
    of at most _BLOCK_PATH_STEPS path-steps (and at least one path) at a time."""
    block = max(1, _BLOCK_PATH_STEPS // grid.steps)
    for first in range(0, n_paths, block):
        yield (first, *sample_noise_block(measure, grid, seed, first, min(block, n_paths - first)))


def compensate(measure: LevyMeasure, jump_vol) -> float:
    """Compensator integral of a jump volatility: sum_k gamma(x_k) * intensity_k."""
    gam = np.asarray(jump_vol, dtype=float)
    if gam.shape != (len(measure),):
        raise ValueError("jump_vol length must equal the measure's atom count")
    return float(gam @ measure.intensities) if len(measure) else 0.0


def _check_same_measure(a: SymmetricCoefficients, b: SymmetricCoefficients) -> LevyMeasure:
    if a.measure != b.measure:
        raise ValueError("coefficients are defined over different measures")
    return a.measure


def _check_noise(
    coeffs: SymmetricCoefficients, brownian_increments: np.ndarray, jump_counts: np.ndarray, grid: TimeGrid
) -> None:
    """Reject noise whose shape does not match the grid and the measure."""
    if jump_counts.shape[-1:] != (len(coeffs.measure),):
        raise ValueError("coefficients and noise use different measures")
    if brownian_increments.shape[-1:] != (grid.steps,) or jump_counts.shape[:-1] != brownian_increments.shape:
        raise ValueError(f"noise must have shapes (..., {grid.steps}) and (..., {grid.steps}, n_atoms) for this grid")


def _euler(
    coeffs: SymmetricCoefficients,
    brownian_increments: np.ndarray,
    jump_counts: np.ndarray,
    grid: TimeGrid,
    x0: float,
    proportional: bool,
) -> np.ndarray:
    """Euler values (..., steps + 1) of constant-coefficient dynamics, for
    noise with any leading (path) axes.

    Each step adds alpha dt + beta dW_i + sum_k gamma_k (count_ik - w_k dt),
    scaled by the step-start state when ``proportional``.  Every reduction
    runs along the step axis of one path or elementwise over the atoms, so a
    path's result does not depend on the other paths drawn with it.  Raises
    :class:`IntegrationError` at the first non-finite state.
    """
    _check_noise(coeffs, brownian_increments, jump_counts, grid)
    gam = coeffs.jump_vol_array
    dt = grid.dt
    jump_terms = np.zeros(brownian_increments.shape)
    values = np.empty(brownian_increments.shape[:-1] + (grid.steps + 1,))
    values[..., 0] = x0
    # overflow produces non-finite states that are reported as typed errors
    with np.errstate(over="ignore", invalid="ignore"):
        for k, g in enumerate(gam):
            jump_terms += jump_counts[..., k] * g
        inc = (
            coeffs.drift * dt
            + coeffs.brownian_vol * brownian_increments
            + jump_terms
            - compensate(coeffs.measure, gam) * dt
        )
        if proportional:
            np.cumprod(1.0 + inc, axis=-1, out=values[..., 1:])
            values[..., 1:] *= x0
        else:
            np.cumsum(inc, axis=-1, out=values[..., 1:])
            values[..., 1:] += x0
    if not np.isfinite(values).all():
        path, index = (int(i) for i in np.argwhere(~np.isfinite(values.reshape(-1, grid.steps + 1)))[0])
        where = f" on block path {path}" if values.ndim > 1 else ""
        raise IntegrationError(index - 1, f"non-finite state{where} at step {index - 1}")
    return values


def integrate_block(
    coeffs: SymmetricCoefficients, brownian_increments: np.ndarray, jump_counts: np.ndarray, grid: TimeGrid, x0: float
) -> np.ndarray:
    """Euler values of constant-coefficient compensated dynamics for a block
    of paths.

    ``brownian_increments`` has shape (..., steps) and ``jump_counts``
    (..., steps, n_atoms), as drawn by :func:`sample_noise_block`; the
    result has shape (..., steps + 1) and starts at ``x0``; a (steps,)
    array of increments is one path.  Each path's values are bitwise the
    same in any block.  Raises :class:`IntegrationError` at the first
    non-finite state.
    """
    return _euler(coeffs, brownian_increments, jump_counts, grid, x0, proportional=False)


def integrate_proportional_block(
    coeffs: SymmetricCoefficients, brownian_increments: np.ndarray, jump_counts: np.ndarray, grid: TimeGrid, x0: float
) -> np.ndarray:
    """Euler values of proportional dynamics dX = X_left (alpha dt + beta dW
    + jumps) for a block of paths, shaped as :func:`integrate_block`."""
    return _euler(coeffs, brownian_increments, jump_counts, grid, x0, proportional=True)


def exponential_prices(
    coeffs: SymmetricCoefficients, brownian_increments: np.ndarray, jump_counts: np.ndarray, grid: TimeGrid, x0: float
) -> np.ndarray:
    """Grid values of the stochastic exponential for a block of paths,

        X_t = x0 exp( (alpha - beta^2/2) t + beta W_t
                      + sum_jumps log(1 + gamma(x)) - t sum_k gamma_k w_k ).

    ``brownian_increments`` has shape (..., steps) and ``jump_counts``
    (..., steps, n_atoms), as drawn by :func:`sample_noise_block`; the
    result has shape (..., steps + 1) and starts at ``x0``.  Needs
    1 + gamma_k > 0 for every atom.  The per-step log increments
    beta dW_i + sum_k log(1 + gamma_k) count_ik are accumulated by one
    cumsum; the drift term is taken on the grid times, not accumulated.
    Every reduction runs along the step axis of one path or elementwise over
    the atoms, so each path's values are bitwise the same in any block.
    """
    _check_noise(coeffs, brownian_increments, jump_counts, grid)
    gam = coeffs.jump_vol_array
    if np.any(1.0 + gam <= 0.0):
        raise ValueError("exponential dynamics need jump volatilities > -1")
    log_steps = coeffs.brownian_vol * brownian_increments
    for k, factor in enumerate(np.log1p(gam)):
        log_steps += jump_counts[..., k] * factor
    values = np.empty(brownian_increments.shape[:-1] + (grid.steps + 1,))
    values[..., 0] = x0
    exponent = values[..., 1:]
    np.cumsum(log_steps, axis=-1, out=exponent)
    exponent += (coeffs.drift - 0.5 * coeffs.brownian_vol**2 - compensate(coeffs.measure, gam)) * grid.times[1:]
    with np.errstate(over="ignore"):  # _checked_prices reports a price that overflowed
        np.exp(exponent, out=exponent)
        exponent *= x0
    return values


def _checked_prices(values: np.ndarray, what: str, first_path: int) -> np.ndarray:
    """``values`` (paths, steps + 1) of the prices ``what`` on paths
    ``first_path``, ``first_path + 1``, ...; raises :class:`PriceRangeError`
    at the first price (by path, then step) that underflowed to zero or left
    the finite floats, so no statistic is computed from it."""
    if not (values.min() > 0.0 and values.max() < np.inf):  # NaN fails both
        row, step = (int(i) for i in np.argwhere(~((values > 0.0) & (values < np.inf)))[0])
        raise PriceRangeError(
            first_path + row,
            step,
            f"{what} price {float(values[row, step])!r} on path {first_path + row} at step {step} "
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
    """Coefficients of X/Y for proportional processes X, Y over the same measure.

    Raises :class:`SingularDenominatorError` if any denominator jump factor
    1 + gamma_k vanishes.
    """
    measure = _check_same_measure(a, b)
    ga, gb = a.jump_vol_array, b.jump_vol_array
    denom = 1.0 + gb
    if np.any(denom == 0.0):
        raise SingularDenominatorError("denominator jump factor 1 + gamma is zero at some atom")
    gq = (ga - gb) / denom
    drift = (
        a.drift
        - b.drift
        - b.brownian_vol * (a.brownian_vol - b.brownian_vol)
        - compensate(measure, gb * gq)
    )
    return SymmetricCoefficients(drift, a.brownian_vol - b.brownian_vol, tuple(gq), measure)
