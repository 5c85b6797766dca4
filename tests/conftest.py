import numpy as np
import pytest

from levyhedge import (
    AssetSpec,
    ConstantRatioRule,
    LevyMeasure,
    TimeGrid,
    hedge_residuals,
    natural_coefficients,
    sample_noise_block,
)


@pytest.fixture(scope="session")
def bern_measure() -> LevyMeasure:
    # marks +1/-1, total rate 15, equal odds
    return LevyMeasure.bernoulli(rate=15.0, up_prob=0.5, up=1.0, down=-1.0)


@pytest.fixture(scope="session")
def unit_grid() -> TimeGrid:
    return TimeGrid(horizon=1.0, steps=1000)


def _geometric(initial: float, sigma: float, beta: float, measure: LevyMeasure) -> AssetSpec:
    return AssetSpec(initial, sigma, tuple(np.expm1(beta * measure.locations)))


@pytest.fixture(scope="session")
def contract(bern_measure) -> AssetSpec:
    return _geometric(100.0, 0.15, 0.25, bern_measure)


@pytest.fixture(scope="session")
def asset_high(bern_measure) -> AssetSpec:
    return _geometric(100.0, 0.20, 0.30, bern_measure)


@pytest.fixture(scope="session")
def asset_low(bern_measure) -> AssetSpec:
    return _geometric(100.0, 0.10, 0.20, bern_measure)


# ---------------------------------------------------------------- noise and a per-step reference


def one_path(measure: LevyMeasure, grid: TimeGrid, seed: int, path_index: int):
    """Noise (dW (steps,), counts (steps, n_atoms)) of one path, drawn as a
    1-path block at its own path index."""
    dw, counts = sample_noise_block(measure, grid, seed, path_index, 1)
    return dw[0], counts[0]


def noise_blocks(measure: LevyMeasure, grid: TimeGrid, seed: int, n_paths: int, block: int = 500):
    """Noise (dW, counts) of paths 0 .. n_paths - 1, ``block`` paths at a
    time, so that large Monte Carlo tests hold a few MB at once."""
    for first in range(0, n_paths, block):
        yield sample_noise_block(measure, grid, seed, first, min(block, n_paths - first))


def coarsen(dw: np.ndarray, counts: np.ndarray):
    """The same noise on the grid with half the steps: adjacent steps merged."""
    lead = dw.shape[:-1]
    return dw.reshape(*lead, -1, 2).sum(axis=-1), counts.reshape(*lead, -1, 2, counts.shape[-1]).sum(axis=-2)


def spec_prices(price, specs, measure: LevyMeasure, noise, grid: TimeGrid) -> np.ndarray:
    """Natural prices (..., steps + 1, n_specs) of ``specs`` on shared noise
    (dW, counts), from the block kernel ``price``."""
    return np.stack(
        [price(natural_coefficients(spec, measure), *noise, grid, spec.initial_price) for spec in specs], axis=-1
    )


def ratio_residuals(prices: np.ndarray, ratios) -> np.ndarray:
    """Residual increments dV (..., steps) of the contract prices[..., 0]
    hedged with the assets prices[..., 1:] at constant scaled ratios."""
    c, a = prices[..., 0], prices[..., 1:]
    return hedge_residuals(c, a, ConstantRatioRule(ratios).holdings(c, a))[0]


def euler_loop(provider, dw: np.ndarray, counts: np.ndarray, measure: LevyMeasure, grid: TimeGrid, x0: float):
    """Per-step Euler reference for one path, one Python step at a time.

    ``provider(step, x)`` gives the :class:`SymmetricCoefficients` at the
    step-start state ``x``; each step applies

        x_next = x + alpha dt + beta dW_i + sum_k gamma_k (count_ik - w_k dt).

    An independent oracle for the vectorized block kernels: it shares no
    code with them beyond the coefficient type.
    """
    dt = grid.dt
    values = np.empty(grid.steps + 1)
    values[0] = x = x0
    for i in range(grid.steps):
        c = provider(i, x)
        gam = c.jump_vol_array
        continuous = c.drift * dt + c.brownian_vol * dw[i] - float(gam @ measure.intensities) * dt
        x = x + continuous + float(gam @ counts[i])
        values[i + 1] = x
    return values
