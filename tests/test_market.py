import numpy as np
import pytest

from conftest import coarsen, noise_blocks, one_path
from levyhedge import (
    AssetSpec,
    GeometricBernoulliSpec,
    JumpAtom,
    LevyMeasure,
    PricingKernelSpec,
    SymmetricCoefficients,
    TimeGrid,
    benchmark_coefficients,
    domestic_drift,
    exponential_prices,
    from_natural,
    integrate_proportional_block,
    kernel_coefficients,
    natural_coefficients,
    sample_noise_block,
    to_natural,
)

SEED = 61502


def random_kernel(rng, n_atoms):
    return PricingKernelSpec(
        float(rng.uniform(0.0, 0.1)),
        float(rng.uniform(-0.5, 0.5)),
        tuple(rng.uniform(-0.5, 0.9, n_atoms)),
    )


def domestic_coefficients(asset, kernel, measure):
    """Proportional coefficients of the domestic price: the no-arbitrage
    drift with the asset's own volatilities."""
    return SymmetricCoefficients(domestic_drift(asset, kernel, measure), asset.brownian_vol, asset.jump_vol, measure)


def natural_prices(asset, measure, noise, grid):
    return exponential_prices(natural_coefficients(asset, measure), *noise, grid, asset.initial_price)


# ---------------------------------------------------------------- specs


def test_kernel_rejects_jump_mpr_at_or_above_one():
    with pytest.raises(ValueError):
        PricingKernelSpec(0.0, 0.0, (1.0,))


def test_asset_rejects_bad_inputs():
    with pytest.raises(ValueError):
        AssetSpec(0.0, 0.1)
    with pytest.raises(ValueError):
        AssetSpec(100.0, 0.1, (-1.0,))


def test_geometric_spec_converts_marks_to_jump_vols(bern_measure):
    spec = GeometricBernoulliSpec(100.0, 0.2, 0.3).to_asset_spec(bern_measure)
    assert spec.jump_vol[0] == pytest.approx(np.exp(0.3) - 1.0, abs=1e-15)
    assert spec.jump_vol[1] == pytest.approx(np.exp(-0.3) - 1.0, abs=1e-15)


# ---------------------------------------------------------------- kernel and benchmark


def test_null_kernel_path_is_one(bern_measure, unit_grid):
    noise = one_path(bern_measure, unit_grid, SEED, 0)
    coeffs = kernel_coefficients(PricingKernelSpec(0.0, 0.0, (0.0, 0.0)), bern_measure)
    assert np.all(exponential_prices(coeffs, *noise, unit_grid, 1.0) == 1.0)


def test_deterministic_discounting(bern_measure, unit_grid):
    noise = one_path(bern_measure, unit_grid, SEED, 0)
    coeffs = kernel_coefficients(PricingKernelSpec(0.05, 0.0, (0.0, 0.0)), bern_measure)
    pi = exponential_prices(coeffs, *noise, unit_grid, 1.0)
    np.testing.assert_allclose(pi, np.exp(-0.05 * unit_grid.times), rtol=1e-14)


def test_kernel_coefficients_negate_the_kernel_parameters(bern_measure):
    kernel = PricingKernelSpec(0.03, 0.2, (0.3, -0.4))
    coeffs = kernel_coefficients(kernel, bern_measure)
    assert (coeffs.drift, coeffs.brownian_vol, coeffs.jump_vol) == (-0.03, -0.2, (-0.3, 0.4))
    assert coeffs.measure == bern_measure
    with pytest.raises(ValueError):
        kernel_coefficients(kernel, LevyMeasure())


def test_kernel_times_benchmark_is_one(unit_grid):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for trial in range(20):
        n_atoms = int(rng.integers(0, 4))
        locs = np.unique(rng.normal(0.0, 1.0, n_atoms))
        m = LevyMeasure(tuple(JumpAtom(float(x), float(w)) for x, w in zip(locs, rng.uniform(0.5, 10.0, len(locs)))))
        kernel = random_kernel(rng, len(m))
        noise = one_path(m, unit_grid, SEED + 1, trial)
        pi = exponential_prices(kernel_coefficients(kernel, m), *noise, unit_grid, 1.0)
        xi = exponential_prices(benchmark_coefficients(kernel, m), *noise, unit_grid, 1.0)
        worst = max(worst, float(np.abs(pi * xi - 1.0).max()))
    assert worst <= 1e-10


def test_benchmark_coefficients_worked_example():
    # r=0, lambda=0.1, Lambda=0.2 on a single atom of intensity 1:
    # drift = 0.01 + 0.04/0.8 = 0.06, beta = 0.1, gamma = 0.25
    m = LevyMeasure((JumpAtom(1.0, 1.0),))
    out = benchmark_coefficients(PricingKernelSpec(0.0, 0.1, (0.2,)), m)
    assert out.drift == pytest.approx(0.06, abs=1e-15)
    assert out.brownian_vol == pytest.approx(0.1, abs=1e-15)
    assert out.jump_vol[0] == pytest.approx(0.25, abs=1e-15)
    assert out.drift == pytest.approx(0.0 + 0.1**2 + 0.2**2 / (1 - 0.2) * 1.0, abs=1e-16)


def test_null_kernel_benchmark_grows_at_short_rate():
    m = LevyMeasure()
    out = benchmark_coefficients(PricingKernelSpec(0.03, 0.0, ()), m)
    assert out.drift == 0.03
    assert out.brownian_vol == 0.0


# ---------------------------------------------------------------- unit transforms


def test_to_natural_worked_example():
    kernel = PricingKernelSpec(0.0, 0.1, (0.2,))
    asset = AssetSpec(100.0, 0.2, (0.5,))
    nat = to_natural(asset, kernel)
    assert nat.brownian_vol == pytest.approx(0.1, abs=1e-15)
    assert nat.jump_vol[0] == pytest.approx(0.5 * 0.8 - 0.2, abs=1e-15)
    assert nat.initial_price == 100.0


def test_null_kernel_leaves_asset_unchanged():
    kernel = PricingKernelSpec(0.0, 0.0, (0.0, 0.0))
    asset = AssetSpec(42.0, 0.3, (0.4, -0.2))
    nat = to_natural(asset, kernel)
    assert nat == asset


def test_natural_round_trip_is_exact():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(50):
        n = int(rng.integers(0, 4))
        kernel = random_kernel(rng, n)
        asset = AssetSpec(float(rng.uniform(1, 500)), float(rng.normal(0, 0.4)), tuple(rng.uniform(-0.7, 2.0, n)))
        back = from_natural(to_natural(asset, kernel), kernel)
        assert back.initial_price == pytest.approx(asset.initial_price, abs=1e-12)
        assert back.brownian_vol == pytest.approx(asset.brownian_vol, abs=1e-12)
        np.testing.assert_allclose(back.jump_vol, asset.jump_vol, rtol=0, atol=1e-12)


def test_domestic_drift_worked_example():
    m = LevyMeasure((JumpAtom(1.0, 2.0),))
    kernel = PricingKernelSpec(0.02, 0.1, (0.5,))
    asset = AssetSpec(100.0, 0.2, (0.4,))
    assert domestic_drift(asset, kernel, m) == pytest.approx(0.02 + 0.1 * 0.2 + 0.5 * 0.4 * 2.0, abs=1e-15)
    assert domestic_drift(asset, kernel, m) == pytest.approx(0.44, abs=1e-15)


def test_null_kernel_domestic_drift_is_short_rate(bern_measure):
    kernel = PricingKernelSpec(0.0, 0.0, (0.0, 0.0))
    asset = AssetSpec(100.0, 0.2, (0.1, -0.1))
    assert domestic_drift(asset, kernel, bern_measure) == 0.0


def test_deflated_domestic_price_is_a_martingale(bern_measure, unit_grid):
    kernel = PricingKernelSpec(0.04, 0.2, (0.3, -0.4))
    asset = AssetSpec(100.0, 0.25, (0.35, -0.2))
    dom = domestic_coefficients(asset, kernel, bern_measure)
    pi_coeffs = kernel_coefficients(kernel, bern_measure)
    n = 3000
    deflated = np.concatenate(
        [
            exponential_prices(pi_coeffs, *noise, unit_grid, 1.0)[:, -1]
            * exponential_prices(dom, *noise, unit_grid, asset.initial_price)[:, -1]
            for noise in noise_blocks(bern_measure, unit_grid, SEED + 3, n)
        ]
    )
    se = deflated.std(ddof=1) / np.sqrt(n)
    assert abs(deflated.mean() - asset.initial_price) <= 3.0 * se


def test_natural_price_is_kernel_times_domestic(bern_measure, unit_grid):
    kernel = PricingKernelSpec(0.04, 0.2, (0.3, -0.4))
    asset = AssetSpec(80.0, 0.25, (0.35, -0.2))
    noise = one_path(bern_measure, unit_grid, SEED, 1)
    dom = exponential_prices(domestic_coefficients(asset, kernel, bern_measure), *noise, unit_grid, asset.initial_price)
    pi = exponential_prices(kernel_coefficients(kernel, bern_measure), *noise, unit_grid, 1.0)
    nat = natural_prices(to_natural(asset, kernel), bern_measure, noise, unit_grid)
    np.testing.assert_allclose(nat, pi * dom, rtol=1e-10)


# ---------------------------------------------------------------- natural price paths


def test_zero_vol_price_is_constant(bern_measure, unit_grid):
    noise = one_path(bern_measure, unit_grid, SEED, 0)
    assert np.all(natural_prices(AssetSpec(100.0, 0.0, (0.0, 0.0)), bern_measure, noise, unit_grid) == 100.0)


def test_single_jump_multiplies_the_price():
    m = LevyMeasure((JumpAtom(1.0, 5.0),))
    grid = TimeGrid(1.0, 4)
    counts = np.array([[0], [1], [0], [0]])
    sigma_jump = 0.6
    path = natural_prices(AssetSpec(100.0, 0.0, (sigma_jump,)), m, (np.zeros(4), counts), grid)
    # jump-free steps only decay at the compensator rate, and the jump
    # multiplies the pre-jump state by exactly 1 + Sigma
    comp = sigma_jump * 5.0 * grid.dt
    assert path[1] == pytest.approx(100.0 * np.exp(-comp), rel=1e-14)
    assert path[2] == pytest.approx(100.0 * np.exp(-2.0 * comp) * (1.0 + sigma_jump), rel=1e-14)
    assert path[4] == pytest.approx(path[2] * np.exp(-2.0 * comp), rel=1e-14)


def test_natural_price_means_stay_at_initial(bern_measure, unit_grid, contract, asset_high, asset_low):
    n = 3000
    specs = (contract, asset_high, asset_low)
    terminals = np.concatenate(
        [
            np.stack([natural_prices(spec, bern_measure, noise, unit_grid)[:, -1] for spec in specs], axis=1)
            for noise in noise_blocks(bern_measure, unit_grid, SEED + 4, n)
        ]
    )
    for j in range(3):
        se = terminals[:, j].std(ddof=1) / np.sqrt(n)
        assert abs(terminals[:, j].mean() - 100.0) <= 3.0 * se


def test_geometric_paths_are_positive(bern_measure, unit_grid, asset_high):
    noise = sample_noise_block(bern_measure, unit_grid, SEED + 5, 0, 20)
    assert np.all(natural_prices(asset_high, bern_measure, noise, unit_grid) > 0.0)


def test_euler_natural_dynamics_converge_to_closed_form(bern_measure):
    # pure-jump asset: first-order convergence, the terminal relative error
    # halves when dt halves (shared noise via pairwise coarsening)
    fine_grid, coarse_grid = TimeGrid(1.0, 2000), TimeGrid(1.0, 1000)

    def errors(asset, seed, terminal_only):
        coeffs = natural_coefficients(asset, bern_measure)
        fine = sample_noise_block(bern_measure, fine_grid, seed, 0, 40)
        out = []
        for grid, noise in ((coarse_grid, coarsen(*fine)), (fine_grid, fine)):
            euler = integrate_proportional_block(coeffs, *noise, grid, 100.0)
            closed = exponential_prices(coeffs, *noise, grid, 100.0)
            if terminal_only:
                out.append(np.abs(euler[:, -1] - closed[:, -1]) / closed[:, -1])
            else:
                out.append(np.abs(euler - closed).max(axis=1))
        return out[1] / out[0]

    asset = AssetSpec(100.0, 0.0, tuple(np.expm1(0.3 * bern_measure.locations)))
    assert np.median(errors(asset, SEED + 6, terminal_only=True)) <= 0.55

    # with a Brownian component the error still shrinks, though more slowly
    asset_b = AssetSpec(100.0, 0.2, tuple(np.expm1(0.3 * bern_measure.locations)))
    assert np.median(errors(asset_b, SEED + 7, terminal_only=False)) < 0.95


def test_mismatched_noise_is_rejected(bern_measure, unit_grid, asset_high):
    noise = one_path(bern_measure, TimeGrid(1.0, 500), SEED, 0)
    with pytest.raises(ValueError):
        natural_prices(asset_high, bern_measure, noise, unit_grid)
    kernel = PricingKernelSpec(0.0, 0.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        exponential_prices(kernel_coefficients(kernel, bern_measure), *noise, unit_grid, 1.0)
