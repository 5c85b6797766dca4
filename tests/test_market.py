import dataclasses

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
    exponential_prices,
    integrate_proportional_block,
    kernel_coefficients,
    natural_coefficients,
    sample_noise_block,
)

SEED = 61502


def random_kernel(rng, n_atoms):
    return PricingKernelSpec(
        float(rng.uniform(0.0, 0.1)),
        float(rng.uniform(-0.5, 0.5)),
        tuple(rng.uniform(-0.5, 0.9, n_atoms)),
    )


def natural_prices(asset, measure, noise, grid):
    return exponential_prices([natural_coefficients(asset, measure)], *noise, grid, [asset.initial_price])[0]


def domestic_price_coefficients(asset, kernel, measure):
    """Proportional coefficients of a domestic price with volatilities
    (sigma, Sigma): the no-arbitrage drift r + lambda sigma + sum_k Lambda_k
    Sigma_k w_k with the asset's own volatilities."""
    jump_part = float((kernel.jump_mpr_array * np.asarray(asset.jump_vol)) @ measure.intensities)
    drift = kernel.short_rate + kernel.brownian_mpr * asset.brownian_vol + jump_part
    return SymmetricCoefficients(drift, asset.brownian_vol, asset.jump_vol, measure)


def natural_units(asset, kernel):
    """The same asset in natural units, by the definition in the ``market``
    docstring: sigma_bar = sigma - lambda, Sigma_bar = Sigma (1 - Lambda) - Lambda."""
    big = kernel.jump_mpr_array
    bar = np.asarray(asset.jump_vol) * (1.0 - big) - big
    return AssetSpec(asset.initial_price, asset.brownian_vol - kernel.brownian_mpr, tuple(bar))


# ---------------------------------------------------------------- specs


def test_kernel_rejects_jump_mpr_at_or_above_one():
    with pytest.raises(ValueError):
        PricingKernelSpec(0.0, 0.0, (1.0,))


def test_asset_rejects_bad_inputs():
    with pytest.raises(ValueError):
        AssetSpec(0.0, 0.1)
    with pytest.raises(ValueError):
        AssetSpec(100.0, 0.1, (-1.0,))


@pytest.mark.parametrize("bad", [-1.0, -1.5])
def test_asset_rejects_jump_vol_at_or_below_minus_one(bad):
    good = AssetSpec(100.0, 0.1, (0.2, 0.3))
    for make in (lambda: AssetSpec(100.0, 0.1, (0.2, bad)), lambda: dataclasses.replace(good, jump_vol=(bad, 0.3))):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == "jump_vol (jump volatilities) must be > -1"


def test_asset_accepts_jump_vol_just_above_minus_one():
    gamma = np.nextafter(-1.0, 0.0)
    assert AssetSpec(100.0, 0.1, (gamma,)).jump_vol == (gamma,)


_ONE_ATOM = LevyMeasure((JumpAtom(1.0, 2.0),))

# every numeric field of the value types, with valid arguments for the rest
_NUMERIC_FIELDS = [
    (JumpAtom, {"location": 1.0, "intensity": 2.0}, field)
    for field in ("location", "intensity")
] + [
    (TimeGrid, {"horizon": 1.0, "steps": 10}, field)
    for field in ("horizon", "steps")
] + [
    (SymmetricCoefficients, {"drift": 0.0, "brownian_vol": 0.1, "jump_vol": (0.2,), "measure": _ONE_ATOM}, field)
    for field in ("drift", "brownian_vol", "jump_vol")
] + [
    (PricingKernelSpec, {"short_rate": 0.01, "brownian_mpr": 0.1, "jump_mpr": (0.2,)}, field)
    for field in ("short_rate", "brownian_mpr", "jump_mpr")
] + [
    (AssetSpec, {"initial_price": 100.0, "brownian_vol": 0.1, "jump_vol": (0.2,)}, field)
    for field in ("initial_price", "brownian_vol", "jump_vol")
] + [
    (GeometricBernoulliSpec, {"initial_price": 100.0, "brownian_vol": 0.1, "jump_exponent": 0.2}, field)
    for field in ("initial_price", "brownian_vol", "jump_exponent")
]


@pytest.mark.parametrize("bad", [True, "1.5", None, float("nan"), float("inf"), -float("inf"), np.float32("inf")])
@pytest.mark.parametrize(
    "cls, valid, field", _NUMERIC_FIELDS, ids=[f"{cls.__name__}.{field}" for cls, _, field in _NUMERIC_FIELDS]
)
def test_numeric_fields_reject_non_finite_and_non_numbers(cls, valid, field, bad):
    assert cls(**valid) == cls(**valid)
    # a tuple field holds one number per atom: the bad value is its entry
    value = (bad,) if isinstance(valid[field], tuple) else bad
    with pytest.raises(ValueError, match=field):
        cls(**{**valid, field: value})


def test_numeric_fields_are_stored_as_floats():
    assert GeometricBernoulliSpec(100, 0, np.int64(1)) == GeometricBernoulliSpec(100.0, 0.0, 1.0)
    assert type(GeometricBernoulliSpec(100, 0, np.int64(1)).jump_exponent) is float
    assert type(TimeGrid(1, 10).horizon) is float
    assert AssetSpec(np.float32(2.0), 0, (1,)).jump_vol == (1.0,)
    # an integer beyond the largest float is not a finite real
    with pytest.raises(ValueError, match="horizon must be finite"):
        TimeGrid(10**400, 10)


def test_geometric_spec_converts_marks_to_jump_vols(bern_measure):
    spec = GeometricBernoulliSpec(100.0, 0.2, 0.3).to_asset_spec(bern_measure)
    assert spec.jump_vol[0] == pytest.approx(np.exp(0.3) - 1.0, abs=1e-15)
    assert spec.jump_vol[1] == pytest.approx(np.exp(-0.3) - 1.0, abs=1e-15)


# ---------------------------------------------------------------- kernel and benchmark


def test_null_kernel_path_is_one(bern_measure, unit_grid):
    noise = one_path(bern_measure, unit_grid, SEED, 0)
    coeffs = kernel_coefficients(PricingKernelSpec(0.0, 0.0, (0.0, 0.0)), bern_measure)
    assert np.all(exponential_prices([coeffs], *noise, unit_grid, [1.0]) == 1.0)


def test_deterministic_discounting(bern_measure, unit_grid):
    noise = one_path(bern_measure, unit_grid, SEED, 0)
    coeffs = kernel_coefficients(PricingKernelSpec(0.05, 0.0, (0.0, 0.0)), bern_measure)
    pi = exponential_prices([coeffs], *noise, unit_grid, [1.0])[0]
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
        pi, xi = exponential_prices(
            [kernel_coefficients(kernel, m), benchmark_coefficients(kernel, m)], *noise, unit_grid, [1.0, 1.0]
        )
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


# ---------------------------------------------------------------- units of the model


def test_deflated_domestic_price_is_a_martingale(bern_measure, unit_grid):
    kernel = PricingKernelSpec(0.04, 0.2, (0.3, -0.4))
    asset = AssetSpec(100.0, 0.25, (0.35, -0.2))
    dom = domestic_price_coefficients(asset, kernel, bern_measure)
    pi_coeffs = kernel_coefficients(kernel, bern_measure)
    n = 3000
    deflated = np.concatenate(
        [
            np.prod(exponential_prices([pi_coeffs, dom], *noise, unit_grid, [1.0, asset.initial_price])[..., -1], axis=0)
            for noise in noise_blocks(bern_measure, unit_grid, SEED + 3, n)
        ]
    )
    se = deflated.std(ddof=1) / np.sqrt(n)
    assert abs(deflated.mean() - asset.initial_price) <= 3.0 * se


def test_natural_price_is_kernel_times_domestic(bern_measure, unit_grid):
    kernel = PricingKernelSpec(0.04, 0.2, (0.3, -0.4))
    asset = AssetSpec(80.0, 0.25, (0.35, -0.2))
    noise = one_path(bern_measure, unit_grid, SEED, 1)
    dom, pi = exponential_prices(
        [domestic_price_coefficients(asset, kernel, bern_measure), kernel_coefficients(kernel, bern_measure)],
        *noise,
        unit_grid,
        [asset.initial_price, 1.0],
    )
    nat = natural_prices(natural_units(asset, kernel), bern_measure, noise, unit_grid)
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
            euler = integrate_proportional_block([coeffs], *noise, grid, [100.0])[0]
            closed = exponential_prices([coeffs], *noise, grid, [100.0])[0]
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
        exponential_prices([kernel_coefficients(kernel, bern_measure)], *noise, unit_grid, [1.0])
