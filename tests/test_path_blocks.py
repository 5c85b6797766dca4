"""The path-block engine: block noise, block prices and block residuals give
every path exactly what the per-path functions give it, whatever the block
size."""

from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyhedge import (
    ConstantRatioRule,
    GeometricBernoulliSpec,
    IntegrationError,
    JumpAtom,
    LevyMeasure,
    NoiseRealization,
    PriceRangeError,
    builtin_scenario,
    evolve_portfolio,
    geometric_price_path,
    integrate,
    integrate_block,
    integrate_proportional,
    integrate_proportional_block,
    run_scenario,
    sample_noise,
    sample_noise_block,
    scenario_ratios,
    SymmetricCoefficients,
    TimeGrid,
)
from levyhedge import cli, sim_harness
from levyhedge.sim_harness import FIGURE_NAMES, with_overrides

SEED = 2024
GOLDEN_FIELDS = (
    "times",
    "jump_count_path",
    "jump_sum_path",
    "contract_values",
    "asset_values",
    "phi",
    "theta",
    "portfolio_values",
    "residuals",
)


def run_with_block_paths(s, paths_per_block: int):
    with mock.patch.object(sim_harness, "_BLOCK_PATH_STEPS", paths_per_block * s.grid.steps):
        return run_scenario(s)


@pytest.mark.parametrize("measure", [LevyMeasure.bernoulli(15.0, 0.5), LevyMeasure()])
def test_block_draws_equal_per_path_draws(measure, unit_grid):
    first, n = 3, 5
    dw, counts = sample_noise_block(measure, unit_grid, SEED, first, n)
    assert dw.shape == (n, unit_grid.steps)
    assert counts.shape == (n, unit_grid.steps, len(measure))
    for row, p in enumerate(range(first, first + n)):
        noise = sample_noise(measure, unit_grid, SEED, p)
        np.testing.assert_array_equal(dw[row], noise.brownian_increments)
        np.testing.assert_array_equal(counts[row], noise.jump_counts)


def test_block_draw_rejects_bad_ranges(bern_measure, unit_grid):
    with pytest.raises(ValueError):
        sample_noise_block(bern_measure, unit_grid, SEED, -1, 2)
    with pytest.raises(ValueError):
        sample_noise_block(bern_measure, unit_grid, SEED, 0, 0)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(FIGURE_NAMES),
    n_paths=st.integers(1, 7),
    steps=st.integers(1, 13),
    paths_per_block=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_results_do_not_depend_on_block_size(name, n_paths, steps, paths_per_block, seed):
    s = with_overrides(builtin_scenario(name), n_paths=n_paths, steps=steps, seed=seed)
    single = run_with_block_paths(s, 1)
    blocked = run_with_block_paths(s, paths_per_block)
    assert blocked.path_summaries == single.path_summaries
    assert blocked.aggregate == single.aggregate
    for field in GOLDEN_FIELDS:
        np.testing.assert_array_equal(getattr(blocked.golden, field), getattr(single.golden, field))


def test_simulate_csvs_do_not_depend_on_block_size(tmp_path: Path, capsys):
    def simulate(out: Path) -> dict[str, bytes]:
        assert cli.main(["simulate", "fig3", "--paths", "50", "--out", str(out)]) == 0
        return {name: (out / name).read_bytes() for name in ("paths.csv", "golden_path.csv")}

    # a cap below the step count still simulates one path per block
    with mock.patch.object(sim_harness, "_BLOCK_PATH_STEPS", 1):
        one_path_blocks = simulate(tmp_path / "one")
    assert simulate(tmp_path / "default") == one_path_blocks
    capsys.readouterr()


@pytest.mark.parametrize("name", ["fig1", "fig2b", "fig3", "fig4"])
def test_summaries_match_a_per_path_reference_loop(name):
    s = builtin_scenario(name, n_paths=12, seed=SEED)
    result = run_scenario(s)
    ratios = scenario_ratios(s)
    rule = ConstantRatioRule(ratios) if ratios is not None else None
    c0 = s.contract.initial_price
    for p, summary in enumerate(result.path_summaries):
        noise = sample_noise(s.measure, s.grid, s.seed, p)
        contract = geometric_price_path(s.natural_contract(), s.measure, noise, s.grid)
        assets = [geometric_price_path(a, s.measure, noise, s.grid) for a in s.natural_assets()]
        report = evolve_portfolio(contract, assets, rule, s.grid)
        dv = report.residual_increments
        z = dv / contract.values[:-1]
        expected = (
            report.delta_mc,
            float(dv @ dv),
            float(c0 * c0 * (z @ z)),
            float(dv.sum()),
            report.per_step_std,
            report.max_abs_residual,
        )
        got = (
            summary.delta_terminal,
            summary.delta_integrated,
            summary.delta_normalized,
            summary.residual_sum,
            summary.per_step_std,
            summary.max_abs_residual,
        )
        assert summary.path_index == p
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)
        if p == 0:
            g = result.golden
            np.testing.assert_array_equal(g.contract_values, contract.values)
            np.testing.assert_array_equal(g.asset_values, np.stack([a.values for a in assets], axis=1))
            np.testing.assert_array_equal(g.phi, report.strategy.phi)
            np.testing.assert_array_equal(g.theta, report.strategy.theta)
            np.testing.assert_array_equal(g.portfolio_values, report.portfolio_values)
            np.testing.assert_array_equal(g.residuals, dv)
            np.testing.assert_array_equal(g.jump_count_path, noise.cumulative_jump_count())


def test_underflowing_price_is_a_typed_error():
    s = replace(
        builtin_scenario("fig2a", n_paths=20, seed=SEED),
        contract=GeometricBernoulliSpec(100.0, 40.0, 0.25),
    )
    with pytest.raises(PriceRangeError) as info:
        run_scenario(s)
    err = info.value
    assert 0 <= err.path_index < s.n_paths and 1 <= err.step <= s.grid.steps
    assert f"path {err.path_index}" in str(err) and f"step {err.step}" in str(err)
    # the first bad path in the run: every earlier path has positive prices
    for p in range(err.path_index):
        noise = sample_noise(s.measure, s.grid, s.seed, p)
        assert geometric_price_path(s.natural_contract(), s.measure, noise, s.grid).values.min() > 0.0



EULER = [(integrate_block, integrate), (integrate_proportional_block, integrate_proportional)]


@pytest.mark.parametrize("block_fn, path_fn", EULER)
@pytest.mark.parametrize("measure", [LevyMeasure.bernoulli(15.0, 0.5), LevyMeasure()])
def test_block_euler_matches_per_path_integrators(block_fn, path_fn, measure, unit_grid):
    coeffs = SymmetricCoefficients(0.03, 0.2, (0.3, -0.25)[: len(measure)], measure)
    dw, counts = sample_noise_block(measure, unit_grid, SEED, 0, 6)
    # any leading path axes: here (2, 3) paths
    values = block_fn(coeffs, dw.reshape(2, 3, -1), counts.reshape(2, 3, *counts.shape[1:]), unit_grid, 1.5)
    assert values.shape == (2, 3, unit_grid.steps + 1)
    for row, path in enumerate(values.reshape(6, -1)):
        expected = path_fn(coeffs, sample_noise(measure, unit_grid, SEED, row), 1.5).values
        np.testing.assert_allclose(path, expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("block_fn, path_fn", EULER)
def test_block_euler_overflow_is_a_typed_error(block_fn, path_fn):
    # a huge jump volatility with a negligible compensator: two jumps overflow
    measure = LevyMeasure((JumpAtom(1.0, 1e-318),))
    coeffs = SymmetricCoefficients(0.0, 0.0, (1e308,), measure)
    grid = TimeGrid(1.0, 8)
    dw = np.zeros((3, 8))
    counts = np.zeros((3, 8, 1), dtype=np.int64)
    counts[1, [2, 5], 0] = 1  # path 1 overflows at step 5
    counts[2, 6, 0] = 1
    with pytest.raises(IntegrationError) as block_err:
        block_fn(coeffs, dw, counts, grid, 1.0)
    assert block_err.value.step == 5 and "path 1" in str(block_err.value)
    with pytest.raises(IntegrationError) as path_err:
        path_fn(coeffs, NoiseRealization(measure, grid, dw[1], counts[1]), 1.0)
    assert path_err.value.step == 5
    # the paths without a second jump stay finite
    assert np.isfinite(block_fn(coeffs, dw[::2], counts[::2], grid, 1.0)).all()


def test_block_euler_rejects_a_different_measure(bern_measure, unit_grid):
    coeffs = SymmetricCoefficients(0.0, 0.2, (), LevyMeasure())
    dw, counts = sample_noise_block(bern_measure, unit_grid, SEED, 0, 2)
    with pytest.raises(ValueError):
        integrate_block(coeffs, dw, counts, unit_grid, 0.0)
