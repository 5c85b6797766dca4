"""The path-block engine: block noise, block prices and block residuals give
every path exactly what a block of that one path gives it, whatever the
block size."""

from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import blocks_of_8192_path_steps, euler_loop, one_path
from levyhedge import (
    GeometricBernoulliSpec,
    IntegrationError,
    JumpAtom,
    LevyMeasure,
    PriceRangeError,
    benchmark_holdings,
    builtin_scenario,
    exponential_prices,
    hedge_residuals,
    integrate_block,
    integrate_proportional_block,
    natural_coefficients,
    portfolio_values,
    run_scenario,
    sample_noise_block,
    scenario_ratios,
    SymmetricCoefficients,
    TimeGrid,
)
from levyhedge import cli, levy_core, sim_harness
from levyhedge.sim_harness import FIGURE_NAMES, _hedge, with_overrides

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
    with mock.patch.object(levy_core, "_BLOCK_PATH_STEPS", paths_per_block * s.grid.steps):
        return run_scenario(s)


@pytest.mark.parametrize("measure", [LevyMeasure.bernoulli(15.0, 0.5), LevyMeasure()])
def test_block_draws_equal_per_path_draws(measure, unit_grid):
    # each path of an N-path block is the 1-path block at its own path index
    first, n = 3, 5
    dw, counts = sample_noise_block(measure, unit_grid, SEED, first, n)
    assert dw.shape == (n, unit_grid.steps)
    assert counts.shape == (n, unit_grid.steps, len(measure))
    for row, p in enumerate(range(first, first + n)):
        one_dw, one_counts = one_path(measure, unit_grid, SEED, p)
        np.testing.assert_array_equal(dw[row], one_dw)
        np.testing.assert_array_equal(counts[row], one_counts)


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
    np.testing.assert_array_equal(blocked.path_stats, single.path_stats)
    assert blocked.aggregate == single.aggregate
    for field in GOLDEN_FIELDS:
        np.testing.assert_array_equal(getattr(blocked.golden, field), getattr(single.golden, field))


def test_noise_blocks_at_one_step(bern_measure):
    # at one step a block holds 8192 paths, so 9000 paths make two blocks
    grid = TimeGrid(1.0, 1)
    with blocks_of_8192_path_steps():
        blocks = list(levy_core._noise_blocks(bern_measure, grid, SEED, 0, 9000))
    assert [b[0] for b in blocks] == [0, 8192]
    dw, counts = sample_noise_block(bern_measure, grid, SEED, 0, 9000)
    np.testing.assert_array_equal(np.concatenate([b[1] for b in blocks]), dw)
    np.testing.assert_array_equal(np.concatenate([b[2] for b in blocks]), counts)


@pytest.mark.parametrize(
    "steps, n_paths, starts",
    [
        (1, 1, [0]),
        # two steps give 4096-path blocks
        (2, 4100, [0, 4096]),
        # three steps give 2730-path blocks
        (3, 4100, [0, 2730]),
        # 51 blocks of 81 paths, the last one of 50 paths
        (100, 4100, list(range(0, 4050, 81)) + [4050]),
        (50000, 3, [0, 1, 2]),
    ],
)
def test_noise_blocks_tile_a_range_with_whole_blocks(bern_measure, steps, n_paths, starts):
    grid = TimeGrid(1.0, steps)
    with blocks_of_8192_path_steps():
        blocks = list(levy_core._noise_blocks(bern_measure, grid, SEED, 0, n_paths))
    assert [b[0] for b in blocks] == starts
    dw, counts = sample_noise_block(bern_measure, grid, SEED, 0, n_paths)
    np.testing.assert_array_equal(np.concatenate([b[1] for b in blocks]), dw)
    np.testing.assert_array_equal(np.concatenate([b[2] for b in blocks]), counts)


@pytest.mark.parametrize(
    "steps, start, stop, block",
    [
        (1000, 5, 70, 16),
        (1000, 0, 1, 16),
        (3, 100, 5000, 5461),
        (3, 7, 11000, 5461),
        (7, 13, 6000, 2340),
        (50000, 2, 5, 1),
        (16384, 4, 6, 1),
    ],
)
def test_noise_blocks_draw_each_block_with_one_sample_noise_block_call(bern_measure, steps, start, stop, block):
    # the production block cap, ranges that do not start on a block boundary
    grid = TimeGrid(1.0, steps)
    assert levy_core._block_paths(steps) == block
    calls = []
    real = levy_core.sample_noise_block

    def recorded(measure, grid_, seed, first_path, n_paths):
        calls.append((measure, grid_, seed, first_path, n_paths))
        return real(measure, grid_, seed, first_path, n_paths)

    with mock.patch.object(levy_core, "sample_noise_block", recorded):
        firsts = [first for first, _, _ in levy_core._noise_blocks(bern_measure, grid, SEED, start, stop)]
    assert firsts == list(range(start, stop, block))
    assert calls == [(bern_measure, grid, SEED, first, min(block, stop - first)) for first in firsts]


@settings(max_examples=60, deadline=None)
@given(
    steps=st.integers(1, 6),
    cap=st.integers(1, 40),
    start=st.integers(0, 60),
    n_paths=st.integers(1, 45),
    seed=st.integers(0, 2**40),
)
def test_noise_blocks_concatenate_to_one_block_draw(bern_measure, steps, cap, start, n_paths, seed):
    # a small block cap cuts a range into many blocks, at any offset, and
    # each block hashes the seeds of its own paths and no others
    grid = TimeGrid(1.0, steps)
    block = max(1, cap // steps)
    hashed = []
    real = levy_core._substream_seeds

    def recorded(seed_, paths):
        hashed.append(paths.tolist())
        return real(seed_, paths)

    with mock.patch.object(levy_core, "_BLOCK_PATH_STEPS", cap), mock.patch.object(
        levy_core, "_substream_seeds", recorded
    ):
        blocks = list(levy_core._noise_blocks(bern_measure, grid, seed, start, start + n_paths))
    firsts = list(range(start, start + n_paths, block))
    assert [b[0] for b in blocks] == firsts
    assert hashed == [list(range(first, min(first + block, start + n_paths))) for first in firsts]
    dw, counts = sample_noise_block(bern_measure, grid, seed, start, n_paths)
    np.testing.assert_array_equal(np.concatenate([b[1] for b in blocks]), dw)
    np.testing.assert_array_equal(np.concatenate([b[2] for b in blocks]), counts)


def test_production_block_geometry(monkeypatch):
    # 16-path blocks at 1000 steps and one path at 50 000; 500 fig3 paths on
    # two CPUs split at a whole block; at 4 steps 4096-path blocks start at 0
    # and 4096, so 4100 paths cross a block boundary (the -W error CI run)
    s = builtin_scenario("fig3")
    assert levy_core._block_paths(s.grid.steps) == 16
    assert levy_core._block_paths(50_000) == 1
    monkeypatch.setattr(sim_harness, "_usable_cpus", lambda: 2)
    assert sim_harness._path_ranges(500, s.grid.steps) == [(0, 256), (256, 500)]
    assert [b[0] for b in levy_core._noise_blocks(s.measure, TimeGrid(1.0, 4), SEED, 0, 4100)] == [0, 4096]


def test_simulate_csvs_do_not_depend_on_block_size(tmp_path: Path, capsys):
    def simulate(out: Path) -> dict[str, bytes]:
        assert cli.main(["simulate", "fig3", "--paths", "50", "--out", str(out)]) == 0
        return {name: (out / name).read_bytes() for name in ("paths.csv", "golden_path.csv")}

    # a cap below the step count still simulates one path per block
    with mock.patch.object(levy_core, "_BLOCK_PATH_STEPS", 1):
        one_path_blocks = simulate(tmp_path / "one")
    assert simulate(tmp_path / "default") == one_path_blocks
    capsys.readouterr()


def _reference_path(s, p: int) -> dict:
    """Path p of a scenario, computed alone: its noise as a 1-path block,
    exact prices, holdings phi^i = psi_i C_left / S^i_left from step-start
    prices (the last carried to t_N) and the self-financing ledger of that
    one path."""
    dw, counts = one_path(s.measure, s.grid, s.seed, p)

    def prices(spec):
        return exponential_prices([natural_coefficients(spec, s.measure)], dw, counts, s.grid, [spec.initial_price])[0]

    c = prices(s.natural_contract())
    a = np.stack([prices(spec) for spec in s.natural_assets()], axis=1)  # (steps + 1, n_hedging)
    ratios = scenario_ratios(s)
    phi = np.asarray(ratios) * (c[:-1, None] / a[:-1]) if ratios is not None else np.zeros((s.grid.steps, a.shape[1]))
    dv, gains = hedge_residuals(c, a.T, phi.T)
    v = portfolio_values(c, dv)
    z = dv / c[:-1]
    stats = ((v[-1] - v[0]) ** 2, dv @ dv, c[0] ** 2 * (z @ z), dv.sum(), dv.std(), np.abs(dv).max())
    held = np.vstack([phi, phi[-1:]])  # the holdings of t_{N-1} carry to t_N
    golden = dict(contract_values=c, asset_values=a, phi=held, theta=benchmark_holdings(held, a, gains))
    return dict(stats=stats, counts=counts, portfolio_values=v, residuals=dv, **golden)


@pytest.mark.parametrize("name", ["fig1", "fig2b", "fig3", "fig4"])
def test_summaries_match_a_per_path_reference_loop(name):
    s = builtin_scenario(name, n_paths=12, seed=SEED)
    result = run_scenario(s)
    assert result.path_stats.shape == (12, 6)
    for p, stats in enumerate(result.path_stats):
        ref = _reference_path(s, p)
        np.testing.assert_allclose(stats, ref["stats"], rtol=1e-13, atol=0)
        if p == 0:
            g = result.golden
            for field in ("contract_values", "asset_values", "phi", "theta", "portfolio_values", "residuals"):
                np.testing.assert_array_equal(getattr(g, field), ref[field])
            arrivals = ref["counts"].sum(axis=1)
            np.testing.assert_array_equal(g.jump_count_path, np.concatenate(([0.0], np.cumsum(arrivals))))
            marks = ref["counts"] @ s.measure.locations
            np.testing.assert_array_equal(g.jump_sum_path, np.concatenate(([0.0], np.cumsum(marks))))


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
    coeffs = natural_coefficients(s.natural_contract(), s.measure)
    for p in range(err.path_index):
        assert exponential_prices([coeffs], *one_path(s.measure, s.grid, s.seed, p), s.grid, [100.0]).min() > 0.0


@pytest.mark.parametrize("kernel", [exponential_prices, integrate_proportional_block])
def test_a_row_does_not_depend_on_the_specs_priced_with_it(kernel):
    # a block's contract alone, then with one and two assets: the contract
    # row, and each asset's, is bitwise the spec priced alone
    s = builtin_scenario("fig3")
    specs = (s.natural_contract(), *s.natural_assets())
    coeffs = [natural_coefficients(spec, s.measure) for spec in specs]
    x0s = [spec.initial_price for spec in specs]
    dw, counts = sample_noise_block(s.measure, s.grid, s.seed, 0, 8)
    alone = [kernel([c], dw, counts, s.grid, [x0])[0] for c, x0 in zip(coeffs, x0s)]
    for n in (0, 1, 2):
        rows = kernel(coeffs[: 1 + n], dw, counts, s.grid, x0s[: 1 + n])
        assert rows.shape == (1 + n, 8, s.grid.steps + 1)
        for row, want in zip(rows, alone):
            np.testing.assert_array_equal(row, want)


def _two_failing_paths(monkeypatch, contract_vol: float, asset_vol: float, dw: np.ndarray):
    """A 4-path, 10-step fig1 block whose contract and one asset have the
    given Brownian volatilities, priced on the Brownian increments ``dw``
    (no jumps) through _price_blocks."""
    s = builtin_scenario(
        "fig1",
        contract=GeometricBernoulliSpec(100.0, contract_vol, 0.0),
        hedging_assets=(GeometricBernoulliSpec(100.0, asset_vol, 0.0),),
        n_paths=4,
        steps=10,
    )
    counts = np.zeros(dw.shape + (len(s.measure),), dtype=np.int64)
    monkeypatch.setattr(sim_harness, "_noise_blocks", lambda *args: iter([(0, dw, counts)]))
    return s


def test_a_stacked_block_reports_the_contract_before_an_earlier_asset_path(monkeypatch):
    # W_T = -20 takes the contract (vol 30) to exp(-450 - 600) = 0 on path 3,
    # W_T = +20 the asset (vol -30) on path 1: the contract's row is checked first
    dw = np.zeros((4, 10))
    dw[1, -1], dw[3, -1] = 20.0, -20.0
    s = _two_failing_paths(monkeypatch, 30.0, -30.0, dw)
    with pytest.raises(PriceRangeError) as info:
        list(sim_harness._price_blocks(exponential_prices, s, 0, 4))
    assert (info.value.path_index, info.value.step) == (3, 10)
    assert str(info.value) == "contract price 0.0 on path 3 at step 10 is not positive and finite"
    # the asset alone fails on its own earlier path
    s = _two_failing_paths(monkeypatch, 0.1, -30.0, dw)
    with pytest.raises(PriceRangeError, match="^asset 1 price 0.0 on path 1 at step 10 "):
        list(sim_harness._price_blocks(exponential_prices, s, 0, 4))


def test_a_stacked_euler_block_reports_the_contract_before_an_earlier_asset_path(monkeypatch):
    # two steps of (1 + vol * dW) overflow the asset (vol 1e10) at dW = 1e150
    # on path 1 and both at dW = 1e200 on path 3; the contract's row is first
    dw = np.zeros((4, 10))
    dw[1, 5:7], dw[3, 5:7] = 1e150, 1e200
    s = _two_failing_paths(monkeypatch, 1.0, 1e10, dw)
    with pytest.raises(IntegrationError) as info:
        list(sim_harness._price_blocks(integrate_proportional_block, s, 0, 4))
    assert info.value.step == 6
    assert str(info.value) == "non-finite state on block path 3 at step 6"
    dw[3] = 0.0
    with pytest.raises(IntegrationError, match="^non-finite state on block path 1 at step 6$"):
        list(sim_harness._price_blocks(integrate_proportional_block, s, 0, 4))


def _scaled(c: SymmetricCoefficients, x: float) -> SymmetricCoefficients:
    """Proportional dynamics as state-dependent additive coefficients."""
    return SymmetricCoefficients(c.drift * x, c.brownian_vol * x, tuple(np.multiply(c.jump_vol, x)), c.measure)


# each Euler kernel with the per-step coefficients of the same dynamics, for
# the per-step reference loop
EULER = [
    pytest.param(integrate_block, lambda c, x: c, id="integrate_block-integrate"),
    pytest.param(integrate_proportional_block, _scaled, id="integrate_proportional_block-integrate_proportional"),
]


@pytest.mark.parametrize("block_fn, step_coeffs", EULER)
@pytest.mark.parametrize("measure", [LevyMeasure.bernoulli(15.0, 0.5), LevyMeasure()])
def test_block_euler_matches_per_path_integrators(block_fn, step_coeffs, measure, unit_grid):
    coeffs = SymmetricCoefficients(0.03, 0.2, (0.3, -0.25)[: len(measure)], measure)
    dw, counts = sample_noise_block(measure, unit_grid, SEED, 0, 6)
    # any leading path axes: here (2, 3) paths
    values = block_fn([coeffs], dw.reshape(2, 3, -1), counts.reshape(2, 3, *counts.shape[1:]), unit_grid, [1.5])
    assert values.shape == (1, 2, 3, unit_grid.steps + 1)
    for row, path in enumerate(values.reshape(6, -1)):
        # bitwise the 1-path block at the path's own index, in both shapes
        noise = one_path(measure, unit_grid, SEED, row)
        np.testing.assert_array_equal(path, block_fn([coeffs], *noise, unit_grid, [1.5])[0])
        np.testing.assert_array_equal(path, block_fn([coeffs], noise[0][None], noise[1][None], unit_grid, [1.5])[0, 0])
        if row == 0:
            reference = euler_loop(lambda step, x: step_coeffs(coeffs, x), *noise, measure, unit_grid, 1.5)
            np.testing.assert_allclose(path, reference, rtol=1e-10)


@pytest.mark.parametrize("measure", [LevyMeasure.bernoulli(15.0, 0.5), LevyMeasure()])
def test_block_exponential_prices_equal_one_path_blocks(measure, unit_grid):
    coeffs = SymmetricCoefficients(0.03, 0.2, (0.3, -0.25)[: len(measure)], measure)
    dw, counts = sample_noise_block(measure, unit_grid, SEED, 4, 6)
    values = exponential_prices([coeffs], dw.reshape(3, 2, -1), counts.reshape(3, 2, *counts.shape[1:]), unit_grid, [1.5])
    for row, path in enumerate(values.reshape(6, -1)):
        noise = one_path(measure, unit_grid, SEED, 4 + row)
        np.testing.assert_array_equal(path, exponential_prices([coeffs], *noise, unit_grid, [1.5])[0])


@pytest.mark.parametrize("block_fn, step_coeffs", EULER)
def test_block_euler_overflow_is_a_typed_error(block_fn, step_coeffs):
    # a huge jump volatility with a negligible compensator: two jumps overflow
    measure = LevyMeasure((JumpAtom(1.0, 1e-318),))
    coeffs = SymmetricCoefficients(0.0, 0.0, (1e308,), measure)
    grid = TimeGrid(1.0, 8)
    dw = np.zeros((3, 8))
    counts = np.zeros((3, 8, 1), dtype=np.int64)
    counts[1, [2, 5], 0] = 1  # path 1 overflows at step 5
    counts[2, 6, 0] = 1
    with pytest.raises(IntegrationError) as block_err:
        block_fn([coeffs], dw, counts, grid, [1.0])
    assert block_err.value.step == 5 and "path 1" in str(block_err.value)
    with pytest.raises(IntegrationError) as path_err:
        block_fn([coeffs], dw[1:2], counts[1:2], grid, [1.0])
    assert path_err.value.step == 5
    # the paths without a second jump stay finite
    assert np.isfinite(block_fn([coeffs], dw[::2], counts[::2], grid, [1.0])).all()


def test_block_euler_rejects_a_different_measure(bern_measure, unit_grid):
    coeffs = SymmetricCoefficients(0.0, 0.2, (), LevyMeasure())
    dw, counts = sample_noise_block(bern_measure, unit_grid, SEED, 0, 2)
    with pytest.raises(ValueError):
        integrate_block([coeffs], dw, counts, unit_grid, [0.0])


# ---------------------------------------------------------------- hedge kernel


def _kernel_inputs(lead: tuple, n: int, zero: bool):
    """Positive contract values (*lead, steps + 1) and asset values
    (n, *lead, steps + 1) on random paths, with n ratios; ``zero`` sets one
    ratio to 0, as the untraded asset of a single-asset hedge has."""
    rng = np.random.default_rng([SEED, len(lead), n, zero])
    steps = 40
    c = 100.0 * np.exp(np.cumsum(0.05 * rng.standard_normal(lead + (steps + 1,)), axis=-1))
    a = 100.0 * np.exp(np.cumsum(0.05 * rng.standard_normal((n,) + lead + (steps + 1,)), axis=-1))
    psi = rng.uniform(-1.0, 2.0, n)
    if zero:
        psi[n // 2] = 0.0
    return c, a, psi


def _broadcast_hedge(c, a, psi, asset_last: bool = False):
    """Reference kernel: holdings broadcast along the asset axis and gains
    summed by NumPy's reduction over it, the asset axis first or, with
    ``asset_last``, moved last into a C-contiguous array, as the golden
    path holds it."""
    phi = psi.reshape(psi.shape + (1,) * c.ndim) * (c[..., :-1] / a[..., :-1])
    terms = phi * np.diff(a, axis=-1)
    gains = np.ascontiguousarray(np.moveaxis(terms, 0, -1)).sum(-1) if asset_last else terms.sum(0)
    return phi, np.diff(c, axis=-1) - gains, gains


@pytest.mark.parametrize("zero", [False, True])
@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_hedge_kernel_equals_the_broadcast_reference(lead, n, zero):
    # NumPy's sum over the leading asset axis adds the rows in index order, as the kernel does
    c, a, psi = _kernel_inputs(lead, n, zero)
    phi, dv, gains = _broadcast_hedge(c, a, psi)
    for got, want in zip(_hedge(c, a, psi), (phi, dv, gains)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(hedge_residuals(c, a, phi), (dv, gains)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_hedge_kernel_agrees_with_the_pairwise_reference_sum(lead, n):
    # from 8 assets NumPy sums a contiguous asset axis pairwise; the orders
    # agree to the rounding of n terms
    c, a, psi = _kernel_inputs(lead, n, True)
    phi, _, gains_ref = _broadcast_hedge(c, a, psi, asset_last=True)
    got_phi, dv, gains = _hedge(c, a, psi)
    np.testing.assert_array_equal(got_phi, phi)
    bound = 8 * n * np.finfo(float).eps * np.abs(phi * np.diff(a, axis=-1)).sum(0)
    assert (np.abs(gains - gains_ref) <= bound).all()
    np.testing.assert_array_equal(dv, np.diff(c, axis=-1) - gains)


def test_hedge_kernel_without_assets_has_no_gains():
    c, a, _ = _kernel_inputs((3,), 1, False)
    phi, dv, gains = _hedge(c, a[:0], [])
    assert phi.shape == (0, 3, 40)
    np.testing.assert_array_equal(gains, np.zeros((3, 40)))
    np.testing.assert_array_equal(dv, np.diff(c, axis=-1))
