import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import one_path
from levyhedge import (
    PATH_COLUMNS,
    GeometricBernoulliSpec,
    IntegrationError,
    JumpAtom,
    LevyMeasure,
    Scenario,
    TimeGrid,
    analytic_delta,
    brute_force_constant_hedge,
    builtin_scenario,
    compensate,
    rho_diagnostic,
    run_scenario,
    scenario_ratios,
    scenario_rho,
    single_coefficients,
    two_asset_hedge,
    volatility_gram,
)
from levyhedge import cli, hedging, sim_harness
from levyhedge.sim_harness import with_overrides

SEED = 333


# ---------------------------------------------------------------- scenario definitions


def test_builtin_market_parameters():
    s = builtin_scenario("fig1")
    assert s.measure.locations.tolist() == [1.0, -1.0]
    assert s.measure.intensities.tolist() == [7.5, 7.5]
    assert s.measure.total_intensity == 15.0
    assert s.grid.horizon == 1.0 and s.grid.steps == 1000
    assert s.contract == GeometricBernoulliSpec(100.0, 0.15, 0.25)
    assert s.hedging_assets == (
        GeometricBernoulliSpec(100.0, 0.20, 0.30),
        GeometricBernoulliSpec(100.0, 0.10, 0.20),
    )
    assert s.hedge_mode == "none"
    # scenarios run in benchmark units: there is no pricing kernel to carry
    assert "kernel" not in {f.name for f in fields(Scenario)}


def test_builtin_hedge_modes():
    assert builtin_scenario("fig2a").hedge_mode == "single"
    assert builtin_scenario("fig2a").hedge_asset_index == 0
    assert builtin_scenario("fig2b").hedge_asset_index == 1
    assert builtin_scenario("fig3").hedge_mode == "two_asset"


def test_fig4_reduces_brownian_vols_only():
    s3, s4 = builtin_scenario("fig3"), builtin_scenario("fig4")
    assert s4.contract == GeometricBernoulliSpec(100.0, 0.002, 0.25)
    assert [a.brownian_vol for a in s4.hedging_assets] == [0.003, 0.001]
    assert [a.jump_exponent for a in s4.hedging_assets] == [a.jump_exponent for a in s3.hedging_assets]
    assert s4.hedge_mode == "two_asset"


def test_unknown_scenario_name():
    with pytest.raises(ValueError):
        builtin_scenario("fig9")


def test_scenario_validation(bern_measure):
    contract = GeometricBernoulliSpec(100.0, 0.1, 0.2)
    asset = GeometricBernoulliSpec(100.0, 0.2, 0.3)
    grid = TimeGrid(1.0, 10)
    with pytest.raises(ValueError):
        Scenario(bern_measure, contract, (asset,), grid, 10, SEED, "two_asset")
    with pytest.raises(ValueError):
        Scenario(bern_measure, contract, (asset,), grid, 10, SEED, "single", hedge_asset_index=3)
    with pytest.raises(ValueError):
        Scenario(bern_measure, contract, (asset,), grid, 0, SEED, "none")
    with pytest.raises(ValueError):
        Scenario(bern_measure, contract, (asset,), grid, 10, SEED, "sideways")
    with pytest.raises(ValueError):
        Scenario(bern_measure, contract, (asset,), grid, 10, -1, "none")
    for n_paths, seed in ((1.5, SEED), (True, SEED), (10, "5"), (10, 5.0), (10, False)):
        with pytest.raises(ValueError, match="must be an integer"):
            Scenario(bern_measure, contract, (asset,), grid, n_paths, seed, "none")
    assert Scenario(bern_measure, contract, (asset,), grid, np.int64(3), np.uint32(7), "none").n_paths == 3
    for index in (0.0, True, "0", None):
        with pytest.raises(ValueError, match="hedge_asset_index must be an integer"):
            replace(builtin_scenario("fig2a"), hedge_asset_index=index)


def test_scenario_rejects_overflowing_error_scales(bern_measure):
    asset = GeometricBernoulliSpec(100.0, 0.2, 0.3)
    grid = TimeGrid(1.0, 10)
    # horizon * C_0^2 overflows: no squared error can be reported
    with pytest.raises(ValueError, match="initial_price"):
        Scenario(bern_measure, GeometricBernoulliSpec(1e308, 0.1, 0.2), (asset,), grid, 10, SEED, "single")
    with pytest.raises(ValueError, match="initial_price"):
        Scenario(bern_measure, GeometricBernoulliSpec(1e154, 0.1, 0.2), (asset,), TimeGrid(1e10, 10), 10, SEED, "none")
    # sigma^2 overflows the volatility Gram matrix, for the contract or an asset
    big = GeometricBernoulliSpec(100.0, 1e200, 0.2)
    with np.errstate(all="raise"):  # the overflow is detected without a warning
        for contract, assets in ((big, (asset,)), (asset, (asset, big))):
            with pytest.raises(ValueError, match="brownian_vol"):
                Scenario(bern_measure, contract, assets, grid, 10, SEED, "none")
        # a price and a volatility whose squares stay finite, but not their
        # product, the no-hedge error horizon * C_0^2 * V[0, 0]
        with pytest.raises(ValueError, match="no-hedge error"):
            Scenario(bern_measure, GeometricBernoulliSpec(1e150, 1e150, 0.2), (asset,), grid, 10, SEED, "single")
        # one large factor alone is accepted
        for contract in (GeometricBernoulliSpec(1e150, 0.1, 0.2), GeometricBernoulliSpec(1.0, 1e150, 0.2)):
            Scenario(bern_measure, contract, (asset,), grid, 10, SEED, "single")


def test_path_stats_report_the_first_overflowing_statistic():
    c = np.ones((3, 3))
    dv = np.zeros((3, 2))
    dv[1, 1] = 1e155  # (V_T - C_0)^2 overflows on the second path
    dv[2] = 1e200
    with np.errstate(all="raise"):  # the overflow is detected without a warning
        with pytest.raises(IntegrationError, match="delta_terminal on path 11 overflows to inf"):
            sim_harness._path_stats(c, dv, 10)


def test_steps_limit():
    s = builtin_scenario("fig3")
    limit = sim_harness._MAX_STEPS
    assert with_overrides(s, steps=limit).grid.steps == limit
    with pytest.raises(ValueError, match=f"at most {limit}"):
        with_overrides(s, steps=limit + 1)


def test_with_overrides():
    s = with_overrides(builtin_scenario("fig3"), n_paths=7, seed=99, steps=50)
    assert (s.n_paths, s.seed, s.grid.steps) == (7, 99, 50)
    assert s.grid.horizon == 1.0


# ---------------------------------------------------------------- ratios


def test_single_mode_ratio_matches_coefficients(bern_measure, contract, asset_high):
    co = single_coefficients(contract, asset_high, bern_measure)
    ratios = scenario_ratios(builtin_scenario("fig2a"))
    assert ratios[0] == pytest.approx(co.L / co.M, rel=1e-14)
    assert ratios[1] == 0.0


def test_two_asset_mode_matches_closed_form(bern_measure, contract, asset_high, asset_low):
    phi = two_asset_hedge(contract, asset_high, asset_low, (100.0, 100.0, 100.0), bern_measure)
    ratios = scenario_ratios(builtin_scenario("fig3"))
    assert ratios[0] == pytest.approx(phi[0] * 100.0 / 100.0, rel=1e-13)
    assert ratios[1] == pytest.approx(phi[1] * 100.0 / 100.0, rel=1e-13)


def test_multi_mode_agrees_with_two_asset(bern_measure):
    from dataclasses import replace

    s = replace(builtin_scenario("fig3"), hedge_mode="multi")
    np.testing.assert_allclose(scenario_ratios(s), scenario_ratios(builtin_scenario("fig3")), atol=1e-10)


def test_no_hedge_mode_has_no_ratios():
    assert scenario_ratios(builtin_scenario("fig1")) is None


# ---------------------------------------------------------------- the traded block


def _assert_block_is_the_traded_gram(s, monkeypatch):
    """The block a scenario keeps is, bit for bit, the Gram built afresh
    from its traded specs, and neither it nor the indices can be written."""
    traded, block = s.traded()
    assets = s.natural_assets()
    monkeypatch.setattr(hedging, "_gram_slot", ((), None))
    fresh = volatility_gram(s.natural_contract(), [assets[i] for i in traded], s.measure)
    assert block.shape == fresh.shape
    assert np.array_equal(block.view(np.uint64), fresh.view(np.uint64))
    assert not block.flags.writeable and not traded.flags.writeable


def _random_scenarios(count: int, seed: int) -> list[Scenario]:
    """Scenarios on random markets of 1 to 8 assets and 1 to 4 atoms, in
    single, two-asset and multi mode in turn."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        mode = ("single", "two_asset", "multi")[i % 3]
        n = int(rng.integers(2 if mode == "two_asset" else 1, 9))
        atoms = int(rng.integers(1, 5))
        measure = LevyMeasure(
            tuple(JumpAtom(float(x), float(w)) for x, w in zip(rng.uniform(-1, 1, atoms), rng.uniform(0.1, 20, atoms)))
        )
        # initial price, brownian_vol and jump_exponent of the contract and each asset
        specs = [GeometricBernoulliSpec(*map(float, u)) for u in rng.uniform((50, 0, -1), (150, 0.5, 1), (n + 1, 3))]
        out.append(Scenario(measure, specs[0], specs[1:], TimeGrid(1.0, 10), 1, SEED, mode, int(rng.integers(n))))
    return out


def test_figure_blocks_are_the_traded_gram(monkeypatch):
    assert builtin_scenario("fig1").traded() is None
    for name in ("fig2a", "fig2b", "fig3", "fig4"):
        _assert_block_is_the_traded_gram(builtin_scenario(name), monkeypatch)


@pytest.mark.parametrize("k, name", [(0, "fig2a"), (1, "fig2b")])
def test_single_mode_override_resolves_the_mode_again(k, name, monkeypatch):
    fig3 = builtin_scenario("fig3")
    s = with_overrides(fig3, hedge_mode="single", hedge_asset_index=k)
    _assert_block_is_the_traded_gram(s, monkeypatch)
    figure = builtin_scenario(name)
    assert s == figure and hash(s) == hash(figure)
    (traded, block), (figure_traded, figure_block) = s.traded(), figure.traded()
    assert traded.tolist() == figure_traded.tolist() == [k]
    assert np.array_equal(block.view(np.uint64), figure_block.view(np.uint64))
    assert scenario_ratios(s) == scenario_ratios(figure)
    assert fig3.traded()[0].tolist() == [0, 1]


def test_random_scenario_blocks_are_the_traded_gram(monkeypatch):
    scenarios = _random_scenarios(240, SEED)
    assert {s.hedge_mode for s in scenarios} == {"single", "two_asset", "multi"}
    for s in scenarios:
        _assert_block_is_the_traded_gram(s, monkeypatch)


def test_replace_keeps_equality_hash_and_repr():
    for name in sim_harness.FIGURE_NAMES:
        s = builtin_scenario(name)
        copy = replace(s)
        assert copy == s and hash(copy) == hash(s) and repr(copy) == repr(s)
        assert "_traded" not in repr(s)
        if s.traded() is not None:
            assert copy.traded() is not s.traded()  # replace resolves the mode again


def test_closed_forms_build_no_gram_after_construction(monkeypatch):
    scenarios = [builtin_scenario(name) for name in ("fig2a", "fig2b", "fig3", "fig4")]
    strict_subset = _random_scenarios(30, SEED + 1)[::3]  # single mode
    expected = []
    for s in scenarios + strict_subset:
        rho = None
        if s.hedge_mode == "single":
            asset = s.natural_assets()[s.hedge_asset_index]
            rho = min(rho_diagnostic(s.natural_contract(), asset, s.measure), 1.0)
        expected.append((scenario_ratios(s), brute_force_constant_hedge(s, 0.0, 2.0, 1e-2), rho))

    def no_gram(*args):
        raise AssertionError("a Gram matrix was built after construction")

    monkeypatch.setattr(sim_harness, "volatility_gram", no_gram)
    monkeypatch.setattr(hedging, "volatility_gram", no_gram)
    for s, (ratios, sweep, rho) in zip(scenarios + strict_subset, expected):
        assert scenario_ratios(s) == ratios
        assert scenario_rho(s) == rho
        got = brute_force_constant_hedge(s, 0.0, 2.0, 1e-2)
        assert (got.best_ratios, got.best_delta) == (sweep.best_ratios, sweep.best_delta)
    assert "volatility_gram" not in vars(cli)


# ---------------------------------------------------------------- running


def test_run_scenario_is_deterministic():
    s = builtin_scenario("fig3", n_paths=5, seed=SEED)
    a, b = run_scenario(s), run_scenario(s)
    assert a.aggregate == b.aggregate
    np.testing.assert_array_equal(a.path_stats, b.path_stats)
    np.testing.assert_array_equal(a.golden.contract_values, b.golden.contract_values)
    np.testing.assert_array_equal(a.golden.phi, b.golden.phi)


def test_hedge_mode_does_not_change_the_prices():
    base = builtin_scenario("fig1", n_paths=2, seed=SEED)
    hedged = builtin_scenario("fig3", n_paths=2, seed=SEED)
    a, b = run_scenario(base), run_scenario(hedged)
    np.testing.assert_array_equal(a.golden.contract_values, b.golden.contract_values)
    np.testing.assert_array_equal(a.golden.asset_values, b.golden.asset_values)
    np.testing.assert_array_equal(a.golden.jump_count_path, b.golden.jump_count_path)


def test_no_hedge_portfolio_tracks_contract():
    r = run_scenario(builtin_scenario("fig1", n_paths=1, seed=SEED))
    np.testing.assert_allclose(r.golden.portfolio_values, r.golden.contract_values, atol=1e-12)
    assert r.delta_analytic is None and r.rho is None


def test_two_asset_hedge_cuts_residual_variance():
    n = 200
    r2a = run_scenario(builtin_scenario("fig2a", n_paths=n, seed=SEED))
    r2b = run_scenario(builtin_scenario("fig2b", n_paths=n, seed=SEED))
    r3 = run_scenario(builtin_scenario("fig3", n_paths=n, seed=SEED))
    assert r3.aggregate.residual_std < r2a.aggregate.residual_std
    assert r3.aggregate.residual_std < r2b.aggregate.residual_std
    # analytic ordering is strict as well
    assert r3.delta_analytic < min(r2a.delta_analytic, r2b.delta_analytic)


def test_reduced_brownian_vols_give_near_perfect_hedge():
    n = 100
    r3 = run_scenario(builtin_scenario("fig3", n_paths=n, seed=SEED))
    r4 = run_scenario(builtin_scenario("fig4", n_paths=n, seed=SEED))
    assert r4.aggregate.residual_std <= 0.1 * r3.aggregate.residual_std


def test_aggregate_consistent_with_path_summaries():
    r = run_scenario(builtin_scenario("fig2a", n_paths=20, seed=SEED))
    assert r.path_stats.shape == (20, len(PATH_COLUMNS))
    column = dict(zip(PATH_COLUMNS, r.path_stats.T))
    assert r.aggregate.mean_delta == pytest.approx(np.mean(column["delta_terminal"]), rel=1e-12)
    assert r.aggregate.max_abs_residual == column["max_abs_residual"].max()


def test_golden_jump_paths_count_the_first_path_arrivals():
    s = builtin_scenario("fig1", n_paths=3, seed=SEED)
    g = run_scenario(s).golden
    _, counts = one_path(s.measure, s.grid, s.seed, 0)
    assert g.jump_count_path[0] == 0.0 and g.jump_sum_path[0] == 0.0
    # per step: arrivals of both atoms, and the up minus the down arrivals
    np.testing.assert_array_equal(np.diff(g.jump_count_path), counts[:, 0] + counts[:, 1])
    np.testing.assert_array_equal(np.diff(g.jump_sum_path), counts[:, 0] - counts[:, 1])
    assert g.jump_count_path[-1] == counts.sum() > 0


def test_brownian_only_jump_terms_are_positive_zeros():
    # the empty measure takes the general expressions, with no warning: a
    # (steps, 0) @ (0,) product is zeros(steps), an empty dot product +0.0
    s = Scenario(
        measure=LevyMeasure(),
        contract=GeometricBernoulliSpec(100.0, 0.15, 0.0),
        hedging_assets=(GeometricBernoulliSpec(100.0, 0.20, 0.0),),
        grid=TimeGrid(1.0, 100),
        n_paths=2,
        seed=SEED,
        hedge_mode="single",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jump_sum_path = run_scenario(s).golden.jump_sum_path
        compensator = compensate(LevyMeasure(), ())
    assert jump_sum_path.shape == (101,) and not jump_sum_path.any()
    assert not np.signbit(jump_sum_path).any()
    assert compensator == 0.0 and math.copysign(1.0, compensator) == 1.0


@pytest.mark.parametrize("name", sim_harness.FIGURE_NAMES)
def test_golden_path_keeps_no_block_alive(name):
    # a view of a (1 + n, paths, steps + 1) price block or of the (paths,
    # steps) residuals would hold the whole block for one path's rows
    g = run_scenario(builtin_scenario(name, n_paths=3, steps=20, seed=SEED)).golden
    for f in fields(g):
        a = getattr(g, f.name)
        assert a.base is None or a.base.nbytes == a.nbytes, f.name


# ---------------------------------------------------------------- brute force


def _error_at(s, ratios) -> float:
    return analytic_delta(s.natural_contract(), s.natural_assets(), ratios, s.measure, s.grid.horizon)


def test_sweep_matches_single_asset_closed_form(bern_measure, contract, asset_high):
    co = single_coefficients(contract, asset_high, bern_measure)
    s = builtin_scenario("fig2a")
    result = brute_force_constant_hedge(s, 0.0, 2.0, 1e-3)
    assert abs(result.best_ratios[0] - co.L / co.M) <= 1e-3
    assert result.best_ratios[1] == 0.0
    assert result.best_delta == pytest.approx(_error_at(s, result.best_ratios), rel=1e-12, abs=0)


def test_sweep_matches_two_asset_closed_form():
    s = builtin_scenario("fig3")
    ratios = scenario_ratios(s)
    result = brute_force_constant_hedge(s, 0.0, 1.0, 1e-3)
    assert abs(result.best_ratios[0] - ratios[0]) <= 1e-3
    assert abs(result.best_ratios[1] - ratios[1]) <= 1e-3
    # the optimum keeps 1e-5 of the no-hedge error: c'Vc cancels that far
    # below its terms, so the two summation orders agree to 1e-12 of the
    # no-hedge error, not of the optimum
    gap = abs(result.best_delta - _error_at(s, result.best_ratios))
    assert gap <= 1e-12 * _error_at(s, (0.0, 0.0))


def test_sweep_at_a_huge_contract_price_over_a_tiny_horizon():
    # horizon * C_0 * C_0 is finite (1e306) although C_0^2 alone overflows;
    # the sweep forms the product in that order, as Scenario checks it
    s = Scenario(
        measure=LevyMeasure.bernoulli(rate=15.0, up_prob=0.5, up=1.0, down=-1.0),
        contract=GeometricBernoulliSpec(1e308, 0.1, 0.0),
        hedging_assets=(GeometricBernoulliSpec(1e308, 0.2, 0.3),),
        grid=TimeGrid(1e-310, 100),
        n_paths=4,
        seed=SEED,
        hedge_mode="single",
    )
    result = brute_force_constant_hedge(s, 0.0, 2.0, 1e-3)
    assert abs(result.best_ratios[0] - scenario_ratios(s)[0]) <= 1e-3
    assert np.isfinite(result.best_delta)
    assert result.best_delta == pytest.approx(_error_at(s, result.best_ratios), rel=1e-12, abs=0)


def test_sweep_brownian_only_market():
    measure = LevyMeasure()
    s = Scenario(
        measure=measure,
        contract=GeometricBernoulliSpec(100.0, 0.15, 0.0),
        hedging_assets=(GeometricBernoulliSpec(100.0, 0.20, 0.0),),
        grid=TimeGrid(1.0, 100),
        n_paths=1,
        seed=SEED,
        hedge_mode="single",
    )
    result = brute_force_constant_hedge(s, 0.0, 2.0, 1e-3)
    assert abs(result.best_ratios[0] - 0.15 / 0.20) <= 1e-3


def test_sweep_requires_hedging_mode():
    with pytest.raises(ValueError):
        brute_force_constant_hedge(builtin_scenario("fig1"), 0.0, 1.0)


@pytest.mark.parametrize(
    "lo, hi, step, message",
    [
        (1.0, 0.0, 1e-3, "ratio_max 0.0 is below ratio_min 1.0"),
        (0.0, 1.0, -1e-3, "step must be positive"),
        (0.0, 1.0, 0.0, "step must be positive"),
        (math.nan, 1.0, 1e-3, "ratio_min must be finite"),
        (0.0, math.nan, 1e-3, "ratio_max must be finite"),
        (0.0, 1.0, math.nan, "step must be finite"),
        (-math.inf, 1.0, 1e-3, "ratio_min must be finite"),
        (0.0, math.inf, 1e-3, "ratio_max must be finite"),
        (0.0, 1.0, math.inf, "step must be finite"),
        (0.0, 1.0, 1e-6, "more than 100000000 cells"),
        (-1e308, 1e308, 1.0, "more than 100000000 cells"),  # hi - lo overflows
    ],
)
def test_sweep_rejects_bad_arguments(lo, hi, step, message):
    with pytest.raises(ValueError, match=message):
        brute_force_constant_hedge(builtin_scenario("fig3"), lo, hi, step)


def test_sweep_cell_limit_counts_the_cells_of_the_whole_grid():
    # 10**4 ratios per axis are 10**8 cells in two-asset mode, the limit;
    # one more ratio per axis is over it, but not on one axis alone
    fig3, fig2a = builtin_scenario("fig3"), builtin_scenario("fig2a")
    best = brute_force_constant_hedge(fig3, 0.0, 0.9999, 1e-4).best_ratios
    assert max(abs(b - r) for b, r in zip(best, scenario_ratios(fig3))) <= 1e-3
    with pytest.raises(ValueError, match="more than 100000000 cells"):
        brute_force_constant_hedge(fig3, 0.0, 1.0, 1e-4)
    assert abs(brute_force_constant_hedge(fig2a, 0.0, 1.0, 1e-4).best_ratios[0] - scenario_ratios(fig2a)[0]) <= 1e-4


def _full_grid_sweep(s, lo, hi, step):
    """The sweep as one whole-grid expression: the reference the blocked
    sweep must reproduce bit for bit."""
    traded, _ = s.traded()
    assets = s.natural_assets()
    v = volatility_gram(s.natural_contract(), [assets[i] for i in traded], s.measure)
    axes = (lo + step * np.arange(int(round((hi - lo) / step)) + 1),) * len(traded)
    psi = np.meshgrid(*axes, indexing="ij", sparse=True)
    rate = v[0, 0]
    for i in range(1, len(v)):
        rate = rate + psi[i - 1] * (psi[i - 1] * v[i, i] - 2.0 * v[i, 0])
        for j in range(1, i):
            rate = rate + 2.0 * v[i, j] * psi[i - 1] * psi[j - 1]
    c0 = s.natural_contract().initial_price
    deltas = s.grid.horizon * c0 * c0 * rate
    best = np.unravel_index(int(np.argmin(deltas)), deltas.shape)
    ratios = np.zeros(len(assets))
    ratios[traded] = [axis[k] for axis, k in zip(axes, best)]
    return tuple(ratios), float(deltas[best])


def _blocked_sweep(s, lo, hi, step, block_rows):
    n = int(round((hi - lo) / step)) + 1
    width = n if s.hedge_mode == "two_asset" else 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_harness, "_SWEEP_BLOCK_CELLS", block_rows * width)
        return brute_force_constant_hedge(s, lo, hi, step)


def _bits(values):
    return [float(x).hex() for x in values]


_spec = st.builds(
    GeometricBernoulliSpec,
    st.floats(0.5, 200.0),
    st.floats(0.0, 0.5),
    st.floats(-0.5, 0.5),
)


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["single", "two_asset"]),
    contract=_spec,
    assets=st.tuples(_spec, _spec),
    rate=st.floats(0.0, 20.0, allow_subnormal=False),
    lo=st.floats(-2.0, 2.0),
    step=st.floats(1e-3, 0.5),
    count=st.integers(1, 80),
    block=st.sampled_from(["one", "seven", "non-divisor", "beyond"]),
)
def test_blocked_sweep_is_bitwise_the_full_grid(mode, contract, assets, rate, lo, step, count, block):
    s = Scenario(
        measure=LevyMeasure.bernoulli(rate=rate, up_prob=0.4, up=0.8, down=-1.1) if rate > 0 else LevyMeasure(),
        contract=contract,
        hedging_assets=assets,
        grid=TimeGrid(1.0, 10),
        n_paths=1,
        seed=SEED,
        hedge_mode=mode,
        hedge_asset_index=1,
    )
    hi = lo + step * (count - 1)
    n = int(round((hi - lo) / step)) + 1
    block_rows = {
        "one": 1,
        "seven": 7,
        "non-divisor": next((r for r in range(2, n) if n % r), n + 1),
        "beyond": n + 1,
    }[block]
    ratios, delta = _full_grid_sweep(s, lo, hi, step)
    result = _blocked_sweep(s, lo, hi, step, block_rows)
    assert _bits(result.best_ratios) == _bits(ratios)
    assert _bits([result.best_delta]) == _bits([delta])


@pytest.mark.parametrize(
    "name, lo, hi", [("fig2a", 0.0, 2.0), ("fig2b", 0.0, 2.0), ("fig3", 0.0, 1.0), ("fig4", 0.0, 1.0), ("fig3", -0.3, 1.7)]
)
def test_figure_sweeps_are_bitwise_the_full_grid(name, lo, hi):
    # at the default block size: 65 rows of fig3's 1001, the last block short
    s = builtin_scenario(name)
    ratios, delta = _full_grid_sweep(s, lo, hi, 1e-3)
    result = brute_force_constant_hedge(s, lo, hi, 1e-3)
    assert _bits(result.best_ratios) == _bits(ratios)
    assert _bits([result.best_delta]) == _bits([delta])


def _tie_scenario(mode):
    # the contract and asset 1 share no source of risk (V_10 = 0), and
    # asset 2 shares none with asset 1 (V_21 = 0): the error is even in
    # psi_1, so psi_1 = -0.25 and +0.25 tie exactly
    return Scenario(
        measure=LevyMeasure.bernoulli(rate=15.0, up_prob=0.5, up=1.0, down=-1.0),
        contract=GeometricBernoulliSpec(100.0, 0.15, 0.0),
        hedging_assets=(GeometricBernoulliSpec(100.0, 0.0, 0.3), GeometricBernoulliSpec(100.0, 0.1, 0.0)),
        grid=TimeGrid(1.0, 10),
        n_paths=1,
        seed=SEED,
        hedge_mode=mode,
    )


@pytest.mark.parametrize("mode", ["single", "two_asset"])
@pytest.mark.parametrize("block_rows", [1, 2, 3, 4])
def test_sweep_tie_across_a_block_edge_goes_to_the_earlier_cell(mode, block_rows):
    s = _tie_scenario(mode)
    lo, hi, step = -0.75, 0.75, 0.5  # psi_1 in (-0.75, -0.25, 0.25, 0.75)
    ratios, delta = _full_grid_sweep(s, lo, hi, step)
    assert ratios[0] == -0.25
    result = _blocked_sweep(s, lo, hi, step, block_rows)
    assert _bits(result.best_ratios) == _bits(ratios)
    assert _bits([result.best_delta]) == _bits([delta])


@pytest.mark.parametrize("block_rows", [1, 3, 21, 22])
def test_sweep_takes_the_first_nan_as_np_argmin_does(block_rows):
    # at |psi| = 1e200 the error overflows: inf in psi_1 and psi_2 alone,
    # -inf in the cross term where psi_1 psi_2 < 0, so the grid holds
    # finite, infinite and NaN cells, and its first NaN is the minimum
    s = builtin_scenario("fig3")
    lo, hi, step = -1e200, 1e200, 1e199
    with np.errstate(over="ignore", invalid="ignore"):
        ratios, delta = _full_grid_sweep(s, lo, hi, step)
        result = _blocked_sweep(s, lo, hi, step, block_rows)
    assert math.isnan(delta)
    assert _bits(result.best_ratios) == _bits(ratios)
    assert math.isnan(result.best_delta)


@pytest.mark.parametrize(
    "name, step, limit_mib",
    [
        ("fig3", 1e-3, 2),  # the 1001 x 1001 grid at once peaks at 15.45 MiB
        ("fig2a", 1e-6, 4),  # 10**6 ratios: the axis alone is 7.6 MiB
    ],
)
def test_sweep_memory_is_bounded(name, step, limit_mib):
    s = builtin_scenario(name)
    brute_force_constant_hedge(s, 0.0, 1.0, step)  # compile and cache once
    tracemalloc.start()
    try:
        brute_force_constant_hedge(s, 0.0, 1.0, step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20
