"""The verification suites on path blocks: each Monte Carlo statistic equals
a per-path reference loop over 1-path blocks, and does not depend on the
block size."""

import contextlib
import io
import sys
from unittest import mock

import numpy as np
import pytest

from conftest import blocks_of_8192_path_steps, coarsen, one_path, ratio_residuals
from levyhedge import (
    AssetSpec,
    GeometricBernoulliSpec,
    JumpAtom,
    PriceRangeError,
    Scenario,
    SymmetricCoefficients,
    TimeGrid,
    builtin_scenario,
    cli,
    exponential_prices,
    integrate_block,
    integrate_proportional_block,
    natural_coefficients,
    product_coefficients,
    scenario_ratios,
    volatility_gram,
)
from levyhedge import hedging, levy_core, sim_harness, verification
from levyhedge.hedging import _delta, _two_asset_ratios, analytic_delta, solve_ratios, two_asset_hedge
from levyhedge.levy_core import LevyMeasure
from levyhedge.sim_harness import PATH_COLUMNS, with_overrides
from levyhedge.verification import (
    _draw_market,
    _euler_gap_ratios,
    _euler_terminals,
    _hedge_stats,
    _market_groups,
    _price_terminals,
    run_suite,
)

FORKS = pytest.mark.skipif(sys.platform != "linux", reason="only Linux forks")
SEED = 4242
N_PATHS = 13  # blocks of 8 + 5 paths at 1000 steps, 4 + 4 + 4 + 1 at 2000
FIG = builtin_scenario("fig1", n_paths=N_PATHS, seed=SEED)
GRID = FIG.grid
MEASURE = FIG.measure
CONTRACT, A1, A2 = FIG.natural_contract(), *FIG.natural_assets()
FIG_RATIOS = tuple(scenario_ratios(builtin_scenario(name)) for name in ("fig2a", "fig2b", "fig3"))


def _geometric(beta: float) -> AssetSpec:
    return AssetSpec(100.0, 0.0, tuple(np.expm1(beta * MEASURE.locations)))


def _market(contract, assets) -> Scenario:
    """FIG's measure, grid, paths and seed with other geometric specs."""
    return with_overrides(FIG, contract=contract, hedging_assets=tuple(assets))


def _noise(p: int, grid: TimeGrid = GRID, measure: LevyMeasure = MEASURE):
    return one_path(measure, grid, SEED, p)


def _residuals(price, contract, assets, ratios, noise) -> tuple:
    prices = np.stack([price(spec, noise) for spec in (contract, *assets)])
    return prices[0], ratio_residuals(prices, ratios)


def _euler(spec, noise):
    return integrate_proportional_block([natural_coefficients(spec, MEASURE)], *noise, GRID, [spec.initial_price])[0]


def _exact(spec, noise):
    return exponential_prices([natural_coefficients(spec, MEASURE)], *noise, GRID, [spec.initial_price])[0]


def _normalized_reference(p):
    c, dv = _residuals(_euler, CONTRACT, [A1], FIG_RATIOS[0][:1], _noise(p))
    rel = dv / c[:-1]
    return CONTRACT.initial_price**2 * float(rel @ rel)


def _euler_gap_reference(p, a, b):
    fine = _noise(p, TimeGrid(1.0, 2000))
    gaps = []
    for grid, noise in ((TimeGrid(1.0, 1000), coarsen(*fine)), (TimeGrid(1.0, 2000), fine)):
        # each spec priced alone, one call per spec
        e_a = integrate_proportional_block([a], *noise, grid, [1.0])[0]
        e_b = integrate_proportional_block([b], *noise, grid, [1.0])[0]
        e_ab = integrate_proportional_block([product_coefficients(a, b)], *noise, grid, [1.0])[0]
        cf = exponential_prices([a], *noise, grid, [1.0])[0]
        gaps.append((np.abs(e_a - cf).max(), np.abs(e_ab - e_a * e_b).max()))
    return gaps[1][0] / gaps[0][0], gaps[1][1] / gaps[0][1]


def _hedge_column(price, s, ratio_sets, column):
    """One PATH_COLUMNS column, (n_sets, N_PATHS), of the suites' shared hedge statistics."""
    return _hedge_stats(price, s, ratio_sets)[PATH_COLUMNS.index(column)]


def _terminal(coeffs, noise, x0):
    return integrate_block([coeffs], *noise, GRID, [x0])[0, -1]


_DRIVER = SymmetricCoefficients(0.0, 0.20, (0.3, -0.3), MEASURE)
_BROWNIAN = SymmetricCoefficients(0.0, 1.0, (), LevyMeasure())
_GAP_A = SymmetricCoefficients(0.02, 0.15, tuple(np.expm1(0.3 * MEASURE.locations)), MEASURE)
_GAP_B = SymmetricCoefficients(-0.01, 0.10, tuple(np.expm1(0.2 * MEASURE.locations)), MEASURE)
# two pairs on the noise drawn once
_GAP_PAIRS = ((_GAP_A, _GAP_B), (_GAP_B, _GAP_A))
_PURE_JUMP = (_geometric(0.25), _geometric(0.30), _geometric(0.20))
_SINGLE_MARKET = _market(FIG.contract, FIG.hedging_assets[:1])
_JUMP_MARKET = _market(
    GeometricBernoulliSpec(100.0, 0.0, 0.25), (GeometricBernoulliSpec(100.0, 0.0, b) for b in (0.30, 0.20))
)
_PURE_JUMP_RATIOS = (0.41606008891513463, 0.625390267269132)

# statistic name -> (block statistic, per-path reference)
STATISTICS = {
    "isometry driver": (
        lambda: _euler_terminals(_DRIVER, GRID, SEED, 0.0, N_PATHS) ** 2,
        lambda: [_terminal(_DRIVER, _noise(p), 0.0) ** 2 for p in range(N_PATHS)],
    ),
    "isometry brownian": (
        lambda: _euler_terminals(_BROWNIAN, GRID, SEED, 0.0, N_PATHS) ** 2,
        lambda: [_terminal(_BROWNIAN, _noise(p, measure=LevyMeasure()), 0.0) ** 2 for p in range(N_PATHS)],
    ),
    "martingale integration": (
        lambda: _euler_terminals(_DRIVER, GRID, SEED, 3.0, N_PATHS),
        lambda: [_terminal(_DRIVER, _noise(p), 3.0) for p in range(N_PATHS)],
    ),
    "martingale prices": (
        lambda: _price_terminals(FIG),
        lambda: [[_exact(s, _noise(p))[-1] for s in (CONTRACT, A1, A2)] for p in range(N_PATHS)],
    ),
    "optimality monte carlo": (
        lambda: _hedge_column(integrate_proportional_block, _SINGLE_MARKET, [FIG_RATIOS[0][:1]], "delta_normalized")[0],
        lambda: [_normalized_reference(p) for p in range(N_PATHS)],
    ),
    "ordering": (
        lambda: _hedge_column(exponential_prices, FIG, FIG_RATIOS, "delta_integrated").T,
        lambda: [
            [float(dv @ dv) for dv in (_residuals(_exact, CONTRACT, [A1, A2], r, _noise(p))[1] for r in FIG_RATIOS)]
            for p in range(N_PATHS)
        ],
    ),
    "completeness": (
        lambda: _hedge_column(integrate_proportional_block, _JUMP_MARKET, [_PURE_JUMP_RATIOS], "max_abs_residual")[0],
        lambda: [
            float(np.abs(_residuals(_euler, _PURE_JUMP[0], _PURE_JUMP[1:], _PURE_JUMP_RATIOS, _noise(p))[1]).max())
            for p in range(N_PATHS)
        ],
    ),
    "calculus euler halving": (
        lambda: np.stack([np.stack(r, axis=-1) for r in _euler_gap_ratios(_GAP_PAIRS, SEED, N_PATHS)], axis=1),
        lambda: [[_euler_gap_reference(p, a, b) for a, b in _GAP_PAIRS] for p in range(N_PATHS)],
    ),
}


def one_path_per_block():
    return mock.patch.object(levy_core, "_BLOCK_PATH_STEPS", 1)


@pytest.mark.parametrize("name", STATISTICS)
def test_block_statistic_matches_per_path_reference(name):
    block, reference = STATISTICS[name]
    got = block()
    assert got.shape[0] == N_PATHS
    np.testing.assert_allclose(got, np.array(reference()), rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", STATISTICS)
def test_block_statistic_does_not_depend_on_block_size(name):
    block, _ = STATISTICS[name]
    with one_path_per_block():
        single = block()
    np.testing.assert_array_equal(block(), single)


@pytest.mark.parametrize("suite", ["isometry", "martingale", "calculus", "optimality", "ordering", "completeness"])
def test_suite_results_do_not_depend_on_block_size(suite):
    with one_path_per_block():
        single = run_suite(suite, SEED, N_PATHS)
    assert run_suite(suite, SEED, N_PATHS) == single


def test_calculus_kernels_draw_their_paths_through_sample_noise_block():
    # kernel t reads path t of seed + 4 on a 500-step grid, a 1-path block
    # drawn over the kernel's own measure
    measures, calls = [], []
    real_kernel, real_noise = verification.kernel_coefficients, verification.sample_noise_block

    def kernel(spec, measure):
        measures.append(measure)
        return real_kernel(spec, measure)

    def noise(*args):
        calls.append(args)
        return real_noise(*args)

    with mock.patch.object(verification, "kernel_coefficients", kernel), mock.patch.object(
        verification, "sample_noise_block", noise
    ):
        run_suite("calculus", SEED, 4)
    kernel_grid = TimeGrid(1.0, 500)
    assert len(measures) == 100
    assert [c for c in calls if c[1] == kernel_grid] == [
        (m, kernel_grid, SEED + 4, t, 1) for t, m in enumerate(measures)
    ]


def test_optimality_random_markets_make_one_call_per_stack():
    calls = {name: [] for name in ("_delta", "analytic_delta", "solve_ratios", "_two_asset_ratios")}

    def counted(name):
        real = getattr(verification, name)

        def call(*args):
            calls[name].append(np.shape(args[1] if name == "_delta" else args[0]))
            return real(*args)

        return call

    with contextlib.ExitStack() as stack:
        for name in calls:
            stack.enter_context(mock.patch.object(verification, name, counted(name)))
        run_suite("optimality", SEED, 4)
    # the 100 single-asset markets, one stack per atom count: a sweep of 501
    # ratios and two points; then the two-asset markets: one solve and one
    # closed form per round of draws, the first round holding most of the 1000
    sizes = [shape[0] for shape in calls["_delta"][::3]]
    assert calls["_delta"] == [shape for n in sizes for shape in ((n, 501, 1), (n, 1, 1), (n, 1, 1))]
    assert len(sizes) == 3 and sum(sizes) == 100
    assert len(calls["analytic_delta"]) == 3
    rounds = calls["_two_asset_ratios"]
    assert calls["solve_ratios"] == [(n, 2, 2) for n, _, _ in rounds]
    assert sum(n for n, _, _ in rounds) == 1000 and len(rounds) <= 3 and rounds[0][0] > 900


def test_underflowing_price_terminals_raise_price_range_error():
    # a Brownian volatility of 37 drives exp(-sigma^2 t / 2 + sigma W_t) to zero
    # late in the horizon on a few paths; at this seed the first of them lies
    # past the first block of 8 paths, so the reported index carries the offset
    seed, n_paths = 11, 40
    s = with_overrides(FIG, hedging_assets=(GeometricBernoulliSpec(1.0, 37.0, 0.1),), seed=seed, n_paths=n_paths)
    bad = s.natural_assets()[0]
    with blocks_of_8192_path_steps(), pytest.raises(PriceRangeError) as info:
        _price_terminals(s)
    err = info.value
    # per-path reference: the first path whose price reaches zero, and its first such step
    for p in range(n_paths):
        values = exponential_prices([natural_coefficients(bad, MEASURE)], *one_path(MEASURE, GRID, seed, p), GRID, [1.0])[0]
        if values.min() <= 0.0:
            break
    assert p >= 8192 // GRID.steps
    step = int(np.argmax(values <= 0.0))
    assert (err.path_index, err.step) == (p, step)
    assert str(err) == f"asset 1 price 0.0 on path {p} at step {step} is not positive and finite"


def _violent_coefficients(rng, measure):
    # a Brownian volatility of 40 drives exp(-sigma^2 t / 2 + sigma W_t) below
    # the smallest float within the horizon on every path
    gam = rng.uniform(-0.6, 1.5, len(measure))
    return SymmetricCoefficients(rng.uniform(-0.3, 0.3), 40.0, tuple(gam), measure)


def test_calculus_identities_fail_on_underflowing_paths(monkeypatch):
    # 0/0 = NaN relative errors must not read as "max rel err=0": the first
    # underflowed price raises, naming its path and step
    monkeypatch.setattr(verification, "_random_coefficients", _violent_coefficients)
    with pytest.raises(PriceRangeError) as info:
        run_suite("calculus", SEED, 4)
    err = info.value
    assert err.path_index == 0 and 1 <= err.step <= 1000
    assert str(err).startswith("calculus factor a price 0.0 on path 0 at step ")
    # through the CLI: a one-line numerical failure, exit 4, no check printed
    out, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
        assert cli.main(["verify", "calculus", "--paths", "4"]) == 4
    assert out.getvalue() == ""
    assert stderr.getvalue().startswith("numerical failure: calculus factor a price 0.0 on path 0 at step ")
    assert stderr.getvalue().count("\n") == 1


def test_calculus_reports_factor_a_before_an_earlier_product_underflow(monkeypatch):
    # one kernel call prices a, b, their product and quotient, checked row by
    # row: factor a is named although the product (volatility 80) reaches
    # zero at an earlier step of the same path
    monkeypatch.setattr(verification, "_random_coefficients", _violent_coefficients)
    with pytest.raises(PriceRangeError) as info:
        run_suite("calculus", SEED, 4)
    rng = np.random.default_rng(SEED)
    a, b = _violent_coefficients(rng, MEASURE), _violent_coefficients(rng, MEASURE)
    noise = one_path(MEASURE, GRID, SEED + 2, 0)
    product = exponential_prices([product_coefficients(a, b)], *noise, GRID, [1.3 * 0.7])[0]
    assert product.min() == 0.0 and int(np.argmax(product == 0.0)) < info.value.step
    assert str(info.value).startswith("calculus factor a price 0.0 on path 0 at step ")


def _random_market(rng, n_hedging):
    """A random market drawn one generator call at a time: the oracle for
    _draw_market and the stacks of _market_groups."""
    n_atoms = int(rng.integers(1, 4))
    locs = rng.normal(0.0, 1.0, n_atoms)
    while len(np.unique(locs)) != n_atoms:
        locs = rng.normal(0.0, 1.0, n_atoms)
    measure = LevyMeasure(tuple(JumpAtom(float(x), float(w)) for x, w in zip(locs, rng.uniform(0.5, 15.0, n_atoms))))

    def spec():
        return AssetSpec(
            float(rng.uniform(20.0, 300.0)),
            float(rng.uniform(0.05, 0.6)),
            tuple(rng.uniform(-0.7, 1.5, n_atoms)),
        )

    return spec(), [spec() for _ in range(n_hedging)], measure


def _drawn_markets(n_hedging, n_markets=2000):
    """n_markets draws of _draw_market and the same markets of _random_market,
    each pair from its own generator of one seed."""
    one_at_a_time, split = np.random.default_rng(SEED), np.random.default_rng(SEED)
    draws, markets = [], []
    for _ in range(n_markets):
        markets.append(_random_market(one_at_a_time, n_hedging))
        draws.append(_draw_market(split, n_hedging))
        assert split.bit_generator.state == one_at_a_time.bit_generator.state
    return draws, markets


def _market_grams(draws):
    """Initial prices and volatility Grams of the draws in draw order, from
    the Gram stacks of _market_groups."""
    prices, grams = [None] * len(draws), [None] * len(draws)
    for indices, intensities, initial_prices, loadings in _market_groups(draws):
        for i, p, v in zip(indices, initial_prices, hedging._gram(loadings, intensities)):
            prices[i], grams[i] = p, v
    return np.array(prices), np.array(grams)


@pytest.mark.parametrize("n_hedging", [1, 2])
def test_drawn_markets_are_those_of_one_draw_at_a_time(n_hedging):
    draws, markets = _drawn_markets(n_hedging)
    seen = []
    for indices, intensities, prices, loadings in _market_groups(draws):
        n_atoms = intensities.shape[1]
        assert loadings.shape == (len(indices), 1 + n_hedging, 1 + n_atoms)
        for j, i in enumerate(indices):
            c, assets, m = markets[i]
            assert len(m) == n_atoms and draws[i][0].tolist() == m.locations.tolist()
            assert intensities[j].tolist() == m.intensities.tolist()
            for k, spec in enumerate((c, *assets)):
                assert prices[j, k] == spec.initial_price
                assert loadings[j, k].tolist() == [spec.brownian_vol, *spec.jump_vol]
        seen += indices
    assert sorted(seen) == list(range(len(draws)))


@pytest.mark.parametrize("n_hedging", [1, 2])
def test_stacked_kernels_are_bitwise_the_one_market_calls(n_hedging):
    # every atom count 1-3 among 2000 markets; each stacked kernel against
    # the public call on the market's AssetSpecs, held to the last bit
    draws, markets = _drawn_markets(n_hedging)
    assert {len(m) for _, _, m in markets} == {1, 2, 3}
    prices, v = _market_grams(draws)
    psi = np.random.default_rng(SEED + 1).normal(0.5, 0.5, (len(draws), 3, n_hedging))
    sweeps = _delta(v, psi, prices[:, :1], 1.3)
    points = _delta(v, psi[:, :1], prices[:, :1], 1.3)
    ratios = solve_ratios(v[:, 1:, 1:], v[:, 1:, 0])
    closed = _two_asset_ratios(v) * prices[:, :1] / prices[:, 1:] if n_hedging == 2 else None
    for i, (c, assets, m) in enumerate(markets):
        one = volatility_gram(c, assets, m)
        assert np.array_equal(prices[i], [spec.initial_price for spec in (c, *assets)])
        assert np.array_equal(v[i], one)
        assert np.array_equal(ratios[i], solve_ratios(one[1:, 1:], one[1:, 0]))
        assert np.array_equal(sweeps[i], analytic_delta(c, assets, psi[i], m, 1.3))
        assert points[i, 0] == analytic_delta(c, assets, psi[i, 0], m, 1.3)
        if n_hedging == 2:
            assert np.array_equal(closed[i], two_asset_hedge(c, *assets, tuple(prices[i]), m))


@pytest.mark.parametrize("n_hedging", [1, 2])
@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_bulk_uniforms_are_those_of_numpys_uniform(n_atoms, n_hedging):
    """_draw_market maps one rng.random draw as low + span * u; on 2000
    markets of n_atoms atoms, and on every market drawn among them, that is
    bitwise rng.uniform(low, low + span), whose range is the span, and the
    generator ends in the same state.  A NumPy build that contracts
    uniform's low + range * u to one fused multiply-add rounds once where
    the map rounds twice, and fails here: this test is there to catch it."""
    lows, spans = verification._market_bounds(n_atoms, 1 + n_hedging)
    assert np.array_equal((lows + spans) - lows, spans)
    bulk, oracle = np.random.default_rng(SEED), np.random.default_rng(SEED)
    drawn = 0
    while drawn < 2000:
        locs, uniforms = _draw_market(bulk, n_hedging)
        n = int(oracle.integers(1, 4))
        expected = oracle.normal(0.0, 1.0, n)
        while len(set(expected.tolist())) != n:
            expected = oracle.normal(0.0, 1.0, n)
        low, span = verification._market_bounds(n, 1 + n_hedging)
        assert np.array_equal(locs.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(uniforms.view(np.uint64), oracle.uniform(low, low + span).view(np.uint64))
        drawn += n == n_atoms
    assert bulk.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_drawn_single_asset_markets_are_never_degenerate(n_atoms):
    # the single-asset check divides by M = V[1, 1] and rejects no market:
    # bounds that let M fall to 1e-6 of K = V[0, 0] (a near-degenerate
    # market) fail here instead of feeding that divide
    lows, spans = verification._market_bounds(n_atoms, 2)
    highs = lows + spans
    w_low, w_high = lows[:n_atoms], highs[:n_atoms]
    # per spec: initial price, Brownian volatility, jump volatilities
    least_sq = np.where(lows * highs <= 0.0, 0.0, np.minimum(lows**2, highs**2))[n_atoms:].reshape(2, -1)
    most_sq = np.maximum(lows**2, highs**2)[n_atoms:].reshape(2, -1)
    largest_k = most_sq[0, 1] + most_sq[0, 2:] @ w_high
    least_m = least_sq[1, 1] + least_sq[1, 2:] @ w_low
    assert least_m / largest_k > 1e-6
    # and the bounds hold on drawn markets
    rng = np.random.default_rng(SEED)
    drawn = [_draw_market(rng, 1) for _ in range(600)]
    grams = _market_grams(drawn)[1][[len(locations) == n_atoms for locations, _ in drawn]]
    assert len(grams) > 100
    assert grams[:, 0, 0].max() <= largest_k
    assert grams[:, 1, 1].min() >= least_m


CLOSED_FORM = "two-asset closed form equals the linear solve"
REPLICATION = "two-asset replication in a two-atom market"
QUADRATIC_FORM = "grid values agree with the quadratic form"
ARGMIN = "randomized argmin within one grid step"
CONVEXITY = "error is strictly convex in the ratio"


@pytest.mark.parametrize(
    "name, factor, failing",
    [("_two_asset_ratios", 1 + 1e-3, {CLOSED_FORM, REPLICATION}), ("solve_ratios", 1 + 1e-6, {CLOSED_FORM})],
)
def test_two_asset_checks_fail_on_a_scaled_hedge(monkeypatch, name, factor, failing):
    # the stacked kernel, in every module that binds it: the closed form
    # reaches the optimality suite's stack and, through two_asset_hedge, the
    # completeness suite's replication
    real = getattr(verification, name)
    for module in (hedging, verification):
        monkeypatch.setattr(module, name, lambda *args: real(*args) * factor)
    results = run_suite("optimality", SEED, 4) + run_suite("completeness", SEED, 4)
    assert {r.name for r in results if not r.passed} == failing


@pytest.mark.parametrize("count", [1, pytest.param(2, marks=FORKS)])
@pytest.mark.parametrize(
    "name, market, index, failing",
    [
        # the first holding of the 751st accepted two-asset market, in the
        # stack of the accepted ones of the first 1000 draws
        ("_two_asset_ratios", 750, 0, {CLOSED_FORM}),
        # the middle of the 76th single-asset market's sweep, in the stack
        # of its atom count; np.argmin would land on the NaN, one grid
        # offset from L / M, so that market's argmin gap is NaN
        ("_delta", 75, 250, {QUADRATIC_FORM, ARGMIN, CONVEXITY}),
    ],
    ids=["two-asset holding", "single-asset sweep"],
)
def test_a_nan_error_fails_its_optimality_check(processes, monkeypatch, name, market, index, failing, count):
    # the random markets run in this process on stacks, at any process
    # count; the Monte Carlo check forks at count 2
    real = getattr(verification, name)
    grams = []

    def recorded(v, *args):
        out = real(v, *args)
        # every closed-form stack; of _delta, the stacked sweeps
        if name == "_two_asset_ratios" or out.shape[-1] == 501:
            grams.extend(v)
        return out

    processes(1)
    monkeypatch.setattr(verification, name, recorded)
    run_suite("optimality", SEED, 4)
    # the closed form's stacks follow the draw order; the sweeps' stacks go
    # by atom count, so the 76th market is found by the suite's first draws
    rng, draws = np.random.default_rng(SEED + 10), []
    for _ in range(100):
        draws.append(_draw_market(rng, 1))
        rng.uniform(-1.0, 1.0)  # the market's ratio offset
    target = grams[market] if name == "_two_asset_ratios" else _market_grams(draws)[1][market]
    assert name == "_two_asset_ratios" or sum((v == target).all() for v in grams) == 1

    def poisoned(v, *args):
        out = real(v, *args)
        if name == "_two_asset_ratios" or out.shape[-1] == 501:
            out[(v == target).all(axis=(-2, -1)), index] = np.nan
        return out

    processes(count)
    monkeypatch.setattr(verification, name, poisoned)
    failed = {r.name: r.detail for r in run_suite("optimality", SEED, 4) if not r.passed}
    assert len(grams) == (1000 if name == "_two_asset_ratios" else 100)
    assert set(failed) == failing
    assert all("=nan" in detail for detail in failed.values())


@pytest.mark.parametrize("module", [cli, sim_harness, verification])
def test_package_hedges_only_through_the_volatility_gram(module):
    # the price-weighted layer and the K/L/M dataclass are kept for the
    # benchmark's hedge_sweep workload alone; the package reads the Gram
    retired = {"gram_system", "multi_asset_hedge", "degeneracy_check", "single_coefficients", "GramSystem"}
    assert not retired & set(vars(module))


def test_run_suite_all_checks_its_inputs_once(monkeypatch):
    check = mock.Mock(wraps=verification._check_inputs)
    monkeypatch.setattr(verification, "_check_inputs", check)
    suites = {name: (lambda seed, n, name=name: [(name, seed, n)]) for name in verification.SUITE_NAMES}
    monkeypatch.setattr(verification, "_SUITES", suites)
    assert run_suite("all", SEED, 4) == [(name, SEED, 4) for name in verification.SUITE_NAMES]
    check.assert_called_once_with("all", SEED, 4)


@pytest.mark.parametrize(
    "name, seed, n_paths, message",
    [
        ("isometry", -1, None, "seed must"),
        ("isometry", 1.5, None, "seed must"),
        ("isometry", True, None, "seed must"),
        ("isometry", "7", None, "seed must"),
        ("isometry", SEED, 0, "paths must"),
        ("isometry", SEED, 1, "paths must"),
        ("isometry", SEED, True, "paths must"),
        ("isometry", SEED, 2.0, "paths must"),
        ("all", SEED, 10**9 + 1, "paths must"),
        ("all", SEED, 2**63, "paths must"),
        ("everything", SEED, None, "unknown suite"),
    ],
)
def test_run_suite_rejects_bad_inputs_before_any_suite_starts(monkeypatch, name, seed, n_paths, message):
    # no NaN from a one-path standard error, no TypeError from deep inside a suite
    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verification, "_SUITES", dict.fromkeys(verification.SUITE_NAMES, no_run))
    with pytest.raises(ValueError, match=f"^{message} "):
        run_suite(name, seed, n_paths)
