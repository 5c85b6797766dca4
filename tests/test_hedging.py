from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import noise_blocks, one_path, ratio_residuals, spec_prices
from levyhedge import (
    AssetSpec,
    DegeneracyError,
    GeometricBernoulliSpec,
    GramSystem,
    JumpAtom,
    LevyMeasure,
    Scenario,
    TimeGrid,
    analytic_delta,
    benchmark_holdings,
    builtin_scenario,
    degeneracy_check,
    exponential_prices,
    gram_system,
    hedge_residuals,
    integrate_proportional_block,
    multi_asset_hedge,
    natural_coefficients,
    portfolio_values,
    rho_diagnostic,
    run_scenario,
    sample_noise_block,
    scenario_ratios,
    single_coefficients,
    solve_ratios,
    two_asset_hedge,
    volatility_gram,
)
from levyhedge import hedging, sim_harness

SEED = 9118


def _two_term(s_a, b_a, s_b, b_b):
    """Literal two-atom arithmetic oracle for the volatility inner product."""
    up = (np.exp(b_a) - 1.0) * (np.exp(b_b) - 1.0)
    down = (np.exp(-b_a) - 1.0) * (np.exp(-b_b) - 1.0)
    return s_a * s_b + 7.5 * up + 7.5 * down


def _solve(contract, assets, measure):
    """Optimal scaled ratios of hedging ``contract`` with all of ``assets``."""
    v = volatility_gram(contract, assets, measure)
    return solve_ratios(v[1:, 1:], v[1:, 0])


# Frozen golden ratios of the pure-jump complete market (independent
# atom-matching solve; see test_pure_jump_two_asset_hedge_replicates).
PURE_JUMP_RATIOS = (0.41606008891513463, 0.625390267269132)


# ---------------------------------------------------------------- K/L/M


def test_identical_specs_give_equal_coefficients(bern_measure, contract):
    co = single_coefficients(contract, contract, bern_measure)
    assert co.K == co.L == co.M


def test_single_coefficients_match_two_term_arithmetic(bern_measure, contract, asset_high):
    co = single_coefficients(contract, asset_high, bern_measure)
    assert co.K == pytest.approx(_two_term(0.15, 0.25, 0.15, 0.25), rel=1e-14)
    assert co.L == pytest.approx(_two_term(0.20, 0.30, 0.15, 0.25), rel=1e-14)
    assert co.M == pytest.approx(_two_term(0.20, 0.30, 0.20, 0.30), rel=1e-14)
    # four-decimal checkpoints
    assert co.L == pytest.approx(1.2052, abs=5e-5)
    assert co.M == pytest.approx(1.4618, abs=5e-5)


def test_brownian_only_coefficients():
    m = LevyMeasure()
    co = single_coefficients(AssetSpec(1.0, 0.15), AssetSpec(1.0, 0.2), m)
    assert (co.K, co.L, co.M) == (0.15**2, 0.2 * 0.15, 0.2**2)


def test_cauchy_schwarz_holds_on_random_specs(bern_measure):
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        a = AssetSpec(1.0, rng.normal(0, 0.5), tuple(rng.uniform(-0.8, 2.0, 2)))
        b = AssetSpec(1.0, rng.normal(0, 0.5), tuple(rng.uniform(-0.8, 2.0, 2)))
        co = single_coefficients(a, b, bern_measure)
        assert co.L**2 <= co.K * co.M * (1.0 + 1e-12)


# ---------------------------------------------------------------- single hedge


def test_self_hedge_ratio_is_one(bern_measure, contract):
    assert _solve(contract, [contract], bern_measure).tolist() == [1.0]


def test_brownian_ratio_and_perfect_hedge(unit_grid):
    # the ratio cancels the Brownian term of the linear per-step increments,
    # so on Euler paths the residuals vanish identically
    m = LevyMeasure()
    c_spec = AssetSpec(100.0, 0.15)
    a_spec = AssetSpec(100.0, 0.20)
    co = single_coefficients(c_spec, a_spec, m)
    (phi,) = _solve(c_spec, [a_spec], m)
    assert phi == pytest.approx(0.75, abs=1e-15)
    prices = spec_prices(integrate_proportional_block, (c_spec, a_spec), m, one_path(m, unit_grid, SEED, 0), unit_grid)
    assert np.abs(ratio_residuals(prices, (co.L / co.M,))).max() <= 1e-10


def test_fig_single_ratio_matches_sweep(bern_measure, contract, asset_high):
    co = single_coefficients(contract, asset_high, bern_measure)
    (phi,) = _solve(contract, [asset_high], bern_measure)
    assert phi == pytest.approx(0.8245, abs=5e-5)
    # brute-force the quadratic on a fine grid: same minimizer
    grid = np.arange(0.0, 2.0, 1e-3)
    deltas = [analytic_delta(contract, [asset_high], [g], bern_measure, 1.0) for g in grid]
    assert abs(grid[int(np.argmin(deltas))] - co.L / co.M) <= 1e-3


def test_degenerate_asset_raises(bern_measure, contract):
    dead = AssetSpec(100.0, 0.0, (0.0, 0.0))
    with pytest.raises(DegeneracyError):
        _solve(contract, [dead], bern_measure)


# ---------------------------------------------------------------- gram system


def test_gram_reduces_to_single_coefficients(bern_measure, contract, asset_high):
    co = single_coefficients(contract, asset_high, bern_measure)
    system = gram_system(contract, [asset_high], 90.0, [110.0], bern_measure)
    assert system.M[0, 0] == pytest.approx(110.0**2 * co.M, rel=1e-14)
    assert system.F[0] == pytest.approx(110.0 * 90.0 * co.L, rel=1e-14)
    assert system.G == pytest.approx(90.0**2 * co.K, rel=1e-14)


def test_gram_permutation_symmetry(bern_measure, contract, asset_high, asset_low):
    sys_ab = gram_system(contract, [asset_high, asset_low], 100.0, [101.0, 99.0], bern_measure)
    sys_ba = gram_system(contract, [asset_low, asset_high], 100.0, [99.0, 101.0], bern_measure)
    np.testing.assert_allclose(sys_ab.M, sys_ba.M[::-1, ::-1], rtol=0, atol=0)
    np.testing.assert_allclose(sys_ab.F, sys_ba.F[::-1], rtol=0, atol=0)
    assert sys_ab.G == sys_ba.G


def test_gram_golden_values(bern_measure, contract, asset_high, asset_low):
    system = gram_system(contract, [asset_high, asset_low], 100.0, [100.0, 100.0], bern_measure)
    s2 = 100.0 * 100.0
    assert system.M[0, 0] == pytest.approx(s2 * _two_term(0.20, 0.30, 0.20, 0.30), rel=1e-13)
    assert system.M[1, 1] == pytest.approx(s2 * _two_term(0.10, 0.20, 0.10, 0.20), rel=1e-13)
    assert system.M[0, 1] == pytest.approx(s2 * _two_term(0.20, 0.30, 0.10, 0.20), rel=1e-13)
    assert system.F[0] == pytest.approx(s2 * _two_term(0.20, 0.30, 0.15, 0.25), rel=1e-13)
    assert system.F[1] == pytest.approx(s2 * _two_term(0.10, 0.20, 0.15, 0.25), rel=1e-13)


def test_gram_dimension_mismatch(bern_measure, contract, asset_high):
    with pytest.raises(ValueError):
        gram_system(contract, [asset_high], 100.0, [100.0, 100.0], bern_measure)


def test_gram_requires_symmetry():
    with pytest.raises(ValueError):
        GramSystem(np.array([[1.0, 0.2], [0.3, 1.0]]), np.ones(2), 1.0, np.ones(2))


@pytest.mark.parametrize("scale", [1.0, 3.0, 1e6])
def test_gram_symmetry_tolerance(scale):
    # |M - M^T| <= 1e-12 * max(1, max|M|) elementwise
    tol = 1e-12 * max(1.0, scale)

    def system(asymmetry):
        m = np.array([[scale, 0.5 * scale], [0.5 * scale + asymmetry, 0.8 * scale]])
        return GramSystem(m, np.ones(2), 1.0, np.ones(2))

    assert system(0.9 * tol).M.shape == (2, 2)
    assert system(-0.9 * tol).M.shape == (2, 2)
    for asymmetry in (1.1 * tol, -1.1 * tol, np.nan):
        with pytest.raises(ValueError, match="symmetric"):
            system(asymmetry)


# ---------------------------------------------------------------- solvers


def test_multi_asset_matches_single(bern_measure, contract, asset_high):
    system = gram_system(contract, [asset_high], 100.0, [100.0], bern_measure)
    phi = multi_asset_hedge(system)
    assert phi[0] == pytest.approx(_solve(contract, [asset_high], bern_measure)[0], abs=1e-12)


def test_replicable_contract_takes_unit_position(bern_measure, contract, asset_high):
    system = gram_system(contract, [contract, asset_high], 100.0, [100.0, 100.0], bern_measure)
    phi = multi_asset_hedge(system)
    np.testing.assert_allclose(phi, [1.0, 0.0], atol=1e-12)


def test_pure_jump_two_asset_hedge_replicates(bern_measure, unit_grid):
    # independent oracle: with no Brownian part the two scaled ratios solve
    # the 2x2 linear system matching both jump volatilities exactly
    sc = np.expm1(0.25 * bern_measure.locations)
    s1 = np.expm1(0.30 * bern_measure.locations)
    s2 = np.expm1(0.20 * bern_measure.locations)
    psi = np.linalg.solve(np.column_stack([s1, s2]), sc)
    np.testing.assert_allclose(psi, PURE_JUMP_RATIOS, rtol=0, atol=1e-12)
    np.testing.assert_allclose(psi, [0.4162, 0.6252], atol=1e-3)

    contract = AssetSpec(100.0, 0.0, tuple(sc))
    a1 = AssetSpec(100.0, 0.0, tuple(s1))
    a2 = AssetSpec(100.0, 0.0, tuple(s2))
    system = gram_system(contract, [a1, a2], 100.0, [100.0, 100.0], bern_measure)
    phi = multi_asset_hedge(system)
    np.testing.assert_allclose(phi, psi, atol=1e-10)

    # replication: residuals vanish pathwise on Euler-integrated paths
    noise = sample_noise_block(bern_measure, unit_grid, SEED + 1, 0, 25)
    prices = spec_prices(integrate_proportional_block, (contract, a1, a2), bern_measure, noise, unit_grid)
    assert np.abs(ratio_residuals(prices, tuple(phi))).max() <= 1e-9 * 100.0


def test_two_asset_closed_form_agrees_with_solver(bern_measure, contract, asset_high, asset_low):
    prices = (100.0, 100.0, 100.0)
    closed = two_asset_hedge(contract, asset_high, asset_low, prices, bern_measure)
    system = gram_system(contract, [asset_high, asset_low], 100.0, [100.0, 100.0], bern_measure)
    solved = multi_asset_hedge(system)
    np.testing.assert_allclose(closed, solved, atol=1e-10)


def test_two_asset_replication_by_second_asset(bern_measure, contract, asset_high):
    phi1, phi2 = two_asset_hedge(contract, asset_high, contract, (100.0, 100.0, 100.0), bern_measure)
    assert phi1 == pytest.approx(0.0, abs=1e-12)
    assert phi2 == pytest.approx(1.0, abs=1e-12)


def test_two_asset_determinant_underflow_is_degenerate():
    # Gram entries ~1e-192 pass the eigenvalue rule, but V11 V22 - V12^2
    # underflows to zero
    m = LevyMeasure.bernoulli(15.0, 0.5)
    vol = 1.6e-96
    contract = AssetSpec(100.0, vol, (vol, -vol))
    a1 = AssetSpec(100.0, vol, (2.0 * vol, 0.0))
    a2 = AssetSpec(100.0, 0.0, (0.0, 3.0 * vol))
    v = volatility_gram(contract, [a1, a2], m)
    assert v[1, 1] * v[2, 2] - v[1, 2] ** 2 == 0.0
    with pytest.raises(DegeneracyError) as err:
        two_asset_hedge(contract, a1, a2, (100.0, 100.0, 100.0), m)
    assert err.value.report is not None and not err.value.report.degenerate


def test_duplicated_assets_are_degenerate(bern_measure, contract, asset_high):
    with pytest.raises(DegeneracyError) as err:
        two_asset_hedge(contract, asset_high, asset_high, (100.0, 100.0, 100.0), bern_measure)
    assert err.value.report is not None and err.value.report.degenerate
    system = gram_system(contract, [asset_high, asset_high], 100.0, [100.0, 100.0], bern_measure)
    with pytest.raises(DegeneracyError):
        multi_asset_hedge(system)


# ---------------------------------------------------------------- degeneracy report


def test_degeneracy_report_flags_rank_deficiency(bern_measure, contract, asset_high):
    system = gram_system(contract, [asset_high, asset_high], 100.0, [100.0, 100.0], bern_measure)
    report = degeneracy_check(system)
    assert report.degenerate
    assert report.min_eigenvalue <= 1e-10


def test_degeneracy_report_on_healthy_system(bern_measure, contract, asset_high, asset_low):
    system = gram_system(contract, [asset_high, asset_low], 100.0, [100.0, 100.0], bern_measure)
    report = degeneracy_check(system)
    assert not report.degenerate
    # characteristic-polynomial oracle for the 2x2 price-scaled matrix
    v11 = _two_term(0.20, 0.30, 0.20, 0.30)
    v22 = _two_term(0.10, 0.20, 0.10, 0.20)
    v12 = _two_term(0.20, 0.30, 0.10, 0.20)
    tr, det = v11 + v22, v11 * v22 - v12**2
    lam_min = 0.5 * (tr - np.sqrt(tr * tr - 4.0 * det))
    lam_max = 0.5 * (tr + np.sqrt(tr * tr - 4.0 * det))
    assert report.min_eigenvalue == pytest.approx(lam_min, rel=1e-9)
    assert report.condition_number == pytest.approx(lam_max / lam_min, rel=1e-9)


def test_zero_volatility_single_asset_is_degenerate(bern_measure, contract):
    dead = AssetSpec(100.0, 0.0, (0.0, 0.0))
    system = gram_system(contract, [dead], 100.0, [100.0], bern_measure)
    assert degeneracy_check(system).degenerate


# ---------------------------------------------------------------- portfolio evolution


def test_zero_strategy_tracks_the_contract(bern_measure, unit_grid, contract, asset_high):
    noise = one_path(bern_measure, unit_grid, SEED, 2)
    prices = spec_prices(exponential_prices, (contract, asset_high), bern_measure, noise, unit_grid)
    c, s = prices[0], prices[1:]
    phi = np.zeros((1, unit_grid.steps + 1))  # holdings at every grid time
    dv, gains = hedge_residuals(c, s, phi[:, :-1])
    np.testing.assert_allclose(portfolio_values(c, dv), c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dv, np.diff(c), rtol=0, atol=1e-12)
    theta = benchmark_holdings(phi.T, s.T, gains)
    assert theta.shape == (unit_grid.steps + 1,)
    assert np.all(theta == 0.0)


def test_portfolio_accounting_identities(bern_measure, unit_grid, contract, asset_high, asset_low):
    specs = (contract, asset_high, asset_low)
    prices = spec_prices(exponential_prices, specs, bern_measure, one_path(bern_measure, unit_grid, SEED, 3), unit_grid)
    c, s = prices[0], prices[1:]
    phi = np.array([[0.4], [0.5]]) * (c[:-1] / s[:, :-1])  # psi_i C_left / S^i_left
    dv, gains = hedge_residuals(c, s, phi)
    phi, s = phi.T, s.T  # one row per grid time, as the golden path holds them
    held = np.vstack([phi, phi[-1:]])  # the holdings of t_{N-1} carry to t_N
    theta = benchmark_holdings(held, s, gains)
    assert theta.shape == (unit_grid.steps + 1,)

    # theta replays the self-financing ledger step by step, through row N
    total = 0.0
    for i in range(unit_grid.steps + 1):
        expected_theta = float(held[i] @ s[i]) - total
        assert theta[i] == pytest.approx(expected_theta, rel=1e-12, abs=1e-9)
        if i < unit_grid.steps:
            total += float(phi[i] @ (s[i + 1] - s[i]))

    # portfolio value decomposes as V = C - phi.S + theta at every grid time
    v = portfolio_values(c, dv)
    recon = c - (held * s).sum(axis=1) + theta
    np.testing.assert_allclose(v, recon, rtol=1e-9)
    # initial value equals the contract value
    assert v[0] == c[0]
    np.testing.assert_allclose(v[1:] - v[:-1], np.diff(c) - (phi * np.diff(s, axis=0)).sum(axis=1), rtol=0, atol=1e-9)


def _theta_before_the_terminal_row(phi, s, gains):
    """The ledger as it stood when holdings covered t_0..t_{N-1} only:
    theta at those N times, from holdings (steps, n_hedging)."""
    cum_gains = np.concatenate(([0.0], np.cumsum(gains)[:-1]))
    return (phi * s[:-1]).sum(axis=1) - cum_gains


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig3", "fig4"])
def test_terminal_row_leaves_earlier_theta_bitwise_unchanged(name):
    g = run_scenario(builtin_scenario(name, n_paths=1)).golden
    phi = g.phi[:-1]
    np.testing.assert_array_equal(g.phi[-1], phi[-1])
    gains = hedge_residuals(g.contract_values, g.asset_values.T, phi.T)[1]
    np.testing.assert_array_equal(g.theta[:-1], _theta_before_the_terminal_row(phi, g.asset_values, gains))


@pytest.mark.parametrize("n", [9, 40])
def test_golden_theta_sums_each_grid_time_as_a_contiguous_row(monkeypatch, n):
    # from 8 assets NumPy sums a contiguous row pairwise and a strided one in
    # index order: the golden path holds C-contiguous (steps + 1, n) arrays,
    # so theta is bitwise the ledger formula on such arrays of each asset
    # priced alone, whatever the price blocks' layout
    rng = np.random.default_rng([SEED, n])
    assets = tuple(
        GeometricBernoulliSpec(float(rng.uniform(50.0, 150.0)), float(rng.uniform(0.05, 0.4)), float(rng.uniform(-0.5, 0.5)))
        for _ in range(n)
    )
    s = builtin_scenario("fig3", hedging_assets=assets, hedge_mode="multi", n_paths=1)
    ratios = tuple(rng.uniform(-1.0, 2.0, n))  # arbitrary: the n-asset Gram here is singular
    monkeypatch.setattr(sim_harness, "scenario_ratios", lambda _: ratios)
    g = run_scenario(s).golden
    assert g.asset_values.flags.c_contiguous and g.phi.flags.c_contiguous

    dw, counts = one_path(s.measure, s.grid, s.seed, 0)

    def alone(spec):
        return exponential_prices([natural_coefficients(spec, s.measure)], dw, counts, s.grid, [spec.initial_price])[0]

    c = alone(s.natural_contract())
    a = np.stack([alone(spec) for spec in s.natural_assets()], axis=1)  # C-contiguous (steps + 1, n)
    phi = np.asarray(ratios) * (c[:-1, None] / a[:-1])
    held = np.vstack([phi, phi[-1:]])
    gains = phi[:, 0] * np.diff(a[:, 0])
    for k in range(1, n):
        gains += phi[:, k] * np.diff(a[:, k])
    np.testing.assert_array_equal(g.asset_values, a)
    np.testing.assert_array_equal(g.phi, held)
    np.testing.assert_array_equal(g.theta, (held * a).sum(axis=1) - np.concatenate(([0.0], np.cumsum(gains))))


# ---------------------------------------------------------------- analytic error


def test_optimal_and_no_hedge_errors(bern_measure, contract, asset_high):
    co = single_coefficients(contract, asset_high, bern_measure)
    t, c0sq = 1.0, 100.0**2
    d_opt = analytic_delta(contract, [asset_high], [co.L / co.M], bern_measure, t)
    d_zero = analytic_delta(contract, [asset_high], [0.0], bern_measure, t)
    assert d_opt == pytest.approx(t * (co.K - co.L**2 / co.M) * c0sq, rel=1e-12)
    assert d_zero == pytest.approx(t * co.K * c0sq, rel=1e-12)


def test_error_gap_identity(bern_measure, contract, asset_high):
    co = single_coefficients(contract, asset_high, bern_measure)
    psi_hat = co.L / co.M
    rng = np.random.default_rng(SEED + 5)
    for _ in range(20):
        psi = psi_hat + float(rng.uniform(-1.5, 1.5))
        gap = analytic_delta(contract, [asset_high], [psi], bern_measure, 1.0) - analytic_delta(
            contract, [asset_high], [psi_hat], bern_measure, 1.0
        )
        expected = 1.0 * co.M * (psi - psi_hat) ** 2 * 100.0**2
        assert gap == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_monte_carlo_error_matches_analytic(bern_measure, unit_grid, contract, asset_high):
    # Euler dynamics carry the quadratic form as their exact per-step
    # variance, so the contract-normalized estimator is unbiased for the
    # frozen-price closed form.
    co = single_coefficients(contract, asset_high, bern_measure)
    ratios = (co.L / co.M,)
    n = 2000
    samples = []
    for noise in noise_blocks(bern_measure, unit_grid, SEED + 6, n):
        prices = spec_prices(integrate_proportional_block, (contract, asset_high), bern_measure, noise, unit_grid)
        rel = ratio_residuals(prices, ratios) / prices[0, :, :-1]
        samples.append(100.0**2 * (rel * rel).sum(axis=1))
    samples = np.concatenate(samples)
    analytic = analytic_delta(contract, [asset_high], ratios, bern_measure, 1.0)
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(samples.mean() - analytic) <= 3.0 * se


# ---------------------------------------------------------------- rho


def test_rho_for_identical_specs_is_one(bern_measure, contract):
    assert rho_diagnostic(contract, contract, bern_measure) == 1.0


def test_rho_brownian_market_is_one():
    m = LevyMeasure()
    assert rho_diagnostic(AssetSpec(1.0, 0.15), AssetSpec(1.0, 0.2), m) == pytest.approx(1.0, abs=1e-15)


def test_rho_fig_value_and_error_fraction(bern_measure, contract, asset_high):
    rho = rho_diagnostic(contract, asset_high, bern_measure)
    co = single_coefficients(contract, asset_high, bern_measure)
    assert rho == pytest.approx(co.L**2 / (co.K * co.M), rel=1e-14)
    assert 0.99 < rho < 1.0
    d_opt = analytic_delta(contract, [asset_high], [co.L / co.M], bern_measure, 1.0)
    d_zero = analytic_delta(contract, [asset_high], [0.0], bern_measure, 1.0)
    assert d_opt == pytest.approx((1.0 - rho) * d_zero, rel=1e-10, abs=1e-10)


def test_rho_bounds_on_random_specs(bern_measure):
    rng = np.random.default_rng(SEED + 7)
    checked = 0
    while checked < 50:
        a = AssetSpec(1.0, rng.normal(0, 0.5), tuple(rng.uniform(-0.8, 2.0, 2)))
        b = AssetSpec(1.0, rng.normal(0, 0.5), tuple(rng.uniform(-0.8, 2.0, 2)))
        try:
            rho = rho_diagnostic(a, b, bern_measure)
        except DegeneracyError:
            continue
        checked += 1
        assert 0.0 <= rho <= 1.0 + 1e-12


def test_rho_degenerate_inputs_raise(bern_measure, contract):
    dead = AssetSpec(100.0, 0.0, (0.0, 0.0))
    with pytest.raises(DegeneracyError):
        rho_diagnostic(contract, dead, bern_measure)
    with pytest.raises(DegeneracyError):
        rho_diagnostic(dead, contract, bern_measure)


# ---------------------------------------------------------------- volatility Gram properties


def _reals(lo: float, hi: float):
    """Floats in [lo, hi] that are 0 or at least 1e-6 in size: smaller
    volatilities square into subnormal floats, which carry no relative accuracy."""
    return st.floats(lo, hi).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


@st.composite
def _measures(draw):
    locations = draw(st.lists(_reals(-1.5, 1.5), max_size=4, unique=True))
    return LevyMeasure(tuple(JumpAtom(x, draw(st.floats(0.1, 15.0))) for x in locations))


@st.composite
def _gram_inputs(draw):
    """A measure with 0-4 atoms, a contract and 1-4 hedging assets with
    independent jump volatilities."""
    measure = draw(_measures())

    def spec():
        jump_vol = draw(st.lists(_reals(-0.9, 2.0), min_size=len(measure), max_size=len(measure)))
        return AssetSpec(draw(st.floats(20.0, 300.0)), draw(_reals(-0.6, 0.6)), tuple(jump_vol))

    return measure, spec(), [spec() for _ in range(draw(st.integers(1, 4)))]


@st.composite
def _scenarios(draw, hedge_mode: str, n_hedging: int):
    """Scenario with geometric specs Sigma_k = exp(beta x_k) - 1 on a random measure."""

    def spec():
        return GeometricBernoulliSpec(draw(st.floats(20.0, 300.0)), draw(_reals(-0.6, 0.6)), draw(_reals(-1.0, 1.0)))

    return Scenario(
        measure=draw(_measures()),
        contract=spec(),
        hedging_assets=tuple(spec() for _ in range(n_hedging)),
        grid=TimeGrid(1.0, 10),
        n_paths=1,
        seed=0,
        hedge_mode=hedge_mode,
    )


@settings(max_examples=200, deadline=None)
@given(_gram_inputs())
def test_volatility_gram_matches_double_loop(inputs):
    measure, contract, assets = inputs
    v = volatility_gram(contract, assets, measure)
    # a second call on the same objects returns the kept Gram, and equal
    # copies of the specs build it afresh: both give exactly its bits
    again = volatility_gram(contract, tuple(assets), measure)
    fresh = volatility_gram(replace(contract), [replace(a) for a in assets], measure)
    assert again is v and fresh is not v
    assert again.tobytes() == v.tobytes() == fresh.tobytes()
    for kept in (v, fresh):
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 0.0
    specs = [contract, *assets]
    loop = np.empty((len(specs), len(specs)))
    bound = np.empty_like(loop)  # sum of |terms|: the error scale of each sum
    for a, sa in enumerate(specs):
        for b, sb in enumerate(specs):
            terms = [sa.brownian_vol * sb.brownian_vol]
            terms += [x * y * wk for x, y, wk in zip(sa.jump_vol, sb.jump_vol, measure.intensities)]
            loop[a, b] = sum(terms)
            bound[a, b] = sum(abs(t) for t in terms)
    assert np.all(np.abs(v - loop) <= 1e-12 * bound)
    assert np.array_equal(v, v.T)
    # Cauchy-Schwarz L^2 <= K M for every asset against the contract
    assert np.all(v[1:, 0] ** 2 <= v[0, 0] * np.diag(v)[1:] * (1.0 + 1e-12))


def test_volatility_gram_keys_on_identity_not_value():
    # -0.0 == 0.0, so a table keyed on values would hand one spec the
    # other's Gram; each must get what a fresh build of its own specs gives
    measure = LevyMeasure((JumpAtom(1.0, 2.0),))
    asset = AssetSpec(80.0, 0.2, (0.3,))
    for sign in (-0.0, 0.0, -0.0):
        contract = AssetSpec(100.0, sign, (sign,))
        v = volatility_gram(contract, [asset], measure)
        fresh = volatility_gram(replace(contract), [replace(asset)], measure)
        assert v is not fresh
        assert v.tobytes() == fresh.tobytes()
        assert np.array_equal(np.signbit(v), np.signbit(fresh))


def test_gram_slot_holds_the_last_finite_gram():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        n_atoms = int(rng.integers(0, 4))
        measure = LevyMeasure(tuple(JumpAtom(float(x), 1.0) for x in rng.permutation(8)[:n_atoms] - 4.0))
        specs = [AssetSpec(100.0, float(rng.uniform(0.05, 0.6)), tuple(rng.uniform(-0.5, 1.0, n_atoms))) for _ in range(3)]
        v = volatility_gram(specs[0], specs[1:], measure)
        analytic_delta(specs[0], specs[1:], [0.5, 0.5], measure, 1.0)
        assert np.isfinite(v).all()
        kept, kept_v = hedging._gram_slot
        assert len(kept) == 4 and all(x is y for x, y in zip(kept, (measure, *specs)))
        assert kept_v is v and not kept_v.flags.writeable
        assert volatility_gram(specs[0], specs[1:], measure) is v


def test_an_overflowing_gram_is_never_kept(bern_measure, contract):
    # kept, it would return without its warning, and -W error runs would
    # no longer see the overflow
    huge = AssetSpec(100.0, 0.1, (1e200, 0.1))
    for _ in range(3):
        with pytest.warns(RuntimeWarning, match="overflow"):
            v = volatility_gram(contract, [huge], bern_measure)
        assert not np.isfinite(v).all()
        assert hedging._gram_slot[1] is not v


@settings(max_examples=200, deadline=None)
@given(_scenarios("two_asset", 2))
def test_two_asset_solve_matches_closed_form(s):
    contract, (a1, a2) = s.natural_contract(), s.natural_assets()
    v = volatility_gram(contract, [a1, a2], s.measure)
    assume(np.linalg.cond(v[1:, 1:]) < 1e4)
    c0, s1, s2 = contract.initial_price, a1.initial_price, a2.initial_price
    phi1, phi2 = two_asset_hedge(contract, a1, a2, (c0, s1, s2), s.measure)
    closed = np.array([phi1 * s1 / c0, phi2 * s2 / c0])
    solved = np.array(scenario_ratios(s))
    assert np.all(np.abs(solved - closed) <= 1e-10 * max(1.0, float(np.abs(closed).max())))


@settings(max_examples=200, deadline=None)
@given(_scenarios("single", 1))
def test_single_optimum_removes_the_fraction_rho(s):
    contract, assets = s.natural_contract(), s.natural_assets()
    try:
        rho = rho_diagnostic(contract, assets[0], s.measure)
        ratios = scenario_ratios(s)
    except DegeneracyError:
        assume(False)
    d_opt = analytic_delta(contract, assets, ratios, s.measure, s.grid.horizon)
    d_zero = analytic_delta(contract, assets, [0.0], s.measure, s.grid.horizon)
    assert abs(d_opt - (1.0 - rho) * d_zero) <= 1e-10 * d_zero


def _ratio_stacks(n_hedging: int):
    """Arrays of scaled-ratio vectors, shape (k, n_hedging) or (k1, k2, n_hedging)."""
    shapes = st.sampled_from([(1,), (5,), (2, 3)])
    return shapes.flatmap(
        lambda shape: st.lists(
            _reals(-3.0, 3.0), min_size=int(np.prod(shape)) * n_hedging, max_size=int(np.prod(shape)) * n_hedging
        ).map(lambda xs: np.array(xs).reshape(shape + (n_hedging,)))
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stacked_analytic_delta_equals_per_row_calls(data):
    measure, contract, assets = data.draw(_gram_inputs())
    psi = data.draw(_ratio_stacks(len(assets)))
    stacked = analytic_delta(contract, assets, psi, measure, 0.7)
    assert isinstance(stacked, np.ndarray) and stacked.shape == psi.shape[:-1]
    v = volatility_gram(contract, assets, measure)
    for idx in np.ndindex(psi.shape[:-1]):
        row = analytic_delta(contract, assets, psi[idx], measure, 0.7)
        assert isinstance(row, float)
        # relative to the sum of |terms| of c'Vc, the error scale of the sum
        c = np.concatenate(([1.0], -psi[idx]))
        scale = 0.7 * contract.initial_price**2 * float(np.abs(c) @ np.abs(v) @ np.abs(c))
        assert abs(stacked[idx] - row) <= 1e-13 * scale


def test_analytic_delta_rejects_wrong_ratio_count(bern_measure, contract, asset_high, asset_low):
    with pytest.raises(ValueError):
        analytic_delta(contract, [asset_high, asset_low], np.zeros((4, 3)), bern_measure, 1.0)
    with pytest.raises(ValueError):
        analytic_delta(contract, [asset_high, asset_low], [0.5], bern_measure, 1.0)
