"""Named property suites: Monte Carlo and algebraic checks of the library.

Each suite returns a list of :class:`CheckResult` with a measured-statistic
detail string; the CLI prints one line per check and the acceptance tests
assert on the same functions.  Monte Carlo assertions use 3-standard-error
bands; algebraic identities are held to 1e-10 or 1e-12 as noted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy_core import (
    _BLOCK_PATH_STEPS,
    _checked_prices,
    LevyMeasure,
    JumpAtom,
    SymmetricCoefficients,
    TimeGrid,
    compensate,
    exponential_prices,
    integrate_block,
    integrate_proportional_block,
    product_coefficients,
    quotient_coefficients,
    sample_noise_block,
)
from .market import (
    AssetSpec,
    PricingKernelSpec,
    benchmark_coefficients,
    kernel_coefficients,
    natural_coefficients,
)
from .hedging import (
    ConstantRatioRule,
    analytic_delta,
    gram_system,
    hedge_residuals,
    multi_asset_hedge,
    rho_diagnostic,
    single_coefficients,
    two_asset_hedge,
)
from .sim_harness import DEFAULT_SEED, builtin_scenario, brute_force_constant_hedge, scenario_ratios

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = ("isometry", "martingale", "calculus", "optimality", "ordering", "completeness")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _fig_measure() -> LevyMeasure:
    return LevyMeasure.bernoulli(rate=15.0, up_prob=0.5, up=1.0, down=-1.0)


def _fig_assets() -> tuple[AssetSpec, AssetSpec, AssetSpec]:
    """Natural-unit contract and two hedging assets of the built-in market."""
    s = builtin_scenario("fig1")
    return (s.natural_contract(), *s.natural_assets())


# ----------------------------------------------------------------------------
# path blocks
#
# The Monte Carlo statistics below are per-path arrays computed on blocks
# of paths, at most _BLOCK_PATH_STEPS path-steps each, drawn from the same
# per-path substreams as the simulation; every reduction runs along one
# path's steps, so the statistics do not depend on the block size.


def _noise_blocks(measure: LevyMeasure, grid: TimeGrid, seed: int, n_paths: int):
    """Noise (dW, counts) of paths 0 .. n_paths - 1, one block at a time."""
    block = max(1, _BLOCK_PATH_STEPS // grid.steps)
    for first in range(0, n_paths, block):
        yield sample_noise_block(measure, grid, seed, first, min(block, n_paths - first))


def _price_blocks(price, specs, measure: LevyMeasure, grid: TimeGrid, seed: int, n_paths: int):
    """Natural prices (paths, steps + 1, n_specs) of the contract specs[0]
    and the assets specs[1:] on shared noise, one block at a time, from
    ``price`` (:func:`exponential_prices` or an Euler integrator).  A price
    that is not positive and finite raises :class:`PriceRangeError`."""
    first = 0
    for dw, counts in _noise_blocks(measure, grid, seed, n_paths):
        yield np.stack(
            [
                _checked_prices(
                    price(natural_coefficients(spec, measure), dw, counts, grid, spec.initial_price),
                    f"asset {k}" if k else "contract",
                    first,
                )
                for k, spec in enumerate(specs)
            ],
            axis=-1,
        )
        first += len(dw)


def _residuals(prices: np.ndarray, ratios) -> np.ndarray:
    """Hedge residuals dV (paths, steps) of the contract prices[..., 0]
    against the assets prices[..., 1:] at constant scaled ratios."""
    c, a = prices[..., 0], prices[..., 1:]
    return hedge_residuals(c, a, ConstantRatioRule(ratios).holdings(c, a))[0]


def _euler_terminals(coeffs: SymmetricCoefficients, grid: TimeGrid, seed: int, x0: float, n_paths: int) -> np.ndarray:
    """Terminal values X_T (n_paths,) of constant-coefficient Euler paths from x0."""
    blocks = _noise_blocks(coeffs.measure, grid, seed, n_paths)
    return np.concatenate([integrate_block(coeffs, dw, counts, grid, x0)[:, -1] for dw, counts in blocks])


def _price_terminals(specs, measure: LevyMeasure, grid: TimeGrid, seed: int, n_paths: int) -> np.ndarray:
    """Terminal natural prices (n_paths, n_specs) of exact geometric paths."""
    return np.concatenate([p[:, -1] for p in _price_blocks(exponential_prices, specs, measure, grid, seed, n_paths)])


def _normalized_errors(contract: AssetSpec, assets, ratios, measure, grid, seed: int, n_paths: int) -> np.ndarray:
    """Per-path C_0^2 sum_i (dV_i / C_i)^2 of the hedge on Euler paths."""
    c0 = contract.initial_price
    out = []
    for prices in _price_blocks(integrate_proportional_block, (contract, *assets), measure, grid, seed, n_paths):
        z = _residuals(prices, ratios) / prices[:, :-1, 0]
        out.append(c0 * c0 * (z * z).sum(axis=1))
    return np.concatenate(out)


def _integrated_squares(contract: AssetSpec, assets, ratio_sets, measure, grid, seed: int, n_paths: int) -> np.ndarray:
    """Per-path sum_i dV_i^2 (n_paths, n_sets) of each ratio set's hedge on
    shared exact geometric paths."""
    out = []
    for prices in _price_blocks(exponential_prices, (contract, *assets), measure, grid, seed, n_paths):
        dvs = [_residuals(prices, ratios) for ratios in ratio_sets]
        out.append(np.stack([(dv * dv).sum(axis=1) for dv in dvs], axis=-1))
    return np.concatenate(out)


def _max_residuals(contract: AssetSpec, assets, ratios, measure, grid, seed: int, n_paths: int) -> np.ndarray:
    """Per-path max_i |dV_i| of the hedge on Euler paths."""
    blocks = _price_blocks(integrate_proportional_block, (contract, *assets), measure, grid, seed, n_paths)
    return np.concatenate([np.abs(_residuals(prices, ratios)).max(axis=1) for prices in blocks])


def _euler_gap_ratios(
    a: SymmetricCoefficients, b: SymmetricCoefficients, seed: int, n_paths: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path ratios (fine / coarse grid) of the sup-norm gaps between the
    Euler path of ``a`` and its closed form, and between the Euler path of
    the product coefficients and the product of the Euler paths.

    The fine grid has 2000 steps on [0, 1]; the coarse grid merges adjacent
    steps of the same noise.
    """
    measure = a.measure
    ab = product_coefficients(a, b)
    fine_grid, coarse_grid = TimeGrid(1.0, 2000), TimeGrid(1.0, 1000)
    ratios_cf, ratios_prod = [], []
    for dw, counts in _noise_blocks(measure, fine_grid, seed, n_paths):
        n = len(dw)
        coarse = (dw.reshape(n, -1, 2).sum(axis=-1), counts.reshape(n, -1, 2, len(measure)).sum(axis=-2))
        gaps_cf, gaps_prod = [], []
        for grid, (g_dw, g_counts) in ((coarse_grid, coarse), (fine_grid, (dw, counts))):
            e_a = integrate_proportional_block(a, g_dw, g_counts, grid, 1.0)
            e_b = integrate_proportional_block(b, g_dw, g_counts, grid, 1.0)
            e_ab = integrate_proportional_block(ab, g_dw, g_counts, grid, 1.0)
            cf = exponential_prices(a, g_dw, g_counts, grid, 1.0)
            gaps_cf.append(np.abs(e_a - cf).max(axis=-1))
            gaps_prod.append(np.abs(e_ab - e_a * e_b).max(axis=-1))
        ratios_cf.append(gaps_cf[1] / gaps_cf[0])
        ratios_prod.append(gaps_prod[1] / gaps_prod[0])
    return np.concatenate(ratios_cf), np.concatenate(ratios_prod)


# ----------------------------------------------------------------------------
# isometry


def suite_isometry(seed: int = DEFAULT_SEED, n_paths: int = 10_000) -> list[CheckResult]:
    """E[(X_T - X_0)^2] of driftless integration equals T (beta^2 + sum gamma^2 w)."""
    results = []
    measure = _fig_measure()
    grid = TimeGrid(1.0, 1000)
    cases = [
        ("isometry jump-diffusion driver", measure, SymmetricCoefficients(0.0, 0.20, (0.3, -0.3), measure)),
        ("isometry brownian only", LevyMeasure(), SymmetricCoefficients(0.0, 1.0, (), LevyMeasure())),
    ]
    for name, m, coeffs in cases:
        analytic = grid.horizon * (
            coeffs.brownian_vol**2 + compensate(m, coeffs.jump_vol_array**2)
        )
        sq = _euler_terminals(coeffs, grid, seed, 0.0, n_paths) ** 2
        mc = float(sq.mean())
        se = float(sq.std(ddof=1) / np.sqrt(n_paths))
        results.append(
            _check(
                name,
                abs(mc - analytic) <= 3.0 * se,
                f"mc={mc:.6g} analytic={analytic:.6g} |diff|={abs(mc - analytic):.3g} 3se={3 * se:.3g} N={n_paths}",
            )
        )
    return results


# ----------------------------------------------------------------------------
# martingale


def suite_martingale(seed: int = DEFAULT_SEED, n_paths: int = 10_000) -> list[CheckResult]:
    """Natural prices and driftless integrals keep their initial mean."""
    results = []
    measure = _fig_measure()
    grid = TimeGrid(1.0, 1000)
    contract, a1, a2 = _fig_assets()
    specs = [("contract", contract), ("asset 1", a1), ("asset 2", a2)]
    terminals = _price_terminals([spec for _, spec in specs], measure, grid, seed, n_paths)
    for j, (label, spec) in enumerate(specs):
        mean = float(terminals[:, j].mean())
        se = float(terminals[:, j].std(ddof=1) / np.sqrt(n_paths))
        results.append(
            _check(
                f"natural price martingale ({label})",
                abs(mean - spec.initial_price) <= 3.0 * se,
                f"mean={mean:.4f} S0={spec.initial_price} 3se={3 * se:.4f} N={n_paths}",
            )
        )

    coeffs = SymmetricCoefficients(0.0, 0.4, (0.2, -0.1), measure)
    x = _euler_terminals(coeffs, grid, seed + 1, 3.0, n_paths)
    mean = float(x.mean())
    se = float(x.std(ddof=1) / np.sqrt(n_paths))
    results.append(
        _check(
            "driftless integration keeps its mean",
            abs(mean - 3.0) <= 3.0 * se,
            f"mean={mean:.5f} x0=3 3se={3 * se:.5f} N={n_paths}",
        )
    )
    return results


# ----------------------------------------------------------------------------
# calculus


def _random_coefficients(rng: np.random.Generator, measure: LevyMeasure) -> SymmetricCoefficients:
    gam = rng.uniform(-0.6, 1.5, len(measure))
    return SymmetricCoefficients(rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5), tuple(gam), measure)


def suite_calculus(seed: int = DEFAULT_SEED, n_paths: int = 100) -> list[CheckResult]:
    """Product/quotient coefficient transforms against pathwise oracles."""
    results = []
    rng = np.random.default_rng(seed)
    measure = _fig_measure()
    grid = TimeGrid(1.0, 1000)

    def exact(coeffs: SymmetricCoefficients, noise, grid: TimeGrid, x0: float, what: str, path_index: int):
        # the path of a 1-path noise block; a price that underflowed or
        # overflowed raises instead of entering a relative error as NaN
        return _checked_prices(exponential_prices(coeffs, *noise, grid, x0), what, path_index)[0]

    # closed-form identity: path of the product/quotient coefficients equals
    # the pointwise product/quotient of the individual closed-form paths
    # (relative error; the paths themselves range over orders of magnitude).
    # The worst errors are taken with np.max, so a NaN error fails the check.
    errs_prod, errs_quot = [], []
    for trial in range(20):
        a = _random_coefficients(rng, measure)
        b = _random_coefficients(rng, measure)
        noise = sample_noise_block(measure, grid, seed + 2, trial, 1)
        xa = exact(a, noise, grid, 1.3, "calculus factor a", trial)
        xb = exact(b, noise, grid, 0.7, "calculus factor b", trial)
        xp = exact(product_coefficients(a, b), noise, grid, 1.3 * 0.7, "calculus product", trial)
        xq = exact(quotient_coefficients(a, b), noise, grid, 1.3 / 0.7, "calculus quotient", trial)
        errs_prod.append(float(np.abs(xp / (xa * xb) - 1.0).max()))
        errs_quot.append(float(np.abs(xq / (xa / xb) - 1.0).max()))
    worst_prod, worst_quot = float(np.max(errs_prod)), float(np.max(errs_quot))
    results.append(
        _check("closed-form product identity", worst_prod <= 1e-10, f"max rel err={worst_prod:.3g} tol=1e-10")
    )
    results.append(
        _check("closed-form quotient identity", worst_quot <= 1e-10, f"max rel err={worst_quot:.3g} tol=1e-10")
    )

    # algebraic inverse: product(quotient(a, b), b) == a
    errs = []
    for _ in range(50):
        a = _random_coefficients(rng, measure)
        b = _random_coefficients(rng, measure)
        back = product_coefficients(quotient_coefficients(a, b), b)
        errs += [
            abs(back.drift - a.drift),
            abs(back.brownian_vol - a.brownian_vol),
            float(np.abs(back.jump_vol_array - a.jump_vol_array).max()),
        ]
    worst = float(np.max(errs))
    results.append(_check("quotient/product round trip", worst <= 1e-12, f"max|diff|={worst:.3g} tol=1e-12"))

    # Euler halving: pure-jump coefficients converge at first order, so the
    # median sup-norm discrepancy (vs. the closed form, and vs. the product
    # of Euler paths) halves when dt halves.  Brownian-bearing coefficients
    # carry an O(sqrt dt) component, asserted only to shrink.
    def euler_gap(beta1: float, beta2: float) -> tuple[float, float]:
        a = SymmetricCoefficients(0.02, beta1, tuple(np.expm1(0.3 * measure.locations)), measure)
        b = SymmetricCoefficients(-0.01, beta2, tuple(np.expm1(0.2 * measure.locations)), measure)
        ratios_cf, ratios_prod = _euler_gap_ratios(a, b, seed + 3, n_paths)
        return float(np.median(ratios_cf)), float(np.median(ratios_prod))

    r_cf, r_prod = euler_gap(0.0, 0.0)
    results.append(
        _check(
            "euler-vs-closed-form error halves with dt (pure jump)",
            r_cf <= 0.55,
            f"median ratio={r_cf:.4f} bound=0.55 paths={n_paths}",
        )
    )
    results.append(
        _check(
            "euler product-path error halves with dt (pure jump)",
            r_prod <= 0.55,
            f"median ratio={r_prod:.4f} bound=0.55 paths={n_paths}",
        )
    )
    r_cf_mix, r_prod_mix = euler_gap(0.15, 0.10)
    results.append(
        _check(
            "euler error shrinks with dt (with brownian part)",
            r_cf_mix < 0.95 and r_prod_mix < 0.95,
            f"median ratios=({r_cf_mix:.3f}, {r_prod_mix:.3f}) bound=0.95",
        )
    )

    # kernel-benchmark reciprocal identity on random kernel specs
    errs = []
    for trial in range(100):
        n_atoms = int(rng.integers(0, 4))
        locs = np.unique(rng.normal(0.0, 1.0, n_atoms))
        m = LevyMeasure(
            tuple(JumpAtom(float(x), float(w)) for x, w in zip(locs, rng.uniform(0.2, 10.0, len(locs))))
        )
        kernel = PricingKernelSpec(
            float(rng.uniform(0.0, 0.1)),
            float(rng.uniform(-0.5, 0.5)),
            tuple(rng.uniform(-0.5, 0.9, len(m))),
        )
        sgrid = TimeGrid(1.0, 500)
        noise = sample_noise_block(m, sgrid, seed + 4, trial, 1)
        pi = exact(kernel_coefficients(kernel, m), noise, sgrid, 1.0, "pricing kernel", trial)
        xi = exact(benchmark_coefficients(kernel, m), noise, sgrid, 1.0, "benchmark", trial)
        errs.append(float(np.abs(pi * xi - 1.0).max()))
    worst = float(np.max(errs))
    results.append(
        _check("kernel times benchmark is 1", worst <= 1e-10, f"max|pi*xi-1|={worst:.3g} tol=1e-10 kernels=100")
    )
    return results


# ----------------------------------------------------------------------------
# optimality


def _random_market(rng: np.random.Generator, n_assets: int) -> tuple[AssetSpec, list[AssetSpec], LevyMeasure]:
    n_atoms = int(rng.integers(1, 4))
    locs = rng.normal(0.0, 1.0, n_atoms)
    while len(np.unique(locs)) != n_atoms:
        locs = rng.normal(0.0, 1.0, n_atoms)
    measure = LevyMeasure(tuple(JumpAtom(float(x), float(w)) for x, w in zip(locs, rng.uniform(0.5, 15.0, n_atoms))))

    def spec() -> AssetSpec:
        return AssetSpec(
            float(rng.uniform(20.0, 300.0)),
            float(rng.uniform(0.05, 0.6)),
            tuple(rng.uniform(-0.7, 1.5, n_atoms)),
        )

    return spec(), [spec() for _ in range(n_assets)], measure


def suite_optimality(seed: int = DEFAULT_SEED, n_paths: int = 10_000) -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(seed + 10)
    measure = _fig_measure()
    contract, a1, a2 = _fig_assets()
    horizon = 1.0
    step = 1e-3

    # 1-D sweep against the closed-form single-asset ratio, built-in market
    s2a = builtin_scenario("fig2a")
    co = single_coefficients(contract, a1, measure)
    sweep = brute_force_constant_hedge(s2a, 0.0, 2.0, step)
    gap = abs(sweep.best_ratios[0] - co.L / co.M)
    results.append(
        _check(
            "grid sweep finds the single-asset ratio",
            gap <= step,
            f"grid={sweep.best_ratios[0]:.4f} closed-form={co.L / co.M:.6f} |diff|={gap:.2e} step={step}",
        )
    )

    # randomized specs: argmin location, strict convexity, error-gap identity
    worst_arg = 0.0
    worst_gap = 0.0
    worst_sweep = 0.0
    min_curv = np.inf
    trials = 0
    while trials < 100:
        c, (a,), m = _random_market(rng, 1)
        co = single_coefficients(c, a, m)
        if co.M <= 1e-6 * max(co.K, co.M):
            continue
        trials += 1
        psi_hat = co.L / co.M
        # grid offset keeps the optimum generic with respect to the grid
        axis = (psi_hat - 0.25 + 0.000123) + step * np.arange(501)
        full = analytic_delta(c, [a], axis[:, None], m, horizon)
        worst_arg = max(worst_arg, abs(float(axis[np.argmin(full)]) - psi_hat))
        scale = horizon * c.initial_price**2
        quadratic = scale * (co.K - 2.0 * axis * co.L + axis**2 * co.M)
        worst_sweep = max(worst_sweep, float(np.abs(full - quadratic).max()) / scale)
        psi_alt = psi_hat + float(rng.uniform(-1.0, 1.0))
        gap_lhs = analytic_delta(c, [a], [psi_alt], m, horizon) - analytic_delta(c, [a], [psi_hat], m, horizon)
        gap_rhs = horizon * co.M * (psi_alt - psi_hat) ** 2 * c.initial_price**2
        worst_gap = max(worst_gap, abs(gap_lhs - gap_rhs) / max(1.0, abs(gap_rhs)))
        second = full[2:] - 2.0 * full[1:-1] + full[:-2]
        min_curv = min(min_curv, float(second.min()))
    results.append(
        _check(
            "grid values agree with the quadratic form",
            worst_sweep <= 1e-12,
            f"worst rel err={worst_sweep:.3g} tol=1e-12",
        )
    )
    results.append(
        _check(
            "randomized argmin within one grid step",
            worst_arg <= step,
            f"worst |grid-argmin - L/M|={worst_arg:.2e} step={step} specs=100",
        )
    )
    results.append(
        _check(
            "error-gap identity",
            worst_gap <= 1e-10,
            f"worst rel err={worst_gap:.3g} tol=1e-10 (gap = T*M*S^2*(psi-psi_hat)^2 in ratio units)",
        )
    )
    results.append(_check("error is strictly convex in the ratio", min_curv > 0.0, f"min second difference={min_curv:.3g}"))

    # closed-form two-asset hedge equals the SPD solve, randomized.  Draws
    # with a badly conditioned volatility Gram are redrawn (ledgered: the
    # solve accuracy is conditioning-limited, ~cond * eps).
    worst = 0.0
    trials = 0
    while trials < 1000:
        c, (b1, b2), m = _random_market(rng, 2)
        prices = (c.initial_price, b1.initial_price, b2.initial_price)
        system = gram_system(c, [b1, b2], prices[0], prices[1:], m)
        scaled = system.M / np.outer(system.asset_prices, system.asset_prices)
        eigs = np.linalg.eigvalsh(scaled)
        if eigs[0] <= 1e-4 * eigs.mean():
            continue
        trials += 1
        phi_solve = multi_asset_hedge(system)
        phi_closed = np.array(two_asset_hedge(c, b1, b2, prices, m))
        scale = max(1.0, float(np.abs(phi_solve).max()), float(np.abs(phi_closed).max()))
        worst = max(worst, float(np.abs(phi_solve - phi_closed).max()) / scale)
    results.append(
        _check(
            "two-asset closed form equals the linear solve",
            worst <= 1e-10,
            f"max rel err={worst:.3g} tol=1e-10 draws=1000",
        )
    )

    # 2-D sweep against the closed form on the built-in market
    s3 = builtin_scenario("fig3")
    ratios3 = scenario_ratios(s3)
    sweep2 = brute_force_constant_hedge(s3, 0.0, 1.0, step)
    gap2 = max(abs(sweep2.best_ratios[0] - ratios3[0]), abs(sweep2.best_ratios[1] - ratios3[1]))
    results.append(
        _check(
            "2-D grid sweep finds the two-asset ratios",
            gap2 <= step,
            f"grid=({sweep2.best_ratios[0]:.4f}, {sweep2.best_ratios[1]:.4f}) "
            f"closed-form=({ratios3[0]:.6f}, {ratios3[1]:.6f}) |diff|={gap2:.2e}",
        )
    )

    # optimal removes the fraction rho of the no-hedge error
    rho = rho_diagnostic(contract, a1, measure)
    co1 = single_coefficients(contract, a1, measure)
    d_opt = analytic_delta(contract, [a1], [co1.L / co1.M], measure, horizon)
    d_zero = analytic_delta(contract, [a1], [0.0], measure, horizon)
    lhs = d_opt
    rhs = (1.0 - rho) * d_zero
    results.append(
        _check(
            "optimal error is (1 - rho) times no-hedge error",
            abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)),
            f"delta_opt={lhs:.6g} (1-rho)*delta_0={rhs:.6g} rho={rho:.6f}",
        )
    )

    # Monte Carlo error of the optimal single-asset hedge matches the closed
    # form.  Paths are Euler-integrated: the quadratic form is the exact
    # per-step variance of the linear increments, so the contract-normalized
    # estimator is unbiased for the frozen-price convention.
    grid = TimeGrid(1.0, 1000)
    s = builtin_scenario("fig2a", n_paths=n_paths, seed=seed + 5)
    ratios = scenario_ratios(s)
    samples = _normalized_errors(contract, [a1], ratios[:1], measure, grid, s.seed, n_paths)
    mc = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n_paths))
    analytic = analytic_delta(contract, [a1], [ratios[0]], measure, horizon)
    results.append(
        _check(
            "monte carlo error matches the closed form",
            abs(mc - analytic) <= 3.0 * se,
            f"mc={mc:.4f} analytic={analytic:.4f} |diff|={abs(mc - analytic):.3g} 3se={3 * se:.3g} N={n_paths}",
        )
    )
    return results


# ----------------------------------------------------------------------------
# ordering


def suite_ordering(seed: int = DEFAULT_SEED, n_paths: int = 1000) -> list[CheckResult]:
    """Two hedging assets beat either one alone, analytically and by Monte Carlo."""
    results = []
    measure = _fig_measure()
    grid = TimeGrid(1.0, 1000)
    contract, a1, a2 = _fig_assets()
    horizon = grid.horizon

    r1 = scenario_ratios(builtin_scenario("fig2a"))
    r2 = scenario_ratios(builtin_scenario("fig2b"))
    r3 = scenario_ratios(builtin_scenario("fig3"))
    assets = [a1, a2]
    d1 = analytic_delta(contract, assets, r1, measure, horizon)
    d2 = analytic_delta(contract, assets, r2, measure, horizon)
    d3 = analytic_delta(contract, assets, r3, measure, horizon)
    results.append(
        _check(
            "closed form: two assets strictly beat each single hedge",
            d3 < min(d1, d2),
            f"delta(two)={d3:.6g} delta(asset1)={d1:.6g} delta(asset2)={d2:.6g}",
        )
    )

    # paired per-path integrated squared residuals on shared noise
    ints = _integrated_squares(contract, assets, (r1, r2, r3), measure, grid, seed + 6, n_paths)
    for j, label in ((0, "asset 1"), (1, "asset 2")):
        diff = ints[:, j] - ints[:, 2]
        mean = float(diff.mean())
        se = float(diff.std(ddof=1) / np.sqrt(n_paths))
        results.append(
            _check(
                f"monte carlo: two assets beat {label} (paired)",
                mean > 3.0 * se,
                f"mean diff={mean:.5g} 3se={3 * se:.5g} N={n_paths}",
            )
        )
    return results


# ----------------------------------------------------------------------------
# completeness


def suite_completeness(seed: int = DEFAULT_SEED, n_paths: int = 100) -> list[CheckResult]:
    """Pure-jump markets are complete: the hedge replicates path by path.

    Paths are Euler-integrated here: replication is an identity of the
    linear per-step increments, so residuals sit at machine precision.
    """
    results = []
    grid = TimeGrid(1.0, 1000)
    tol = 1e-9  # times C0

    # one atom, one asset
    measure1 = LevyMeasure((JumpAtom(1.0, 10.0),))
    contract1 = AssetSpec(100.0, 0.0, tuple(np.expm1(0.25 * measure1.locations)))
    asset1 = AssetSpec(100.0, 0.0, tuple(np.expm1(0.30 * measure1.locations)))
    co = single_coefficients(contract1, asset1, measure1)
    worst = float(_max_residuals(contract1, [asset1], (co.L / co.M,), measure1, grid, seed + 7, n_paths).max())
    results.append(
        _check(
            "single-asset replication in a one-atom market",
            worst <= tol * contract1.initial_price,
            f"max|dV|={worst:.3g} tol={tol * contract1.initial_price:.1e} paths={n_paths}",
        )
    )

    # two atoms, two assets (jumps only)
    measure2 = _fig_measure()
    contract2 = AssetSpec(100.0, 0.0, tuple(np.expm1(0.25 * measure2.locations)))
    b1 = AssetSpec(100.0, 0.0, tuple(np.expm1(0.30 * measure2.locations)))
    b2 = AssetSpec(100.0, 0.0, tuple(np.expm1(0.20 * measure2.locations)))
    phi1, phi2 = two_asset_hedge(contract2, b1, b2, (100.0, 100.0, 100.0), measure2)
    ratios = (phi1 * 100.0 / 100.0, phi2 * 100.0 / 100.0)
    worst = float(_max_residuals(contract2, [b1, b2], ratios, measure2, grid, seed + 8, n_paths).max())
    results.append(
        _check(
            "two-asset replication in a two-atom market",
            worst <= tol * contract2.initial_price,
            f"max|dV|={worst:.3g} tol={tol * contract2.initial_price:.1e} paths={n_paths}",
        )
    )
    return results


_SUITES = {
    "isometry": suite_isometry,
    "martingale": suite_martingale,
    "calculus": suite_calculus,
    "optimality": suite_optimality,
    "ordering": suite_ordering,
    "completeness": suite_completeness,
}


def run_suite(name: str, seed: int = DEFAULT_SEED, n_paths: int | None = None) -> list[CheckResult]:
    """Run one named suite, or all of them with ``name == 'all'``."""
    defaults = {
        "isometry": 10_000,
        "martingale": 10_000,
        "calculus": 100,
        "optimality": 10_000,
        "ordering": 1000,
        "completeness": 100,
    }
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(run_suite(suite, seed, n_paths))
        return out
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES + ('all',)}")
    return _SUITES[name](seed, n_paths if n_paths is not None else defaults[name])
