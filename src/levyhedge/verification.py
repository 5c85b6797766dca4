"""Named property suites: Monte Carlo and algebraic checks of the library.

Each suite returns a list of :class:`CheckResult` with a measured-statistic
detail string; the CLI prints one line per check and the acceptance tests
assert on the same functions.  Monte Carlo assertions use 3-standard-error
bands; algebraic identities are held to 1e-10 or 1e-12 as noted.  This module
checks a suite name, and a seed and path count by levy_core's count rule;
``levyhedge verify`` is the only command that imports it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .levy_core import (
    _check_count,
    _checked_prices,
    _noise_blocks,
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
    GeometricBernoulliSpec,
    PricingKernelSpec,
    benchmark_coefficients,
    kernel_coefficients,
)
from .hedging import _delta, _gram, _two_asset_ratios, analytic_delta, rho_diagnostic, solve_ratios, two_asset_hedge
from .sim_harness import (
    DEFAULT_SEED,
    PATH_COLUMNS,
    Scenario,
    _MAX_PATHS,
    _hedge,
    _path_ranges,
    _path_stats,
    _price_blocks,
    _range_rows,
    builtin_scenario,
    brute_force_constant_hedge,
    scenario_ratios,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ----------------------------------------------------------------------------
# path blocks
#
# The Monte Carlo statistics below are per-path arrays computed on the
# simulation's blocks of paths (levy_core._noise_blocks and
# sim_harness._price_blocks), with the simulation's hedge and per-path
# statistics, and filled range by range through sim_harness._range_rows
# over sim_harness._path_ranges; every reduction runs along one path's
# steps, so the statistics do not depend on the block size or the number
# of processes.


def _euler_terminals(coeffs: SymmetricCoefficients, grid: TimeGrid, seed: int, x0: float, n_paths: int) -> np.ndarray:
    """Terminal values X_T (n_paths,) of constant-coefficient Euler paths from x0."""

    def fill(out: np.ndarray, start: int, stop: int) -> None:
        for first, dw, counts in _noise_blocks(coeffs.measure, grid, seed, start, stop):
            out[first : first + len(dw)] = integrate_block([coeffs], dw, counts, grid, [x0])[0, :, -1]

    return _range_rows((), _path_ranges(n_paths, grid.steps), fill)


def _price_terminals(s: Scenario) -> np.ndarray:
    """Terminal natural prices (n_paths, 1 + n_hedging) of the scenario's
    exact geometric paths, the contract first."""

    def fill(out: np.ndarray, start: int, stop: int) -> None:
        for first, _, prices in _price_blocks(exponential_prices, s, start, stop):
            out[:, first : first + prices.shape[1]] = prices[..., -1]

    return _range_rows((1 + len(s.hedging_assets),), _path_ranges(s.n_paths, s.grid.steps), fill).T


def _hedge_stats(price, s: Scenario, ratio_sets) -> np.ndarray:
    """Per-path statistics (len(PATH_COLUMNS), n_sets, n_paths) of hedging
    the scenario's contract at each constant ratio set in ``ratio_sets``, all
    on the scenario's paths from ``price`` (:func:`exponential_prices` or an
    Euler integrator)."""

    def fill(stats: np.ndarray, start: int, stop: int) -> None:
        for first, _, prices in _price_blocks(price, s, start, stop):
            c, a = prices[0], prices[1:]
            for j, ratios in enumerate(ratio_sets):
                stats[:, j, first : first + len(c)] = _path_stats(c, _hedge(c, a, ratios)[1], first)

    return _range_rows((len(PATH_COLUMNS), len(ratio_sets)), _path_ranges(s.n_paths, s.grid.steps), fill)


def _euler_gap_ratios(
    pairs: Sequence[tuple[SymmetricCoefficients, SymmetricCoefficients]], seed: int, n_paths: int
) -> np.ndarray:
    """Per-path ratios (len(pairs), 2, n_paths), fine / coarse grid, of the
    sup-norm gaps between the Euler path of ``a`` and its closed form (row
    0), and between the Euler path of the product coefficients and the
    product of the Euler paths (row 1), for each ``(a, b)`` in ``pairs``;
    every pair is over one measure and sees the same noise, drawn once.

    The fine grid has 2000 steps on [0, 1]; the coarse grid merges adjacent
    steps of the same noise.
    """
    measure = pairs[0][0].measure
    products = [product_coefficients(a, b) for a, b in pairs]
    fine_grid, coarse_grid = TimeGrid(1.0, 2000), TimeGrid(1.0, 1000)

    def fill(ratios: np.ndarray, start: int, stop: int) -> None:
        for first, dw, counts in _noise_blocks(measure, fine_grid, seed, start, stop):
            n = len(dw)
            # adjacent steps merged by slice adds: the same doubles as a sum
            # over a length-2 axis, without one reduction call per output
            coarse = (dw[:, 0::2] + dw[:, 1::2], counts[:, 0::2] + counts[:, 1::2])
            for (a, b), ab, pair_ratios in zip(pairs, products, ratios):
                gaps_cf, gaps_prod = [], []
                for grid, (g_dw, g_counts) in ((coarse_grid, coarse), (fine_grid, (dw, counts))):
                    e_a, e_b, e_ab = integrate_proportional_block([a, b, ab], g_dw, g_counts, grid, [1.0] * 3)
                    cf = exponential_prices([a], g_dw, g_counts, grid, [1.0])[0]
                    gaps_cf.append(np.abs(e_a - cf).max(axis=-1))
                    gaps_prod.append(np.abs(e_ab - e_a * e_b).max(axis=-1))
                pair_ratios[0, first : first + n] = gaps_cf[1] / gaps_cf[0]
                pair_ratios[1, first : first + n] = gaps_prod[1] / gaps_prod[0]

    return _range_rows((len(pairs), 2), _path_ranges(n_paths, fine_grid.steps), fill)


# ----------------------------------------------------------------------------
# isometry


def suite_isometry(seed: int = DEFAULT_SEED, n_paths: int = 10_000) -> list[CheckResult]:
    """E[(X_T - X_0)^2] of driftless integration equals T (beta^2 + sum gamma^2 w)."""
    results = []
    s = builtin_scenario("fig1")
    measure, grid = s.measure, s.grid
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
    s = builtin_scenario("fig1", n_paths=n_paths, seed=seed)
    specs = [("contract", s.contract), ("asset 1", s.hedging_assets[0]), ("asset 2", s.hedging_assets[1])]
    terminals = _price_terminals(s)
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

    coeffs = SymmetricCoefficients(0.0, 0.4, (0.2, -0.1), s.measure)
    x = _euler_terminals(coeffs, s.grid, seed + 1, 3.0, n_paths)
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
    s = builtin_scenario("fig1")
    measure, grid = s.measure, s.grid
    a1, a2 = s.natural_assets()

    def exact(specs: Sequence[SymmetricCoefficients], noise, grid: TimeGrid, x0s, names, path_index: int):
        # each spec's path on a 1-path noise block, from one kernel call; a price
        # that underflowed or overflowed raises instead of entering an error as NaN
        return _checked_prices(exponential_prices(specs, *noise, grid, x0s), names, path_index)[:, 0]

    # closed-form identity: path of the product/quotient coefficients equals
    # the pointwise product/quotient of the individual closed-form paths
    # (relative error; the paths themselves range over orders of magnitude).
    # The worst errors are taken with np.max, so a NaN error fails the check.
    # Trial t reads path t of one 20-path noise block, the noise that path
    # has in any block.
    errs_prod, errs_quot = [], []
    names = ["calculus factor a", "calculus factor b", "calculus product", "calculus quotient"]
    dw, counts = sample_noise_block(measure, grid, seed + 2, 0, 20)
    for trial in range(20):
        a = _random_coefficients(rng, measure)
        b = _random_coefficients(rng, measure)
        noise = dw[trial : trial + 1], counts[trial : trial + 1]
        specs = [a, b, product_coefficients(a, b), quotient_coefficients(a, b)]
        xa, xb, xp, xq = exact(specs, noise, grid, [1.3, 0.7, 1.3 * 0.7, 1.3 / 0.7], names, trial)
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
    # carry an O(sqrt dt) component, asserted only to shrink.  The jump
    # volatilities are those of the two hedging assets.
    def pair(beta1: float, beta2: float) -> tuple[SymmetricCoefficients, SymmetricCoefficients]:
        return (
            SymmetricCoefficients(0.02, beta1, a1.jump_vol, measure),
            SymmetricCoefficients(-0.01, beta2, a2.jump_vol, measure),
        )

    (r_cf, r_prod), (r_cf_mix, r_prod_mix) = (
        (float(np.median(ratios_cf)), float(np.median(ratios_prod)))
        for ratios_cf, ratios_prod in _euler_gap_ratios([pair(0.0, 0.0), pair(0.15, 0.10)], seed + 3, n_paths)
    )
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
    results.append(
        _check(
            "euler error shrinks with dt (with brownian part)",
            r_cf_mix < 0.95 and r_prod_mix < 0.95,
            f"median ratios=({r_cf_mix:.3f}, {r_prod_mix:.3f}) bound=0.95",
        )
    )

    # kernel-benchmark reciprocal identity on 100 random kernel specs, drawn
    # and checked in order in this process (a kernel is too quick to repay a
    # fork); kernel t reads path t of seed + 4, drawn alone
    sgrid = TimeGrid(1.0, 500)
    errs = []
    for trial in range(100):
        locs = np.unique(rng.normal(0.0, 1.0, int(rng.integers(0, 4))))
        rates = rng.uniform(0.2, 10.0, len(locs))
        m = LevyMeasure(tuple(JumpAtom(float(x), float(w)) for x, w in zip(locs, rates)))
        kernel = PricingKernelSpec(rng.uniform(0.0, 0.1), rng.uniform(-0.5, 0.5), tuple(rng.uniform(-0.5, 0.9, len(locs))))
        noise = sample_noise_block(m, sgrid, seed + 4, trial, 1)
        specs = [kernel_coefficients(kernel, m), benchmark_coefficients(kernel, m)]
        pi, xi = exact(specs, noise, sgrid, [1.0, 1.0], ["pricing kernel", "benchmark"], trial)
        errs.append(np.abs(pi * xi - 1.0).max())
    worst = float(np.max(errs))
    results.append(
        _check("kernel times benchmark is 1", worst <= 1e-10, f"max|pi*xi-1|={worst:.3g} tol=1e-10 kernels=100")
    )
    return results


# ----------------------------------------------------------------------------
# optimality


# Lower bounds and spans (high - low) of the uniform draws of a random
# market with n_atoms atoms and n_specs asset specs, in draw order: the
# atoms' intensities, then each spec's initial price, Brownian volatility
# and jump volatilities.
@functools.lru_cache(maxsize=None)
def _market_bounds(n_atoms: int, n_specs: int) -> tuple[np.ndarray, np.ndarray]:
    lows = np.array([0.5] * n_atoms + ([20.0, 0.05] + [-0.7] * n_atoms) * n_specs)
    highs = np.array([15.0] * n_atoms + ([300.0, 0.6] + [1.5] * n_atoms) * n_specs)
    return lows, highs - lows


def _draw_market(rng: np.random.Generator, n_hedging: int) -> tuple[np.ndarray, np.ndarray]:
    """The generator draws of a random market with ``n_hedging`` hedging
    assets: 1 to 3 distinct jump locations, redrawn until distinct, and one
    array of uniforms in the layout of :func:`_market_bounds`, drawn by one
    ``rng.random`` call and mapped as ``low + span * u``.  That is the
    arithmetic of ``rng.uniform(low, high)``, with the span formed by
    ``np.subtract`` as it forms its range, so each element is the double
    that a draw of its own would give and the generator ends in the same
    state."""
    n_atoms = int(rng.integers(1, 4))
    locs = rng.normal(0.0, 1.0, n_atoms)
    while len(set(locs.tolist())) != n_atoms:
        locs = rng.normal(0.0, 1.0, n_atoms)
    lows, spans = _market_bounds(n_atoms, 1 + n_hedging)
    return locs, lows + spans * rng.random(len(lows))


def _market_groups(draws: Sequence[tuple[np.ndarray, np.ndarray]]):
    """Yields, for each atom count 1 to 3 of the :func:`_draw_market` draws,
    their indices, intensities (k, n_atoms), initial prices (k, n_specs) and
    loadings (k, n_specs, 1 + n_atoms), a row (sigma, Sigma_1..Sigma_m) per
    spec, the contract first."""
    for n_atoms in (1, 2, 3):
        indices = [i for i, (locations, _) in enumerate(draws) if len(locations) == n_atoms]
        if indices:
            uniforms = np.array([draws[i][1] for i in indices])
            specs = uniforms[:, n_atoms:].reshape(len(indices), -1, 2 + n_atoms)
            yield indices, uniforms[:, :n_atoms], specs[..., 0], specs[..., 1:]


def _two_asset_errors(draws: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Errors of the accepted two-asset market draws, in draw order, from
    one Gram stack per atom count and one stack of the accepted markets.  A
    market whose asset block of the volatility Gram is badly conditioned is
    not accepted (ledgered: the solve accuracy is conditioning-limited,
    ~cond * eps); the error of an accepted one is the largest gap between
    the closed-form holdings of :func:`two_asset_hedge` and those of
    :func:`solve_ratios`, relative to the largest holding or 1."""
    prices, v = np.empty((len(draws), 3)), np.empty((len(draws), 3, 3))
    for indices, intensities, initial_prices, loadings in _market_groups(draws):
        prices[indices], v[indices] = initial_prices, _gram(loadings, intensities)
    eigs = np.linalg.eigvalsh(v[:, 1:, 1:])
    accepted = ~(eigs[:, 0] <= 1e-4 * eigs.mean(axis=-1))
    v, c0, s = v[accepted], prices[accepted, :1], prices[accepted, 1:]
    phi_solve = solve_ratios(v[:, 1:, 1:], v[:, 1:, 0]) * c0 / s
    phi_closed = _two_asset_ratios(v) * c0 / s
    scale = np.maximum(1.0, np.maximum(np.abs(phi_solve).max(axis=-1), np.abs(phi_closed).max(axis=-1)))
    return np.abs(phi_solve - phi_closed).max(axis=-1) / scale


def suite_optimality(seed: int = DEFAULT_SEED, n_paths: int = 10_000) -> list[CheckResult]:
    """The closed-form hedge minimizes the expected squared error, in 9
    checks: grid sweeps on fig2a (1-D) and fig3 (2-D) find the closed-form
    ratios; on 100 random single-asset markets the swept error is its
    quadratic form, with its argmin at L / M, the error-gap identity and
    strict convexity; on 1000 random two-asset markets the closed form is
    the linear solve; the optimal error is (1 - rho) times the no-hedge
    error; and the Monte Carlo error of the optimal hedge is the closed form.
    """
    results = []
    rng = np.random.default_rng(seed + 10)
    horizon = 1.0
    step = 1e-3

    # 1-D sweep against the closed-form single-asset ratio L / M, built-in market
    s2a = builtin_scenario("fig2a")
    contract, a1 = s2a.natural_contract(), s2a.natural_assets()[0]
    _, v = s2a.traded()
    psi_fig = v[1, 0] / v[1, 1]
    sweep = brute_force_constant_hedge(s2a, 0.0, 2.0, step)
    gap = abs(sweep.best_ratios[0] - psi_fig)
    results.append(
        _check(
            "grid sweep finds the single-asset ratio",
            gap <= step,
            f"grid={sweep.best_ratios[0]:.4f} closed-form={psi_fig:.6f} |diff|={gap:.2e} step={step}",
        )
    )

    # randomized specs: argmin location, quadratic form, error-gap identity
    # and strict convexity on 100 random markets, drawn here in order and
    # checked on one stack per atom count, which keeps the sweeps' arrays
    # under a megabyte; np.max and np.min fail a check on a NaN
    draws, offsets = zip(*((_draw_market(rng, 1), rng.uniform(-1.0, 1.0)) for _ in range(100)))
    single = np.empty((4, len(draws)))
    for indices, intensities, prices, loadings in _market_groups(draws):
        v, c0 = _gram(loadings, intensities), prices[:, :1]
        K, L, M = v[:, :1, 0], v[:, 1:, 0], v[:, 1:, 1]
        psi_hat = L / M
        # grid offset keeps the optimum generic with respect to the grid
        axis = (psi_hat - 0.25 + 0.000123) + step * np.arange(501)
        full = _delta(v, axis[..., None], c0, horizon)
        scale = horizon * c0 * c0
        quadratic = scale * (K - 2.0 * axis * L + axis**2 * M)
        psi_alt = psi_hat + np.array(offsets)[indices, None]
        gap_lhs = _delta(v, psi_alt[..., None], c0, horizon) - _delta(v, psi_hat[..., None], c0, horizon)
        # squares by Python's float power, as one market's scalars were: libm's
        # pow and np.square's x * x round apart on about one double in 1500
        gap_sq, c0_sq = ((x.astype(object) ** 2).astype(float) for x in (psi_alt - psi_hat, c0))
        gap_rhs = horizon * M * gap_sq * c0_sq
        # np.argmin lands on a NaN, so a sweep that holds one has no argmin
        argmin = np.where(np.isnan(full).any(axis=-1), np.nan, axis[np.arange(len(v)), np.argmin(full, axis=-1)])
        single[:, indices] = (
            np.abs(argmin - psi_hat[:, 0]),
            np.abs(full - quadratic).max(axis=-1) / scale[:, 0],
            np.abs(gap_lhs - gap_rhs)[:, 0] / np.maximum(1.0, np.abs(gap_rhs[:, 0])),
            (full[:, 2:] - 2.0 * full[:, 1:-1] + full[:, :-2]).min(axis=-1),
        )
    worst_arg, worst_sweep, worst_gap = (float(np.max(row)) for row in single[:3])
    min_curv = float(np.min(single[3]))
    results += [
        _check("grid values agree with the quadratic form", worst_sweep <= 1e-12, f"worst rel err={worst_sweep:.3g} tol=1e-12"),
        _check(
            "randomized argmin within one grid step",
            worst_arg <= step,
            f"worst |grid-argmin - L/M|={worst_arg:.2e} step={step} specs=100",
        ),
        _check(
            "error-gap identity",
            worst_gap <= 1e-10,
            f"worst rel err={worst_gap:.3g} tol=1e-10 (gap = T*M*S^2*(psi-psi_hat)^2 in ratio units)",
        ),
        _check("error is strictly convex in the ratio", min_curv > 0.0, f"min second difference={min_curv:.3g}"),
    ]

    # closed-form two-asset hedge equals the solve that every hedge runs, on
    # the first 1000 accepted random markets, drawn here in order.  Each
    # round draws only as many as are still missing, so no market past the
    # 1000th accepted one is drawn or checked: the generator and any error
    # are those of a loop that draws and checks one market at a time.
    errs = []
    while len(errs) < 1000:
        errs.extend(_two_asset_errors([_draw_market(rng, 2) for _ in range(1000 - len(errs))]))
    worst = float(np.max(errs))
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
    rho = rho_diagnostic(contract, a1, s2a.measure)
    d_opt = analytic_delta(contract, [a1], [psi_fig], s2a.measure, horizon)
    d_zero = analytic_delta(contract, [a1], [0.0], s2a.measure, horizon)
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
    s = builtin_scenario("fig2a", n_paths=n_paths, seed=seed + 5, hedging_assets=s2a.hedging_assets[:1])
    ratios = scenario_ratios(s)
    samples = _hedge_stats(integrate_proportional_block, s, [ratios])[PATH_COLUMNS.index("delta_normalized"), 0]
    mc = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n_paths))
    analytic = analytic_delta(s.natural_contract(), s.natural_assets(), ratios, s.measure, s.grid.horizon)
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
    s = builtin_scenario("fig3", n_paths=n_paths, seed=seed + 6)
    r1 = scenario_ratios(builtin_scenario("fig2a"))
    r2 = scenario_ratios(builtin_scenario("fig2b"))
    r3 = scenario_ratios(s)
    d1, d2, d3 = (
        analytic_delta(s.natural_contract(), s.natural_assets(), r, s.measure, s.grid.horizon) for r in (r1, r2, r3)
    )
    results.append(
        _check(
            "closed form: two assets strictly beat each single hedge",
            d3 < min(d1, d2),
            f"delta(two)={d3:.6g} delta(asset1)={d1:.6g} delta(asset2)={d2:.6g}",
        )
    )

    # paired per-path integrated squared residuals on shared noise
    ints = _hedge_stats(exponential_prices, s, (r1, r2, r3))[PATH_COLUMNS.index("delta_integrated")]
    for j, label in ((0, "asset 1"), (1, "asset 2")):
        diff = ints[j] - ints[2]
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
    tol = 1e-9  # times C0

    def market(measure: LevyMeasure, exponents, seed: int, hedge_mode: str) -> Scenario:
        # pure-jump geometric specs, all priced 100, the contract first
        contract, *assets = (GeometricBernoulliSpec(100.0, 0.0, a) for a in exponents)
        return Scenario(measure, contract, tuple(assets), TimeGrid(1.0, 1000), n_paths, seed, hedge_mode)

    def replication(name: str, s: Scenario, ratios) -> CheckResult:
        stats = _hedge_stats(integrate_proportional_block, s, [ratios])
        worst = float(stats[PATH_COLUMNS.index("max_abs_residual")].max())
        c0 = s.contract.initial_price
        return _check(name, worst <= tol * c0, f"max|dV|={worst:.3g} tol={tol * c0:.1e} paths={n_paths}")

    # one atom, one asset; two atoms, two assets (jumps only)
    s1 = market(LevyMeasure((JumpAtom(1.0, 10.0),)), (0.25, 0.30), seed + 7, "single")
    s2 = market(builtin_scenario("fig1").measure, (0.25, 0.30, 0.20), seed + 8, "two_asset")
    # at unit prices the closed-form holdings are the scaled ratios
    ratios2 = two_asset_hedge(s2.natural_contract(), *s2.natural_assets(), (1.0, 1.0, 1.0), s2.measure)
    return [
        replication("single-asset replication in a one-atom market", s1, scenario_ratios(s1)),
        replication("two-asset replication in a two-atom market", s2, ratios2),
    ]


_SUITES = {
    "isometry": suite_isometry,
    "martingale": suite_martingale,
    "calculus": suite_calculus,
    "optimality": suite_optimality,
    "ordering": suite_ordering,
    "completeness": suite_completeness,
}
SUITE_NAMES = tuple(_SUITES)


def _check_inputs(name: str, seed: int, n_paths: int | None) -> None:
    """Reject the inputs of :func:`run_suite` that no suite can run: a name
    that is neither a suite nor ``'all'`` (checked first), a seed that is
    not a nonnegative integer, and a path count that is neither None nor an
    integer in 2 .. ``_MAX_PATHS``, the bound a scenario applies."""
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES + ('all',)}")
    _check_count(seed, "seed", 0)
    if n_paths is not None:
        _check_count(n_paths, "paths", 2, _MAX_PATHS, ": the Monte Carlo standard errors need two paths")


def run_suite(name: str, seed: int = DEFAULT_SEED, n_paths: int | None = None) -> list[CheckResult]:
    """Run one named suite, or all of them with ``name == 'all'``; with
    ``n_paths`` None each suite runs its own default path count.  The
    inputs are checked by :func:`_check_inputs` before any suite starts."""
    _check_inputs(name, seed, n_paths)
    args = (seed,) if n_paths is None else (seed, n_paths)
    return [result for suite in (SUITE_NAMES if name == "all" else (name,)) for result in _SUITES[suite](*args)]
