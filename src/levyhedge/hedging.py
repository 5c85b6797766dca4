"""Optimal quadratic hedging and self-financing portfolio evolution.

A contract position C is hedged by shorting phi^i units of hedging assets
S^i and holding theta benchmark units, all in benchmark ("natural") units
where every price is a driftless martingale.  The portfolio is
self-financing: dV = dC - sum_i phi^i dS^i, with theta recovered from
theta_t = sum_i phi^i_t S^i_t - integral_0^t phi dS.

For one hedging asset the mean-squared-error-optimal ratio is

    phi_hat = (L / M) * C_left / S_left,

with the volatility inner products

    K = sigma_c^2 + sum_k Sigma_c_k^2 w_k,
    L = sigma sigma_c + sum_k Sigma_k Sigma_c_k w_k,
    M = sigma^2   + sum_k Sigma_k^2 w_k.

With n assets, phi_hat solves the symmetric positive-definite system
M phi = F built from the price-weighted volatility Gram matrix; the n = 2
case also has the closed form (P - Q) / R implemented separately.

Expected squared error for constant scaled ratios psi_i = phi^i S^i / C is
reported as the time-0 rate times the horizon:

    Delta(psi) = T * C_0^2 * (K - 2 psi.L + psi.V psi),

where V is the volatility Gram matrix.  This freezes prices at t = 0; it is
the quantity whose minimizer the closed forms above attain, and per-step
residuals normalized by the running contract value estimate it without bias
up to O(dt).  The raw terminal deviation (V_T - V_0)^2 is recorded alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .levy_core import LevyMeasure, PathSeries, TimeGrid
from .market import AssetSpec

__all__ = [
    "DegeneracyError",
    "SingleHedgeCoefficients",
    "GramSystem",
    "HedgeStrategy",
    "HedgeReport",
    "DegeneracyReport",
    "ConstantRatioRule",
    "single_coefficients",
    "single_asset_hedge",
    "gram_system",
    "multi_asset_hedge",
    "two_asset_hedge",
    "hedge_residuals",
    "portfolio_values",
    "benchmark_holdings",
    "evolve_portfolio",
    "analytic_delta",
    "rho_diagnostic",
    "degeneracy_check",
    "volatility_inner",
]

# Relative eigenvalue floor below which a price-scaled Gram matrix is
# treated as rank deficient (no unique optimal hedge there).
DEGENERACY_RTOL = 1e-10


class DegeneracyError(RuntimeError):
    """Raised when the hedging assets cannot span a unique optimal hedge."""

    def __init__(self, message: str, report: "DegeneracyReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SingleHedgeCoefficients:
    """Volatility inner products (K, L, M) of a contract/asset pair, per unit time."""

    K: float
    L: float
    M: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.K, self.L, self.M)):
            raise ValueError("coefficients must be finite")
        if self.K < 0.0 or self.M < 0.0:
            raise ValueError("K and M are sums of squares and cannot be negative")
        bound = self.K * self.M
        if self.L * self.L > bound + 1e-12 * max(1.0, bound):
            raise ValueError("L^2 <= K*M must hold (Cauchy-Schwarz)")


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Price-weighted system M phi = F with contract weight G.

    M[i, j] = S^i S^j (sigma_i sigma_j + sum_k Sigma_i_k Sigma_j_k w_k),
    F[i]    = S^i C   (sigma_i sigma_c + sum_k Sigma_i_k Sigma_c_k w_k),
    G       = C^2     (sigma_c^2      + sum_k Sigma_c_k^2 w_k).

    ``asset_prices`` records the price point the system was built at so the
    degeneracy check can undo the price weighting.
    """

    M: np.ndarray
    F: np.ndarray
    G: float
    asset_prices: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.M, dtype=float))
        f = np.atleast_1d(np.asarray(self.F, dtype=float))
        s = np.atleast_1d(np.asarray(self.asset_prices, dtype=float))
        n = m.shape[0]
        if m.shape != (n, n) or f.shape != (n,) or s.shape != (n,):
            raise ValueError("inconsistent system dimensions")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
            raise ValueError("Gram matrix must be symmetric")
        if self.G < 0.0:
            raise ValueError("G is a square and cannot be negative")
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "F", f)
        object.__setattr__(self, "asset_prices", s)

    @property
    def n_assets(self) -> int:
        return self.M.shape[0]


@dataclass(frozen=True, eq=False)
class HedgeStrategy:
    """Realized holdings per step: phi (steps, n_assets) and theta (steps,).

    phi[i] is held over step i and is a function of step-start prices;
    theta[i] is the benchmark position after the rebalance at t_i and
    satisfies theta_i = sum_j phi_ij S^j_i - sum_{u<i} phi_u . dS_u.
    """

    phi: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        theta = np.asarray(self.theta, dtype=float)
        if phi.shape[0] != theta.shape[0]:
            raise ValueError("phi and theta must cover the same steps")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True, eq=False)
class HedgeReport:
    """Outcome of evolving one hedge portfolio along one path."""

    portfolio_path: PathSeries
    residual_increments: np.ndarray
    strategy: HedgeStrategy
    delta_mc: float
    per_step_std: float
    max_abs_residual: float
    delta_analytic: float | None = None
    rho: float | None = None

    def __post_init__(self):
        if self.delta_mc < 0.0:
            raise ValueError("squared terminal deviation cannot be negative")
        if self.rho is not None and not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")


@dataclass(frozen=True)
class DegeneracyReport:
    """Eigenvalue diagnostics of the price-scaled Gram matrix."""

    min_eigenvalue: float
    condition_number: float
    degenerate: bool


@dataclass(frozen=True)
class ConstantRatioRule:
    """Hedge rule with constant scaled ratios: phi^i_t = ratios[i] * C_left / S^i_left."""

    ratios: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))

    def holdings(self, contract_values: np.ndarray, asset_values: np.ndarray) -> np.ndarray:
        """Holdings (..., steps, n_assets) from step-start prices, for
        contract values (..., steps + 1) and asset values (..., steps + 1, n_assets)."""
        ratios = np.asarray(self.ratios, dtype=float)
        if ratios.shape != asset_values.shape[-1:]:
            raise ValueError("need one ratio per hedging asset")
        return ratios * (contract_values[..., :-1, None] / asset_values[..., :-1, :])


StrategyRule = Union[
    None, ConstantRatioRule, HedgeStrategy, Callable[[int, float, np.ndarray], np.ndarray]
]


def volatility_inner(a: AssetSpec, b: AssetSpec, measure: LevyMeasure) -> float:
    """Instantaneous covariation rate sigma_a sigma_b + sum_k Sigma_a_k Sigma_b_k w_k."""
    if len(a.jump_vol) != len(measure) or len(b.jump_vol) != len(measure):
        raise ValueError("asset jump entries must match the measure's atom count")
    return a.brownian_vol * b.brownian_vol + float(
        (a.jump_vol_array * b.jump_vol_array) @ measure.intensities
    )


def single_coefficients(
    contract: AssetSpec, asset: AssetSpec, measure: LevyMeasure
) -> SingleHedgeCoefficients:
    """K/L/M triple for hedging ``contract`` with one ``asset``."""
    return SingleHedgeCoefficients(
        K=volatility_inner(contract, contract, measure),
        L=volatility_inner(asset, contract, measure),
        M=volatility_inner(asset, asset, measure),
    )


def single_asset_hedge(
    contract_price_left: float, asset_price_left: float, coeffs: SingleHedgeCoefficients
) -> float:
    """Optimal single-asset holding phi_hat = (L/M) * C_left / S_left.

    Raises :class:`DegeneracyError` when the asset carries no volatility
    power on the contract's scale (M <= 1e-10 * max(K, M)).
    """
    if asset_price_left <= 0.0:
        raise ValueError("asset price must be positive")
    if coeffs.M <= DEGENERACY_RTOL * max(coeffs.K, coeffs.M):
        raise DegeneracyError(
            "hedging asset is degenerate (volatility power ~ 0)",
            DegeneracyReport(coeffs.M, np.inf, True),
        )
    return (coeffs.L / coeffs.M) * (contract_price_left / asset_price_left)


def gram_system(
    contract: AssetSpec,
    assets: Sequence[AssetSpec],
    contract_price_left: float,
    asset_prices_left,
    measure: LevyMeasure,
) -> GramSystem:
    """Assemble the price-weighted normal equations at one price point."""
    prices = np.atleast_1d(np.asarray(asset_prices_left, dtype=float))
    if prices.shape != (len(assets),):
        raise ValueError("need one left-limit price per hedging asset")
    if contract_price_left <= 0.0 or np.any(prices <= 0.0):
        raise ValueError("prices must be positive")
    n = len(assets)
    vol = np.empty((n, n))
    cross = np.empty(n)
    for i, a in enumerate(assets):
        cross[i] = volatility_inner(a, contract, measure)
        for j in range(i, n):
            vol[i, j] = vol[j, i] = volatility_inner(a, assets[j], measure)
    m = np.outer(prices, prices) * vol
    f = prices * contract_price_left * cross
    g = contract_price_left**2 * volatility_inner(contract, contract, measure)
    return GramSystem(m, f, g, prices)


def degeneracy_check(system: GramSystem) -> DegeneracyReport:
    """Eigenvalue diagnostics of the Gram matrix with the price weights removed.

    The system is flagged degenerate when the smallest eigenvalue of the
    scaled matrix M[i,j] / (S^i S^j) falls below 1e-10 times the mean
    eigenvalue, i.e. when some portfolio of the hedging assets carries
    (numerically) no volatility.
    """
    scaled = system.M / np.outer(system.asset_prices, system.asset_prices)
    eigs = np.linalg.eigvalsh(scaled)
    min_eig = float(eigs[0])
    max_eig = float(eigs[-1])
    mean_eig = float(eigs.sum()) / len(eigs)
    degenerate = min_eig <= DEGENERACY_RTOL * mean_eig
    cond = np.inf if min_eig <= 0.0 else max_eig / min_eig
    return DegeneracyReport(min_eig, cond, bool(degenerate))


def multi_asset_hedge(system: GramSystem) -> np.ndarray:
    """Optimal holdings solving M phi = F with the Cholesky factor M = L L^T.

    Raises :class:`DegeneracyError` (report attached) on a degenerate system.
    """
    report = degeneracy_check(system)
    if report.degenerate:
        raise DegeneracyError("hedging assets are degenerate (rank-deficient Gram matrix)", report)
    try:
        lower = np.linalg.cholesky(system.M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by the eig check
        raise DegeneracyError(f"Gram factorization failed: {exc}", report) from exc
    return np.linalg.solve(lower.T, np.linalg.solve(lower, system.F))


def two_asset_hedge(
    contract: AssetSpec,
    asset1: AssetSpec,
    asset2: AssetSpec,
    prices_left: tuple[float, float, float],
    measure: LevyMeasure,
) -> tuple[float, float]:
    """Closed-form optimal two-asset holdings.

    With volatility inner products L_i (contract vs asset i), V_ij (asset i
    vs asset j):

        phi_hat_1 = (L_1 V_22 - V_12 L_2) / (V_11 V_22 - V_12^2) * C/S^1,
        phi_hat_2 = (L_2 V_11 - V_12 L_1) / (V_11 V_22 - V_12^2) * C/S^2.

    Agrees with :func:`multi_asset_hedge` on two assets; raises
    :class:`DegeneracyError` when the denominator is numerically zero.
    """
    c_left, s1_left, s2_left = prices_left
    if c_left <= 0.0 or s1_left <= 0.0 or s2_left <= 0.0:
        raise ValueError("prices must be positive")
    l1 = volatility_inner(asset1, contract, measure)
    l2 = volatility_inner(asset2, contract, measure)
    v11 = volatility_inner(asset1, asset1, measure)
    v22 = volatility_inner(asset2, asset2, measure)
    v12 = volatility_inner(asset1, asset2, measure)
    r = v11 * v22 - v12 * v12
    # same threshold discipline as degeneracy_check: det = prod(eigs), so
    # compare against the scale set by the mean eigenvalue.
    mean_eig = 0.5 * (v11 + v22)
    if r <= DEGENERACY_RTOL * mean_eig**2:
        tr = v11 + v22
        disc = max(tr * tr - 4.0 * r, 0.0)
        min_eig = 0.5 * (tr - np.sqrt(disc))
        raise DegeneracyError(
            "two-asset system is degenerate",
            DegeneracyReport(min_eig, np.inf if min_eig <= 0 else (tr - min_eig) / min_eig, True),
        )
    psi1 = (l1 * v22 - v12 * l2) / r
    psi2 = (l2 * v11 - v12 * l1) / r
    return psi1 * c_left / s1_left, psi2 * c_left / s2_left


def _resolve_phi(
    strategy: StrategyRule,
    contract_values: np.ndarray,
    asset_values: np.ndarray,
    n_steps: int,
    n_assets: int,
) -> np.ndarray:
    """Holdings per step from a rule, evaluated at step-start prices."""
    if strategy is None:
        return np.zeros((n_steps, n_assets))
    if isinstance(strategy, ConstantRatioRule):
        return strategy.holdings(contract_values, asset_values)
    if isinstance(strategy, HedgeStrategy):
        phi = strategy.phi
        if phi.shape != (n_steps, n_assets):
            raise ValueError("fixed strategy has the wrong shape for this grid")
        return phi
    phi = np.empty((n_steps, n_assets))
    for i in range(n_steps):
        row = np.atleast_1d(np.asarray(strategy(i, contract_values[i], asset_values[i]), dtype=float))
        if row.shape != (n_assets,):
            raise ValueError("strategy rule must return one holding per asset")
        phi[i] = row
    return phi


def hedge_residuals(
    contract_values: np.ndarray, asset_values: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual increments dV = dC - sum_i phi^i dS^i and the hedge gains
    sum_i phi^i dS^i, both of shape (..., steps).

    Takes contract values (..., steps + 1), asset values
    (..., steps + 1, n_assets) and holdings (..., steps, n_assets) for one
    path or a block of paths; each path's result is the same either way.
    """
    gains = (phi * np.diff(asset_values, axis=-2)).sum(axis=-1)
    return np.diff(contract_values, axis=-1) - gains, gains


def portfolio_values(contract_values: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Self-financing portfolio values along one path: V_0 = C_0, then the
    running sum of the residual increments."""
    values = np.empty(len(residuals) + 1)
    values[0] = contract_values[0]
    np.cumsum(residuals, out=values[1:])
    values[1:] += contract_values[0]
    return values


def benchmark_holdings(phi: np.ndarray, asset_values: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Benchmark units theta_i = sum_j phi_ij S^j_i - sum_{u<i} phi_u . dS_u
    held after the rebalance at t_i, for one path."""
    cum_gains = np.concatenate(([0.0], np.cumsum(gains)[:-1]))
    return (phi * asset_values[:-1]).sum(axis=1) - cum_gains


def evolve_portfolio(
    contract_path: PathSeries,
    asset_paths: Sequence[PathSeries],
    strategy: StrategyRule,
    grid: TimeGrid,
    *,
    delta_analytic: float | None = None,
    rho: float | None = None,
) -> HedgeReport:
    """Evolve the self-financing hedge portfolio along one path.

    Holdings for step i are evaluated from the step-start values (grid
    predictability); V_0 = C_0, i.e. the initial short-sale proceeds sit in
    the benchmark account.  Residual increments are dV = dC - sum phi dS.
    """
    n = grid.steps
    if contract_path.values.shape != (n + 1,):
        raise ValueError("contract path does not match the grid")
    for p in asset_paths:
        if p.values.shape != (n + 1,):
            raise ValueError("asset path does not match the grid")

    c = contract_path.values
    s = (
        np.stack([p.values for p in asset_paths], axis=1)
        if asset_paths
        else np.zeros((n + 1, 0))
    )
    phi = _resolve_phi(strategy, c, s, n, s.shape[1])
    dv, gains = hedge_residuals(c, s, phi)
    values = portfolio_values(c, dv)
    theta = benchmark_holdings(phi, s, gains)

    s_left = (
        np.stack([p.left_limits for p in asset_paths], axis=1)
        if asset_paths
        else np.zeros((n, 0))
    )
    left = contract_path.left_limits - (phi * s_left).sum(axis=1) + theta

    portfolio = PathSeries(values, left)
    return HedgeReport(
        portfolio_path=portfolio,
        residual_increments=dv,
        strategy=HedgeStrategy(phi, theta),
        delta_mc=float((values[-1] - values[0]) ** 2),
        per_step_std=float(dv.std()),
        max_abs_residual=float(np.abs(dv).max()) if n else 0.0,
        delta_analytic=delta_analytic,
        rho=rho,
    )


def analytic_delta(
    contract: AssetSpec,
    assets: Sequence[AssetSpec],
    strategy_ratios,
    measure: LevyMeasure,
    horizon: float,
) -> float:
    """Closed-form expected squared error for constant scaled ratios.

    Returns T * C_0^2 * (K - 2 psi.L + psi.V psi) with prices frozen at
    t = 0 (see the module docstring for the convention).  The optimal ratio
    vector minimizes this quadratic, so for one asset the minimum equals
    T * (K - L^2/M) * C_0^2 and the no-hedge value is T * K * C_0^2.
    """
    psi = np.atleast_1d(np.asarray(strategy_ratios, dtype=float))
    if psi.shape != (len(assets),):
        raise ValueError("need one scaled ratio per hedging asset")
    k = volatility_inner(contract, contract, measure)
    cross = np.array([volatility_inner(a, contract, measure) for a in assets])
    n = len(assets)
    vol = np.empty((n, n))
    for i, a in enumerate(assets):
        for j in range(i, n):
            vol[i, j] = vol[j, i] = volatility_inner(a, assets[j], measure)
    rate = k - 2.0 * float(psi @ cross) + float(psi @ vol @ psi)
    return horizon * contract.initial_price**2 * rate


def rho_diagnostic(contract: AssetSpec, asset: AssetSpec, measure: LevyMeasure) -> float:
    """Squared volatility correlation rho = L^2 / (K M) in [0, 1].

    rho = 1 means a perfect single-asset hedge exists; the optimal hedge
    removes the fraction rho of the no-hedge error.
    """
    co = single_coefficients(contract, asset, measure)
    scale = max(co.K, co.M)
    if co.K <= DEGENERACY_RTOL * scale or co.M <= DEGENERACY_RTOL * scale:
        raise DegeneracyError(
            "rho is undefined when the contract or asset carries no volatility",
            DegeneracyReport(min(co.K, co.M), np.inf, True),
        )
    return (co.L * co.L) / (co.K * co.M)
