"""Optimal quadratic hedging and self-financing portfolio evolution.

A contract position C is hedged by shorting phi^i units of hedging assets
S^i and holding theta benchmark units, all in benchmark ("natural") units
where every price is a driftless martingale.  The portfolio is
self-financing: dV = dC - sum_i phi^i dS^i, with theta recovered from
theta_t = sum_i phi^i_t S^i_t - integral_0^t phi dS.

Every hedge comes from one volatility Gram matrix over the contract
(row 0) and the hedging assets (rows 1..n),

    V[a, b] = sigma_a sigma_b + sum_k Sigma_a_k Sigma_b_k w_k,

and one solve: the optimal scaled ratios psi_i = phi^i S^i / C on a traded
subset S of the assets solve V_S psi = L_S, with L = V[1:, 0].  One asset
gives psi = L / M with K = V[0, 0], L = V[1, 0], M = V[1, 1]; the n = 2
closed form (P - Q) / R is kept separately as an independent oracle.  The
package reads K/L/M and hedges only through :func:`solve_ratios` on
:func:`volatility_gram`; the price-weighted system (:class:`GramSystem`,
:func:`gram_system`, :func:`degeneracy_check`, :func:`multi_asset_hedge`)
and :func:`single_coefficients` remain public only for the benchmark's
``hedge_sweep`` workload.

A block V_S has no unique optimal hedge where it is degenerate.  One
function states that rule, :func:`_degenerate`, on the eigenvalues of one
block or of a stack; every solve, the closed form and every
:class:`DegeneracyReport` read it.

:func:`volatility_gram` keeps the last finite Gram it built in one slot,
``_gram_slot``, and returns it again for a repeat call on the same objects
(on random markets: a scenario's closed forms read the block its
``Scenario`` kept); every Gram it returns is read-only.  A call matches the
slot by the identity of the measure and of each spec, not by their values:
the frozen specs always give the same bits, value equality would match -0.0
to 0.0, and hashing the float tuples costs about a fifth of a build.

The arithmetic of the one-market functions also runs on stacks of markets,
along leading axes: :func:`solve_ratios` takes Gram blocks (..., n, n),
and the private kernels that :func:`volatility_gram` (``_gram``),
:func:`two_asset_hedge` (``_two_asset_ratios``) and :func:`analytic_delta`
(``_delta``) call take loadings (..., n_specs, 1 + m), Grams (..., 3, 3)
and Grams (..., n + 1, n + 1).  A one-market call runs the same code on a
stack of none, so each market of a stack gets the bits it gets alone;
verify optimality checks its random markets this way.

Expected squared error for constant scaled ratios psi_i = phi^i S^i / C is
reported as the time-0 rate times the horizon:

    Delta(psi) = T * C_0^2 * (K - 2 psi.L + psi.V_S psi) = T * C_0^2 * c'Vc,

with c = (1, -psi) and V_S the assets' block of V.  This freezes prices at
t = 0; it is the quantity whose minimizer the closed forms above attain,
and per-step residuals normalized by the running contract value estimate
it without bias up to O(dt).  The raw terminal deviation (V_T - V_0)^2 is
recorded alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .levy_core import _check_atoms, LevyMeasure
from .market import AssetSpec

__all__ = [
    "DegeneracyError",
    "SingleHedgeCoefficients",
    "GramSystem",
    "DegeneracyReport",
    "volatility_gram",
    "solve_ratios",
    "single_coefficients",
    "gram_system",
    "multi_asset_hedge",
    "two_asset_hedge",
    "hedge_residuals",
    "portfolio_values",
    "benchmark_holdings",
    "analytic_delta",
    "rho_diagnostic",
    "degeneracy_check",
]

# Relative eigenvalue floor below which a volatility Gram block is treated
# as rank deficient (no unique optimal hedge there).
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

    For the volatility Gram V of :func:`volatility_gram`,

    M[i, j] = S^i S^j V[i + 1, j + 1],
    F[i]    = S^i C   V[i + 1, 0],
    G       = C^2     V[0, 0].

    ``asset_prices`` records the price point the system was built at so the
    solve and the degeneracy check can undo the price weighting.
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
        # |M - M^T| <= 1e-12 max(1, max|M|) elementwise; NaN fails the test
        if not np.abs(m - m.T).max() <= 1e-12 * max(1.0, float(np.abs(m).max())):
            raise ValueError("Gram matrix must be symmetric")
        if self.G < 0.0:
            raise ValueError("G is a square and cannot be negative")
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "F", f)
        object.__setattr__(self, "asset_prices", s)


@dataclass(frozen=True)
class DegeneracyReport:
    """Eigenvalue diagnostics of an unscaled volatility Gram block (see
    :func:`_report`, which builds every report)."""

    min_eigenvalue: float
    condition_number: float
    degenerate: bool


# The last finite Gram volatility_gram built, with the (measure, contract,
# *assets) objects it was built from, held so that no other object can take
# their identity.  Its callers ask for one spec set several times in a
# row (a solve, then analytic_delta at three ratios), so one slot holds
# every repeat: the benchmark's hedge_sweep body builds 250 Grams for 1150
# calls, as a table of 2, 4 or 64 entries would.  verify optimality's
# random markets bypass the slot: their Grams are built as stacks (_gram).
_gram_slot: tuple[tuple, np.ndarray | None] = ((), None)


def volatility_gram(contract: AssetSpec, assets: Sequence[AssetSpec], measure: LevyMeasure) -> np.ndarray:
    """Volatility Gram matrix V = B diag(1, w) B^T, (n + 1) x (n + 1), read-only.

    B has one row (sigma, Sigma_1..Sigma_m) per spec, the contract first, so
    V[a, b] = sigma_a sigma_b + sum_k Sigma_a_k Sigma_b_k w_k (:func:`_gram`).

    A call on the objects of the kept Gram returns that array (see the
    module docstring).  A non-finite Gram is never kept, so its overflow
    warning is raised on every call.
    """
    global _gram_slot
    objects = (measure, contract, *assets)
    kept, v = _gram_slot
    if len(kept) == len(objects) and all(x is y for x, y in zip(kept, objects)):
        return v
    specs = objects[1:]
    _check_atoms(len(contract.jump_vol), measure, "contract")
    for asset in specs[1:]:
        _check_atoms(len(asset.jump_vol), measure, "asset")
    v = _gram(np.array([(spec.brownian_vol, *spec.jump_vol) for spec in specs]), measure.intensities)
    v.setflags(write=False)
    if np.isfinite(v).all():
        _gram_slot = (objects, v)
    return v


def _gram(loadings: np.ndarray, intensities: np.ndarray) -> np.ndarray:
    """Volatility Grams (..., n_specs, n_specs) of loadings B (..., n_specs,
    1 + m), one row (sigma, Sigma_1..Sigma_m) per spec, and intensities w
    (..., m).  The rows are scaled by sqrt(1, w) and multiplied by their
    own transpose, which keeps each Gram exactly symmetric.

    Each Gram of a stack has the bits of a Gram built alone, because every
    block of a stack has the same m: padding a stack to a common atom
    count adds zero columns, which can reorder the sums over the atoms.
    """
    scale = np.empty(intensities.shape[:-1] + (1 + intensities.shape[-1],))
    scale[..., 0] = 1.0
    np.sqrt(intensities, out=scale[..., 1:])
    b = loadings * scale[..., None, :]
    return b @ b.swapaxes(-1, -2)


def _degenerate(eigs: np.ndarray) -> np.ndarray:
    """The degeneracy rule, over the ascending eigenvalues (..., n) of
    unscaled volatility Gram blocks: a block is degenerate when its
    smallest eigenvalue falls below DEGENERACY_RTOL times its mean
    eigenvalue, i.e. when some portfolio of the hedging assets carries
    (numerically) no volatility.  Returns a mask (...), a NumPy bool for
    one block."""
    # .T[0].T, not [..., 0]: one block's entries are then NumPy scalars,
    # whose arithmetic costs a tenth of a 0-d array's
    return eigs.T[0].T <= DEGENERACY_RTOL * (np.add.reduce(eigs, axis=-1) / eigs.shape[-1])


def _gram_report(v: np.ndarray) -> DegeneracyReport:
    """Eigenvalue diagnostics of an unscaled volatility Gram block, (n, n)."""
    return _report(np.linalg.eigvalsh(v))


def _report(eigs: np.ndarray) -> DegeneracyReport:
    """The :class:`DegeneracyReport` of one block's ascending eigenvalues (n,)."""
    min_eig = float(eigs[0])
    cond = np.inf if min_eig <= 0.0 else float(eigs[-1]) / min_eig
    return DegeneracyReport(min_eig, cond, bool(_degenerate(eigs)))


def _check_blocks(v: np.ndarray, message: str, underflow: tuple[np.ndarray, str] | None = None) -> None:
    """Raise :class:`DegeneracyError` with the report of the first of the
    Gram blocks ``v``, (n, n) or (..., n, n), that fails: with ``message``
    when the block is degenerate (:func:`_degenerate`), else with the
    message of ``underflow``, a (mask, message) pair, when its mask entry
    is set.  That is the error a loop over the blocks raises first; a block
    of a stack is named by its index."""
    eigs = np.linalg.eigvalsh(v)
    degenerate = _degenerate(eigs)
    failed = degenerate if underflow is None else degenerate | underflow[0]
    if not np.count_nonzero(failed):
        return
    block = np.unravel_index(np.argmax(failed), failed.shape)
    if not degenerate[block]:
        message = underflow[1]
    if failed.ndim:
        message += f" (block {', '.join(map(str, block))})"
    raise DegeneracyError(message, _report(eigs[block]))


def solve_ratios(v_traded: np.ndarray, l_traded: np.ndarray) -> np.ndarray:
    """Optimal scaled ratios psi solving V_S psi = L_S on the traded block.

    ``v_traded`` is the traded assets' block of the volatility Gram, (n, n)
    or a stack (..., n, n), and ``l_traded`` their column against the
    contract, (n,) or (..., n); the ratios have the shape of ``l_traded``.
    Raises :class:`DegeneracyError` (report attached) on a degenerate
    block, the first of a stack.
    """
    _check_blocks(v_traded, "hedging assets are degenerate (rank-deficient Gram matrix)")
    return np.linalg.solve(v_traded, np.asarray(l_traded)[..., None])[..., 0]


def single_coefficients(
    contract: AssetSpec, asset: AssetSpec, measure: LevyMeasure
) -> SingleHedgeCoefficients:
    """K/L/M triple for hedging ``contract`` with one ``asset``."""
    v = volatility_gram(contract, (asset,), measure)
    return SingleHedgeCoefficients(K=float(v[0, 0]), L=float(v[1, 0]), M=float(v[1, 1]))


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
    v = volatility_gram(contract, assets, measure)
    return GramSystem(
        np.outer(prices, prices) * v[1:, 1:],
        prices * contract_price_left * v[1:, 0],
        contract_price_left**2 * float(v[0, 0]),
        prices,
    )


def degeneracy_check(system: GramSystem) -> DegeneracyReport:
    """Eigenvalue diagnostics of the Gram matrix with the price weights removed
    (the rule of :func:`solve_ratios`)."""
    return _gram_report(system.M / np.outer(system.asset_prices, system.asset_prices))


def multi_asset_hedge(system: GramSystem) -> np.ndarray:
    """Optimal holdings solving M phi = F.

    With D = diag(S) the system is D V D phi = C D L, so the unscaled solve
    V x = F / S gives x = D phi.  Raises :class:`DegeneracyError` (report
    attached) on a degenerate system.
    """
    s = system.asset_prices
    return solve_ratios(system.M / np.outer(s, s), system.F / s) / s


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

    An independent oracle for :func:`solve_ratios` on two assets; raises
    :class:`DegeneracyError` on a degenerate pair, by the same rule.
    """
    c_left, s1_left, s2_left = prices_left
    if c_left <= 0.0 or s1_left <= 0.0 or s2_left <= 0.0:
        raise ValueError("prices must be positive")
    psi1, psi2 = _two_asset_ratios(volatility_gram(contract, (asset1, asset2), measure)).tolist()
    return psi1 * c_left / s1_left, psi2 * c_left / s2_left


def _two_asset_ratios(v: np.ndarray) -> np.ndarray:
    """The closed-form scaled ratios (..., 2) of :func:`two_asset_hedge` on
    Grams (..., 3, 3), the contract first: (L_1 V_22 - V_12 L_2) / R and
    (L_2 V_11 - V_12 L_1) / R with R = V_11 V_22 - V_12^2.

    Raises :class:`DegeneracyError` on the first block whose asset pair is
    degenerate by :func:`solve_ratios`'s rule, or whose R underflowed
    although the eigenvalue rule passed.
    """
    # entries of the transpose, the stack axes reversed: one Gram's entries
    # are then NumPy scalars (see _check_blocks)
    vt = v.T
    l1, l2 = vt[0, 1], vt[0, 2]
    v11, v22, v12 = vt[1, 1], vt[2, 2], vt[1, 2]
    r = v11 * v22 - v12 * v12
    # a pair that passes the eigenvalue rule with R <= 0 had its R underflow
    underflow = ((~(r > 0.0)).T, "two-asset determinant underflows at this volatility scale")
    _check_blocks(v[..., 1:, 1:], "two-asset system is degenerate", underflow)
    return np.array([(l1 * v22 - v12 * l2) / r, (l2 * v11 - v12 * l1) / r]).T


def hedge_residuals(
    contract_values: np.ndarray, asset_values: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual increments dV = dC - sum_i phi^i dS^i and the hedge gains
    sum_i phi^i dS^i, both of shape (..., steps).

    Takes contract values (..., steps + 1), and asset values
    (n_hedging, ..., steps + 1) and holdings (n_hedging, ..., steps), one
    row per asset, for one path or a block of paths; each path's result is
    the same either way.  The gains are added to zero in asset-index order,
    row by row, so their rounding is fixed by this loop, not by NumPy's
    reduction.
    """
    gains = np.zeros(contract_values[..., 1:].shape)
    for held, values in zip(phi, asset_values):
        gains += held * np.diff(values, axis=-1)
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
    """Benchmark units theta_i = sum_j phi_ij S^j_i - sum_{u<i} phi_u . dS_u at every grid
    time t_i of one path, from holdings and asset values (steps + 1, n_hedging)."""
    return (phi * asset_values).sum(axis=1) - np.concatenate(([0.0], np.cumsum(gains)))


def analytic_delta(
    contract: AssetSpec,
    assets: Sequence[AssetSpec],
    strategy_ratios,
    measure: LevyMeasure,
    horizon: float,
) -> float | np.ndarray:
    """Closed-form expected squared error for constant scaled ratios.

    Returns T * C_0^2 * c'Vc with c = (1, -psi), i.e.
    T * C_0^2 * (K - 2 psi.L + psi.V psi), with prices frozen at t = 0 (see
    the module docstring for the convention).  The optimal ratio vector
    minimizes this quadratic, so for one asset the minimum equals
    T * (K - L^2/M) * C_0^2 and the no-hedge value is T * K * C_0^2.

    ``strategy_ratios`` is one ratio vector (a float is returned) or a
    stack of them, shape (..., n_hedging), evaluated on one Gram matrix (an
    array of shape ``psi.shape[:-1]`` is returned).
    """
    psi = np.atleast_1d(np.asarray(strategy_ratios, dtype=float))
    if psi.shape[-1:] != (len(assets),):
        raise ValueError("need one scaled ratio per hedging asset")
    delta = _delta(volatility_gram(contract, assets, measure), psi, contract.initial_price, horizon)
    return float(delta) if psi.ndim == 1 else delta


def _delta(v: np.ndarray, psi: np.ndarray, c0, horizon: float) -> np.ndarray:
    """T * C_0^2 * c'Vc with c = (1, -psi), for ratios ``psi`` (..., n) on
    Grams ``v`` (..., n + 1, n + 1) and contract prices ``c0``, all
    broadcast as ``c @ v`` and ``c0 * rate`` are: one ratio vector (n,)
    against one Gram, a stack (k, n) against one Gram, or a stack (..., k,
    n) against as many Grams (..., n + 1, n + 1) and prices (..., 1).
    """
    c = np.empty(psi.shape[:-1] + (1 + psi.shape[-1],))
    c[..., 0] = 1.0
    np.negative(psi, out=c[..., 1:])
    rate = ((c @ v) * c).sum(axis=-1)
    # the order of Scenario's check: T * C_0 first, so C_0^2 is never formed alone
    return horizon * c0 * c0 * rate


def rho_diagnostic(contract: AssetSpec, asset: AssetSpec, measure: LevyMeasure) -> float:
    """Squared volatility correlation rho = L^2 / (K M).

    rho = 1 means a perfect single-asset hedge exists; the optimal hedge
    removes the fraction rho of the no-hedge error.  Cauchy-Schwarz bounds
    rho to [0, 1], but the value is not clamped: rounding can put it an
    epsilon above 1.  Raises :class:`DegeneracyError`, carrying the Gram
    block's report, when the contract or the asset carries no volatility.
    """
    v = volatility_gram(contract, (asset,), measure)
    K, L, M = float(v[0, 0]), float(v[1, 0]), float(v[1, 1])
    scale = max(K, M)
    if K <= DEGENERACY_RTOL * scale or M <= DEGENERACY_RTOL * scale:
        raise DegeneracyError("rho is undefined when the contract or asset carries no volatility", _gram_report(v))
    # (L/K)(L/M), not L^2/(KM): K*M underflows to zero for volatilities below ~1e-77
    return (L / K) * (L / M)
