"""Scenario definitions, Monte Carlo drivers, and brute-force hedge search.

The built-in scenarios are a Bernoulli jump-diffusion market: one contract
asset and two hedging assets, all geometric and driven by the same Brownian
motion and the same two-atom jump measure (marks +1/-1, total rate 15,
equal odds).  Everything is expressed in benchmark units, so the scenarios
carry no pricing kernel.  One master seed makes every run reproducible; the
reporting path (path_index 0) is retained in full for CSV emission.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .levy_core import (
    _check_integer,
    _checked_prices,
    _noise_blocks,
    IntegrationError,
    LevyMeasure,
    TimeGrid,
    exponential_prices,
)
from .market import AssetSpec, GeometricBernoulliSpec, natural_coefficients
from .hedging import (
    DegeneracyError,
    analytic_delta,
    benchmark_holdings,
    hedge_residuals,
    portfolio_values,
    rho_diagnostic,
    solve_ratios,
    volatility_gram,
)

__all__ = [
    "HEDGE_MODES",
    "DEFAULT_SEED",
    "Scenario",
    "PATH_COLUMNS",
    "ScenarioAggregate",
    "GoldenPath",
    "ScenarioResult",
    "BruteForceResult",
    "builtin_scenario",
    "scenario_ratios",
    "scenario_rho",
    "run_scenario",
    "brute_force_constant_hedge",
]

HEDGE_MODES = ("none", "single", "two_asset", "multi")
DEFAULT_SEED = 1729
FIGURE_NAMES = ("fig1", "fig2a", "fig2b", "fig3", "fig4")

# Largest grid a scenario accepts.  One path at this many steps holds tens
# of MB of noise and price arrays; a larger (say mistyped) step count is
# rejected before any array is allocated instead of ending in MemoryError.
_MAX_STEPS = 1_000_000

# Largest path count a scenario accepts: a larger count is rejected before
# the (n_paths, 6) statistics array is allocated.
_MAX_PATHS = 10**9

# Largest expected number of arrivals of one atom in one step.  NumPy's
# Poisson sampler rejects rates above about 9.2e18.
_MAX_STEP_RATE = 1e18


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment: market, contract, assets, grid, hedge mode.

    Asset specs are in benchmark units: hedging needs only the driftless
    natural dynamics, so a scenario carries no pricing kernel.  The natural
    specs are built and validated once, at construction: their volatility
    Gram matrix V, the contract's squared-error scale horizon * C_0^2 and its
    no-hedge error horizon * C_0^2 * V[0, 0] must be finite.
    """

    measure: LevyMeasure
    contract: GeometricBernoulliSpec
    hedging_assets: tuple[GeometricBernoulliSpec, ...]
    grid: TimeGrid
    n_paths: int
    seed: int
    hedge_mode: str
    hedge_asset_index: int = 0
    _natural: tuple[AssetSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hedging_assets", tuple(self.hedging_assets))
        if self.hedge_mode not in HEDGE_MODES:
            raise ValueError(f"unknown hedge_mode {self.hedge_mode!r}; expected one of {HEDGE_MODES}")
        _check_integer(self.n_paths, "n_paths")
        _check_integer(self.seed, "seed")
        _check_integer(self.hedge_asset_index, "hedge_asset_index")
        if self.n_paths < 1:
            raise ValueError("n_paths must be positive")
        if self.n_paths > _MAX_PATHS:
            raise ValueError(f"n_paths must be at most {_MAX_PATHS}, got {self.n_paths}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.grid.steps > _MAX_STEPS:
            raise ValueError(f"steps must be at most {_MAX_STEPS}, got {self.grid.steps}")
        for k, atom in enumerate(self.measure.atoms):
            if atom.intensity * self.grid.dt > _MAX_STEP_RATE:
                raise ValueError(
                    f"atom {k} (location {atom.location!r}) has intensity {atom.intensity!r}, "
                    f"{atom.intensity * self.grid.dt:.3g} arrivals per step; at most {_MAX_STEP_RATE:.0e} are allowed"
                )
        n = len(self.hedging_assets)
        if self.hedge_mode == "single" and not 0 <= self.hedge_asset_index < n:
            raise ValueError("single mode needs a valid hedge_asset_index")
        if self.hedge_mode == "two_asset" and n < 2:
            raise ValueError("two_asset mode needs at least two hedging assets")
        if self.hedge_mode == "multi" and n < 1:
            raise ValueError("multi mode needs at least one hedging asset")
        try:
            natural = tuple(g.to_asset_spec(self.measure) for g in (self.contract, *self.hedging_assets))
        except ValueError as exc:
            raise ValueError(f"a jump_exponent gives invalid jump volatilities on this measure: {exc}") from exc
        c0 = self.contract.initial_price
        if not math.isfinite(self.grid.horizon * c0 * c0):
            raise ValueError(
                f"contract initial_price {c0!r} over horizon {self.grid.horizon!r} overflows "
                "the squared-error scale horizon * initial_price**2"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
            gram = volatility_gram(natural[0], natural[1:], self.measure)
        if not np.isfinite(gram).all():
            raise ValueError(
                "the volatility Gram matrix overflows: a brownian_vol, jump_exponent or atom intensity is too large"
            )
        if not math.isfinite(self.grid.horizon * c0 * c0 * float(gram[0, 0])):
            raise ValueError(
                f"the contract's variance rate V[0, 0] = {float(gram[0, 0])!r} of its brownian_vol and jump_exponent "
                f"overflows the no-hedge error horizon * initial_price**2 * V[0, 0] at initial_price {c0!r}"
            )
        object.__setattr__(self, "_natural", natural)

    def natural_contract(self) -> AssetSpec:
        return self._natural[0]

    def natural_assets(self) -> tuple[AssetSpec, ...]:
        return self._natural[1:]

    def traded_assets(self) -> list[int] | None:
        """Indices of the assets the hedge mode trades, or None for no hedge."""
        if self.hedge_mode == "none":
            return None
        if self.hedge_mode == "single":
            return [self.hedge_asset_index]
        if self.hedge_mode == "two_asset":
            return [0, 1]
        return list(range(len(self.hedging_assets)))


# Columns of ScenarioResult.path_stats, one row per path: the per-path hedge
# outcome that paths.csv carries.  delta_integrated and residual_sum are the
# per-path second and first moments of the residual increments, so pooled
# aggregates can be recomputed exactly from the emitted rows.
PATH_COLUMNS = (
    "delta_terminal",
    "delta_integrated",
    "delta_normalized",
    "residual_sum",
    "per_step_std",
    "max_abs_residual",
)


@dataclass(frozen=True)
class ScenarioAggregate:
    mean_delta: float
    mean_delta_integrated: float
    mean_delta_normalized: float
    residual_std: float
    max_abs_residual: float


@dataclass(frozen=True, eq=False)
class GoldenPath:
    """Full arrays for the reporting path (path_index 0)."""

    times: np.ndarray
    jump_count_path: np.ndarray
    jump_sum_path: np.ndarray
    contract_values: np.ndarray
    asset_values: np.ndarray  # (steps + 1, n_assets)
    phi: np.ndarray  # (steps, n_assets)
    theta: np.ndarray  # (steps,)
    portfolio_values: np.ndarray
    residuals: np.ndarray  # (steps,)


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    ratios: tuple[float, ...] | None
    delta_analytic: float | None
    rho: float | None
    path_stats: np.ndarray  # (n_paths, len(PATH_COLUMNS))
    aggregate: ScenarioAggregate
    golden: GoldenPath


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    best_ratios: tuple[float, ...]
    best_delta: float


_BASE_CONTRACT = GeometricBernoulliSpec(100.0, 0.15, 0.25)
_BASE_ASSETS = (
    GeometricBernoulliSpec(100.0, 0.20, 0.30),
    GeometricBernoulliSpec(100.0, 0.10, 0.20),
)
_SMALL_CONTRACT = GeometricBernoulliSpec(100.0, 0.002, 0.25)
_SMALL_ASSETS = (
    GeometricBernoulliSpec(100.0, 0.003, 0.30),
    GeometricBernoulliSpec(100.0, 0.001, 0.20),
)


def builtin_scenario(name: str, **overrides) -> Scenario:
    """Named Bernoulli jump-diffusion scenarios, with the scenario fields in
    ``overrides`` applied by :func:`with_overrides`.

    fig1   no hedge (path display);
    fig2a  single-asset hedge with the high-volatility asset;
    fig2b  single-asset hedge with the low-volatility asset;
    fig3   two-asset hedge;
    fig4   two-asset hedge with Brownian volatilities reduced to
           (0.003, 0.001) and 0.002 for the contract.
    """
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown scenario name {name!r}; expected one of {FIGURE_NAMES}")
    figure = {
        "fig1": dict(hedge_mode="none"),
        "fig2a": dict(hedge_mode="single", hedge_asset_index=0),
        "fig2b": dict(hedge_mode="single", hedge_asset_index=1),
        "fig3": dict(hedge_mode="two_asset"),
        "fig4": dict(hedge_mode="two_asset", contract=_SMALL_CONTRACT, hedging_assets=_SMALL_ASSETS),
    }[name]
    base = dict(
        measure=LevyMeasure.bernoulli(rate=15.0, up_prob=0.5, up=1.0, down=-1.0),
        contract=_BASE_CONTRACT,
        hedging_assets=_BASE_ASSETS,
        grid=TimeGrid(horizon=1.0, steps=1000),
        n_paths=1000,
        seed=DEFAULT_SEED,
    )
    return with_overrides(Scenario(**{**base, **figure}), **overrides)


def with_overrides(s: Scenario, **fields) -> Scenario:
    """Copy of ``s`` with the given scenario fields replaced; ``steps``
    replaces the grid's step count.  A None is applied like any other value,
    so the scenario rejects it."""
    if "steps" in fields:
        fields["grid"] = TimeGrid(s.grid.horizon, fields.pop("steps"))
    return replace(s, **fields)


def scenario_ratios(s: Scenario) -> tuple[float, ...] | None:
    """Optimal constant scaled ratios psi_i = phi^i S^i / C for the scenario's mode.

    Returns one entry per hedging asset (zero for assets the mode does not
    trade), or None in no-hedge mode.  Every mode is the one solve
    V_S psi = L_S on the volatility Gram of the traded assets S.  Constant
    specs make the optimal scaled ratios time-independent, so they are
    computed once at t = 0.
    """
    traded = s.traded_assets()
    if traded is None:
        return None
    assets = s.natural_assets()
    v = volatility_gram(s.natural_contract(), [assets[i] for i in traded], s.measure)
    ratios = np.zeros(len(assets))
    ratios[traded] = solve_ratios(v[1:, 1:], v[1:, 0])
    return tuple(float(r) for r in ratios)


def scenario_rho(s: Scenario) -> float | None:
    """rho = L^2 / (K M) of a single-asset scenario, clamped to 1; None in
    the other modes, and where rho is undefined because the contract or the
    asset carries no volatility (the hedge itself can still be defined)."""
    if s.hedge_mode != "single":
        return None
    try:
        rho = rho_diagnostic(s.natural_contract(), s.natural_assets()[s.hedge_asset_index], s.measure)
    except DegeneracyError:
        return None
    # clamp: rounding can land an epsilon above the Cauchy-Schwarz bound
    return min(rho, 1.0)


# ----------------------------------------------------------------------------
# the Monte Carlo pipeline
#
# run_scenario and the verification suites share these steps: price blocks
# of paths on shared noise, hedge them at constant scaled ratios, and reduce
# each path's residuals to the PATH_COLUMNS statistics.  Every reduction runs
# along one path's steps, so the statistics do not depend on the block size.


def _price_blocks(price, s: Scenario):
    """Natural prices of the scenario's contract and hedging assets on
    shared noise, one block of its paths at a time, from ``price``
    (:func:`exponential_prices` or an Euler integrator).

    Yields (first_path, counts, c, a) with c of shape (paths, steps + 1) and
    a of shape (paths, steps + 1, n_assets).  A price that is not positive
    and finite raises :class:`PriceRangeError`.
    """
    specs = (s.natural_contract(), *s.natural_assets())
    coeffs = [natural_coefficients(spec, s.measure) for spec in specs]
    for first, dw, counts in _noise_blocks(s.measure, s.grid, s.seed, s.n_paths):

        def prices(k: int, what: str) -> np.ndarray:
            values = price(coeffs[k], dw, counts, s.grid, specs[k].initial_price)
            return _checked_prices(values, what, first)

        c = prices(0, "contract")
        a = np.empty(c.shape + (len(specs) - 1,))
        for k in range(1, len(specs)):
            a[..., k - 1] = prices(k, f"asset {k}")
        yield first, counts, c, a


def _hedge(c: np.ndarray, a: np.ndarray, ratios) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Holdings phi^i = psi_i C_left / S^i_left of constant scaled ratios
    psi, with the residuals dV and the hedge gains they leave.

    Takes contract values (..., steps + 1) and asset values
    (..., steps + 1, n_assets); returns phi (..., steps, n_assets) and dV
    and gains (..., steps).
    """
    psi = np.asarray(ratios, dtype=float)
    if psi.shape != a.shape[-1:]:
        raise ValueError("need one ratio per hedging asset")
    phi = np.empty(a[..., :-1, :].shape)
    # a tiny asset price overflows phi; _path_stats reports the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        # one asset at a time: every loop runs along the step axis
        for k, r in enumerate(psi):
            phi[..., k] = r * (c[..., :-1] / a[..., :-1, k])
        dv, gains = hedge_residuals(c, a, phi)
    return phi, dv, gains


def _path_stats(c: np.ndarray, dv: np.ndarray, first_path: int) -> tuple[np.ndarray, ...]:
    """The PATH_COLUMNS statistics, one (paths,) array each, of the
    residuals dV (paths, steps) of hedging the contract values c on paths
    ``first_path``, ``first_path + 1``, ...; raises :class:`IntegrationError`
    at the first statistic (by path, then column) that overflowed."""
    c0 = c[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        # V_T accumulates on top of V_0 = C_0, as in the portfolio path
        v_terminal = c0 + np.cumsum(dv, axis=1)[:, -1]
        z = dv / c[:, :-1]
        stats = (
            (v_terminal - c0) ** 2,
            (dv * dv).sum(axis=1),
            c0 * c0 * (z * z).sum(axis=1),
            dv.sum(axis=1),
            dv.std(axis=1),
            np.abs(dv).max(axis=1),
        )
    bad = ~np.isfinite(stats).T
    if bad.any():
        i, k = (int(n) for n in np.argwhere(bad)[0])
        # a statistic covers the whole path: the failure is dated at its last step
        raise IntegrationError(dv.shape[1], f"{PATH_COLUMNS[k]} on path {first_path + i} overflows to {stats[k][i]}")
    return stats


def run_scenario(s: Scenario) -> ScenarioResult:
    """Simulate all scenario paths with shared-noise discipline and aggregate.

    Every asset on a path consumes the same noise realization; the hedge
    mode never alters the simulated prices.  Paths are simulated in blocks
    of (paths, steps[, assets]) arrays; every reduction runs along one
    path's steps, so the results are deterministic in the seed and do not
    depend on the block size.
    """
    ratios = scenario_ratios(s)
    contract = s.natural_contract()
    assets = s.natural_assets()
    d_analytic = analytic_delta(contract, assets, ratios, s.measure, s.grid.horizon) if ratios is not None else None
    rho = scenario_rho(s)

    hedge_ratios = ratios if ratios is not None else (0.0,) * len(assets)
    steps = s.grid.steps
    columns = np.empty((len(PATH_COLUMNS), s.n_paths))
    golden = None
    for first, counts, c, a in _price_blocks(exponential_prices, s):
        phi, dv, gains = _hedge(c, a, hedge_ratios)
        columns[:, first : first + len(dv)] = _path_stats(c, dv, first)
        if first == 0:
            # arrivals and the sum of their marks up to each grid time
            jump_count_path = np.zeros(steps + 1)
            np.cumsum(counts[0].sum(axis=1), out=jump_count_path[1:])
            jump_sum_path = np.zeros(steps + 1)
            if len(s.measure):
                np.cumsum(counts[0] @ s.measure.locations, out=jump_sum_path[1:])
            golden = GoldenPath(
                times=s.grid.times,
                jump_count_path=jump_count_path,
                jump_sum_path=jump_sum_path,
                contract_values=c[0],
                asset_values=a[0],
                phi=phi[0],
                theta=benchmark_holdings(phi[0], a[0], gains[0]),
                portfolio_values=portfolio_values(c[0], dv[0]),
                residuals=dv[0],
            )

    terminal, integrated, normalized, residual_sum, per_step_std, max_abs = columns
    count = s.n_paths * steps
    with np.errstate(over="ignore", invalid="ignore"):  # a sum of finite statistics can overflow
        mean = float(residual_sum.sum()) / count
        aggregate = ScenarioAggregate(
            mean_delta=float(np.mean(terminal)),
            mean_delta_integrated=float(np.mean(integrated)),
            mean_delta_normalized=float(np.mean(normalized)),
            residual_std=float(np.sqrt(max(float(integrated.sum()) / count - mean * mean, 0.0))),
            max_abs_residual=float(max_abs.max()),
        )
    for name, value in asdict(aggregate).items():
        if not math.isfinite(value):
            raise IntegrationError(steps, f"{name} over {s.n_paths} paths overflows to {value}")
    return ScenarioResult(
        ratios=ratios,
        delta_analytic=d_analytic,
        rho=rho,
        path_stats=columns.T,
        aggregate=aggregate,
        golden=golden,
    )


def _ratio_axis(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(count)


def brute_force_constant_hedge(
    s: Scenario, ratio_min: float, ratio_max: float, step: float = 1e-3
) -> BruteForceResult:
    """Exhaustive sweep of the closed-form error over constant scaled ratios.

    Each traded asset's ratio (one in single mode, two in two-asset mode)
    is swept over [ratio_min, ratio_max], and the error T C_0^2 c'Vc with
    c = (1, -psi) is evaluated on the grid of all of them.  This is the
    independent check that the closed-form hedges sit at the minimum: no
    solver output enters the sweep.
    """
    if s.hedge_mode not in ("single", "two_asset"):
        raise ValueError("brute force sweep needs hedge_mode 'single' or 'two_asset'")
    traded = s.traded_assets()
    contract = s.natural_contract()
    assets = s.natural_assets()
    v = volatility_gram(contract, [assets[i] for i in traded], s.measure)
    axes = tuple(_ratio_axis(ratio_min, ratio_max, step) for _ in traded)
    # c'Vc = V_00 + sum_i psi_i (psi_i V_ii - 2 V_i0) + 2 sum_{j<i} psi_i psi_j V_ij
    # on a sparse grid, so only the terms in two ratios span the full grid
    psi = np.meshgrid(*axes, indexing="ij", sparse=True)
    rate = v[0, 0]
    for i in range(1, len(v)):
        rate = rate + psi[i - 1] * (psi[i - 1] * v[i, i] - 2.0 * v[i, 0])
        for j in range(1, i):
            rate = rate + 2.0 * v[i, j] * psi[i - 1] * psi[j - 1]
    c0 = contract.initial_price
    deltas = s.grid.horizon * c0 * c0 * rate
    best = np.unravel_index(int(np.argmin(deltas)), deltas.shape)
    ratios = np.zeros(len(assets))
    ratios[traded] = [axis[k] for axis, k in zip(axes, best)]
    return BruteForceResult(tuple(ratios), float(deltas[best]))
