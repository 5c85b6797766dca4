"""Scenario definitions, Monte Carlo drivers, and brute-force hedge search.

The built-in scenarios are a Bernoulli jump-diffusion market: one contract
asset and two hedging assets, all geometric and driven by the same Brownian
motion and the same two-atom jump measure (marks +1/-1, total rate 15,
equal odds).  Everything is expressed in benchmark units, so the scenarios
carry no pricing kernel.  One master seed makes every run reproducible; the
reporting path (path_index 0) is retained in full for CSV emission.

Monte Carlo runs fill their per-path arrays through :func:`_range_rows`
over :func:`_path_ranges`, which splits the paths into contiguous ranges of
whole blocks, one range per usable CPU when the run is large enough to
repay a fork; every range but the first is computed in a forked child.
Each path draws from its own substreams and every reduction runs along one
path, so the results are the same bytes whatever the number of processes.
A verification loop fills one column per randomized trial the same way,
over :func:`_trial_ranges`, once its caller has drawn every trial's inputs
in order.  :func:`_fork_ranges` is the one fork loop: the CSV writer
(:mod:`levyhedge.csv_format`) cuts a long table into ranges of whole chunks
of rows through it too.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import sys
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .levy_core import (
    _block_paths,
    _check_count,
    _checked_prices,
    _noise_blocks,
    IntegrationError,
    LevyMeasure,
    TimeGrid,
    exponential_prices,
)
from .market import AssetSpec, GeometricBernoulliSpec, natural_coefficients
from .hedging import (
    _rho,
    DegeneracyError,
    analytic_delta,
    benchmark_holdings,
    hedge_residuals,
    portfolio_values,
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
# anything is allocated.  The cap bounds the count, not the memory: at 10**9
# paths the (6, n_paths) statistics array alone is 44.7 GiB, and an
# allocation the system refuses is reported by cli.main as a configuration
# error, as a count above the cap is.
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
    no-hedge error horizon * C_0^2 * V[0, 0] must be finite.  The hedge mode
    is resolved there too, into the :meth:`traded` assets and their block of
    V, which every closed form of the scenario reads.
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
    _traded: tuple[np.ndarray, np.ndarray] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hedging_assets", tuple(self.hedging_assets))
        if self.hedge_mode not in HEDGE_MODES:
            raise ValueError(f"unknown hedge_mode {self.hedge_mode!r}; expected one of {HEDGE_MODES}")
        for name, low, high in (("n_paths", 1, _MAX_PATHS), ("seed", 0, None), ("hedge_asset_index", None, None)):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, low, high))
        _check_count(self.grid.steps, "steps", high=_MAX_STEPS)
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
        traded = {"single": [self.hedge_asset_index], "two_asset": [0, 1], "multi": range(n)}.get(self.hedge_mode)
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
        if traded is not None:
            rows = [0, *(i + 1 for i in traded)]
            traded = np.array(traded), gram[np.ix_(rows, rows)]
            for a in traded:
                a.setflags(write=False)
        object.__setattr__(self, "_traded", traded)

    def natural_contract(self) -> AssetSpec:
        return self._natural[0]

    def natural_assets(self) -> tuple[AssetSpec, ...]:
        return self._natural[1:]

    def traded(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Indices of the assets the hedge mode trades and their volatility Gram
        block, contract first (both read-only), or None for no hedge."""
        return self._traded


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
    asset_values: np.ndarray  # (steps + 1, n_hedging)
    phi: np.ndarray  # (steps + 1, n_hedging); the last row repeats the one before
    theta: np.ndarray  # (steps + 1,), from hedging.benchmark_holdings
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
    if s.traded() is None:
        return None
    traded, v = s.traded()
    ratios = np.zeros(len(s.hedging_assets))
    ratios[traded] = solve_ratios(v[1:, 1:], v[1:, 0])
    return tuple(float(r) for r in ratios)


def scenario_rho(s: Scenario) -> float | None:
    """rho = L^2 / (K M) of a single-asset scenario, clamped to 1; None in
    the other modes, and where rho is undefined because the contract or the
    asset carries no volatility (the hedge itself can still be defined)."""
    if s.hedge_mode != "single":
        return None
    try:
        rho = _rho(s.traded()[1])
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
# along one path's steps, so the statistics do not depend on the block size
# or on the process that computes them.

# Fewest path-steps that each process of a run must simulate.  Measured on a
# 2-CPU Intel Xeon VM (Python 3.11, NumPy 2.4), 60 alternated runs a side: a
# bare fork, _exit and waitpid take a median 3.4-4.0 ms in a levyhedge
# process of 38 MiB, but a second process costs more (the two-process time
# less half the one-process time): copy-on-write faults slow both
# processes, and the ranges of whole blocks are not quite equal.  Ranges
# are whole 16-path blocks at 1000 steps, so 263 paths split at path 128
# and 500 at path 256.  Median of 60 alternated runs a side, three times:
# 2**17 path-steps of run_scenario on fig3 take about 20 ms in one process,
# and a second process costs 7-10 ms.  At 263 paths of 1000 steps, just
# above two processes' threshold, two processes run 1.30-1.52x faster than
# one (28-29 ms against 37-44 ms), and at 500 paths 1.59-1.70x (46-48 ms
# against 73-79 ms); 2**18 would run 500 paths in one process.
_FORK_MIN_PATH_STEPS = 2**17

# Fewest trials that each process of a trial loop must run.  A trial of
# verify's randomized checks takes about 0.18 ms (one two-asset market) to
# 0.34 ms (one pricing kernel on a 500-step path), and a second process
# costs about 10 ms in a process that has run verify all.  Measured on the
# 2-CPU Intel Xeon VM above, median of 40 alternated calls, two processes
# against one: 100 kernels 27.6 ms against 34.5 ms, 60 kernels 19.5 ms
# against 15.6 ms; 1000 markets 117 ms against 185 ms, 200 markets 25.6 ms
# against 34.7 ms, and 100 markets 17.3 ms against 17.8 ms.
_FORK_MIN_TRIALS = 50


def _usable_cpus() -> int:
    """CPUs this process may run on, on Linux; 1 elsewhere: Windows has no
    fork, and macOS's system libraries (Accelerate, which NumPy may use for
    BLAS, among them) are not safe to use in a forked child."""
    if sys.platform != "linux":
        return 1
    return len(os.sched_getaffinity(0))


def _ranges(n: int, unit: int, most: int) -> list[tuple[int, int]]:
    """Items 0 .. n - 1 cut into contiguous ranges of whole units of ``unit``
    items, one per process: at most one per usable CPU, per unit, and at
    most ``most``."""
    units = -(-n // unit)
    workers = max(1, min(_usable_cpus(), units, most))
    edges = [min(n, unit * (units * k // workers)) for k in range(workers + 1)]
    return list(zip(edges, edges[1:]))


def _path_ranges(n_paths: int, steps: int) -> list[tuple[int, int]]:
    """Paths 0 .. n_paths - 1 cut into ranges of whole blocks, with at least
    _FORK_MIN_PATH_STEPS path-steps each."""
    return _ranges(n_paths, _block_paths(steps), n_paths * steps // _FORK_MIN_PATH_STEPS)


def _trial_ranges(n_trials: int) -> list[tuple[int, int]]:
    """Trials 0 .. n_trials - 1 cut into ranges of at least
    _FORK_MIN_TRIALS trials each."""
    return _ranges(n_trials, 1, n_trials // _FORK_MIN_TRIALS)


def _fork_range(run, start: int, stop: int) -> int | None:
    """Fork a child that runs ``run(start, stop)`` and exits 0, or 1 on any
    exception or warning; returns its pid, or None when the system refuses
    a new process."""
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that a fork in a process with several
            # threads (OpenBLAS keeps a pool) may deadlock the child.  The
            # child runs NumPy's elementwise kernels and generators, and
            # BLAS and LAPACK only on operands of a few elements:
            # compensate's dot product over the atoms, volatility_gram's
            # matmul, eigvalsh and np.linalg.solve on blocks of at most
            # 3 x 3, and analytic_delta's (501, 2) @ (2, 2) product.  Each
            # is far below the size at which OpenBLAS hands work to its
            # pool: with NumPy 2.4's OpenBLAS 0.3.31, a child that makes
            # these calls keeps its one thread (other BLAS builds are
            # unchecked).  It writes only what ``run`` writes (shared
            # memory, or the unnamed temporary file of a CSV range, which
            # ``run`` flushes) and leaves through os._exit, so it flushes no
            # inherited buffer.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
            )
            pid = os.fork()
            if pid == 0:
                try:
                    # a range that warns is redone by the parent, which then
                    # warns as a one-process run does
                    warnings.simplefilter("error")
                    run(start, stop)
                    os._exit(0)
                finally:
                    os._exit(1)
    except OSError:
        return None
    return pid


def _fork_ranges(ranges: list[tuple[int, int]], run) -> set[tuple[int, int]]:
    """Run ``run(start, stop)`` for ``ranges[0]`` in this process and for
    each other range in a forked child; returns the ranges whose children
    exited with 0.

    The caller redoes every other range, in range order and in this
    process, so an error is raised as a one-process run raises it.  No child
    outlives the call: an exception here kills and reaps them.
    """
    children = {}
    done = set()
    try:
        for r in ranges[1:]:
            pid = _fork_range(run, *r)
            if pid is not None:
                children[r] = pid
        run(*ranges[0])
        for r, pid in list(children.items()):
            _, status = os.waitpid(pid, 0)
            del children[r]
            if os.waitstatus_to_exitcode(status) == 0:
                done.add(r)
    finally:
        # an interrupt between a waitpid and its del leaves a reaped pid
        # here; let the exception that got us here propagate, not this one
        for pid in children.values():
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return done


def _range_rows(shape: tuple[int, ...], ranges: list[tuple[int, int]], fill) -> np.ndarray:
    """The array of shape (*shape, n) that ``fill(rows, start, stop)``
    writes, range by range, into ``rows[..., start:stop]``, for contiguous
    ``ranges`` that cover items 0 .. n - 1 (:func:`_path_ranges` or
    :func:`_trial_ranges`); n is the last range's stop.

    The array is one anonymous shared mapping at any number of ranges, so
    the number of usable CPUs decides only how many children run: a refused
    mapping is the same ``OSError`` (``errno.ENOMEM``) at one range as at
    several.  This process fills the first range, which holds path 0 of a
    run; a forked child fills each other range (:func:`_fork_ranges`).  A
    range whose child could not be forked or did not exit with 0 is filled
    again here, in range order, so an error is raised as a one-process run
    raises it: the first range's first.
    """
    size = (*shape, ranges[-1][1])
    rows = np.ndarray(size, buffer=mmap.mmap(-1, 8 * math.prod(size)))  # MAP_SHARED
    done = _fork_ranges(ranges, lambda start, stop: fill(rows, start, stop))
    for r in ranges[1:]:
        if r not in done:
            fill(rows, *r)
    return rows


def _price_blocks(price, s: Scenario, start: int, stop: int):
    """Natural prices of the scenario's contract and hedging assets on
    shared noise, for its paths start .. stop - 1, one block at a time,
    from ``price`` (:func:`exponential_prices` or an Euler integrator).

    Yields (first_path, counts, prices), with prices of shape
    (1 + n_hedging, paths, steps + 1) from one kernel call per block: row 0
    the contract, row k asset k.  A price that is not positive and finite
    raises :class:`PriceRangeError`, the contract's before asset k's and a
    lower path's before a higher one's.
    """
    specs = (s.natural_contract(), *s.natural_assets())
    coeffs = [natural_coefficients(spec, s.measure) for spec in specs]
    x0s = [spec.initial_price for spec in specs]
    names = ["contract", *(f"asset {k}" for k in range(1, len(specs)))]
    for first, dw, counts in _noise_blocks(s.measure, s.grid, s.seed, start, stop):
        yield first, counts, _checked_prices(price(coeffs, dw, counts, s.grid, x0s), names, first)


def _hedge(c: np.ndarray, a: np.ndarray, ratios) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Holdings phi^i = psi_i C_left / S^i_left of constant scaled ratios
    psi, with the residuals dV and the hedge gains they leave.

    Takes contract values (..., steps + 1) and asset values
    (n_hedging, ..., steps + 1), row k asset k + 1, as :func:`_price_blocks`
    yields them; returns phi (n_hedging, ..., steps), one row per asset,
    and dV and gains (..., steps).
    """
    psi = np.asarray(ratios, dtype=float)
    if psi.shape != a.shape[:1]:
        raise ValueError("need one ratio per hedging asset")
    # a tiny asset price overflows phi; _path_stats reports the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        # psi broadcasts over the leading asset axis: every row runs along the steps
        phi = c[..., :-1] / a[..., :-1]
        phi *= psi.reshape(psi.shape + (1,) * c.ndim)
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
            c0 * (c0 * (z * z).sum(axis=1)),
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
    of (specs, paths, steps + 1) prices, in ranges of whole blocks that may
    run in forked processes (:func:`_range_rows`); every reduction runs along
    one path's steps, so the results are deterministic in the seed and do
    not depend on the block size or the number of processes.
    """
    ratios = scenario_ratios(s)
    contract = s.natural_contract()
    assets = s.natural_assets()
    d_analytic = analytic_delta(contract, assets, ratios, s.measure, s.grid.horizon) if ratios is not None else None
    rho = scenario_rho(s)

    hedge_ratios = ratios if ratios is not None else (0.0,) * len(assets)
    steps = s.grid.steps
    golden = None

    def fill(columns: np.ndarray, start: int, stop: int) -> None:
        nonlocal golden
        for first, counts, prices in _price_blocks(exponential_prices, s, start, stop):
            c, a = prices[0], prices[1:]
            phi, dv, gains = _hedge(c, a, hedge_ratios)
            columns[:, first : first + len(dv)] = _path_stats(c, dv, first)
            if first == 0:
                # arrivals and the sum of their marks up to each grid time
                jump_count_path = np.zeros(steps + 1)
                np.cumsum(counts[0].sum(axis=1), out=jump_count_path[1:])
                jump_sum_path = np.zeros(steps + 1)
                np.cumsum(counts[0] @ s.measure.locations, out=jump_sum_path[1:])
                # path 0's rows as C-contiguous (steps + 1, n_hedging) copies, so
                # benchmark_holdings sums each grid time's assets as it always has
                # (pairwise from 8 assets); the holdings of t_{N-1} carry to t_N.
                # Every row is copied, so the golden path keeps no block alive
                asset_values = a[:, 0].T.copy()
                held = np.ascontiguousarray(np.vstack([phi[:, 0].T, phi[:, 0, -1]]))
                golden = GoldenPath(
                    times=s.grid.times,
                    jump_count_path=jump_count_path,
                    jump_sum_path=jump_sum_path,
                    contract_values=c[0].copy(),
                    asset_values=asset_values,
                    phi=held,
                    theta=benchmark_holdings(held, asset_values, gains[0]),
                    portfolio_values=portfolio_values(c[0], dv[0]),
                    residuals=dv[0].copy(),
                )

    columns = _range_rows((len(PATH_COLUMNS),), _path_ranges(s.n_paths, steps), fill)
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


# Most cells of the grid that one block of the brute-force sweep holds.
# A block is whole rows of the first ratio axis; in two-asset mode it sits
# in two float64 buffers of at most 512 KiB each, reused from block to
# block, so both stay in a core's 2 MiB L2 cache.  Measured on a 2-CPU Intel Xeon VM (NumPy 2.4) on
# fig3's 1001 x 1001 grid, median of 200 alternated calls: 2**12 cells
# 7.6 ms, 2**14 4.2 ms, 2**15 3.8 ms, 2**16 3.8 ms, 2**17 4.5 ms, 2**18
# 5.0 ms, and the whole grid in one block 11.6 ms (12.1 ms for the
# sparse-meshgrid expression it replaced).
_SWEEP_BLOCK_CELLS = 2**16

# Most cells a sweep accepts.  10**8 cells take 0.15-0.2 s on the same
# machine in two-asset mode (10**4 ratios per axis) and 0.7 s in single
# mode; a larger grid (a mistyped step, say) is rejected before any array
# is allocated, instead of running for minutes or hours.
_MAX_SWEEP_CELLS = 10**8


def _ratio_count(lo: float, hi: float, step: float, dims: int) -> int:
    """Number of ratios lo, lo + step, ... up to hi on each axis of a sweep
    over ``dims`` ratios; raises ValueError for a bound or a step that is
    not finite, a step that is not positive, hi < lo, or a grid of more
    than _MAX_SWEEP_CELLS cells."""
    for name, value in (("ratio_min", lo), ("ratio_max", hi), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step!r}")
    if hi < lo:
        raise ValueError(f"ratio_max {hi!r} is below ratio_min {lo!r}")
    spans = (hi - lo) / step  # inf when hi - lo overflows
    if spans >= _MAX_SWEEP_CELLS or (int(round(spans)) + 1) ** dims > _MAX_SWEEP_CELLS:
        raise ValueError(
            f"a sweep over [{lo!r}, {hi!r}] at step {step!r} in {dims} ratio(s) has more than "
            f"{_MAX_SWEEP_CELLS} cells; use a coarser step or a narrower range"
        )
    return int(round(spans)) + 1


def brute_force_constant_hedge(
    s: Scenario, ratio_min: float, ratio_max: float, step: float = 1e-3
) -> BruteForceResult:
    """Exhaustive sweep of the closed-form error over constant scaled ratios.

    Each traded asset's ratio (one in single mode, two in two-asset mode)
    is swept over ratio_min, ratio_min + step, ... up to ratio_max, and the
    error T C_0^2 c'Vc with c = (1, -psi) is evaluated on the grid of all
    of them.  This is the independent check that the closed-form hedges sit
    at the minimum: no solver output enters the sweep.

    The grid is evaluated in blocks of whole rows of the first ratio axis,
    at most _SWEEP_BLOCK_CELLS cells each (in two-asset mode in two buffers
    reused from block to block), so the sweep holds about 2 MiB at most,
    whatever the grid's size.  Every cell is computed by the same
    operations in the same order as on the whole grid at once, and the
    first minimum in C order wins, with a NaN before any number as in
    ``np.argmin``: the result is bitwise that of the whole grid.

    Raises ValueError for a mode other than single or two-asset, a bound or
    step that is not finite, a step that is not positive, ratio_max below
    ratio_min, and a grid of more than _MAX_SWEEP_CELLS cells.
    """
    if s.hedge_mode not in ("single", "two_asset"):
        raise ValueError("brute force sweep needs hedge_mode 'single' or 'two_asset'")
    traded, v = s.traded()
    n = _ratio_count(ratio_min, ratio_max, step, len(traded))
    c0 = s.natural_contract().initial_price
    scale = s.grid.horizon * c0 * c0
    # c'Vc = V_00 + psi_1 (psi_1 V_11 - 2 V_10)
    #             [+ psi_2 (psi_2 V_22 - 2 V_20) + 2 V_21 psi_2 psi_1],
    # row terms in psi_1, column terms in psi_2, added in this order
    two_asset = len(traded) == 2
    width = n if two_asset else 1
    block = max(1, _SWEEP_BLOCK_CELLS // width)
    if two_asset:
        psi_2 = ratio_min + step * np.arange(n)
        columns = psi_2 * (psi_2 * v[2, 2] - 2.0 * v[2, 0])
        cross = 2.0 * v[2, 1] * psi_2
        deltas = np.empty((min(block, n), n))
        products = np.empty_like(deltas)
    minima, cells = [], []
    for start in range(0, n, block):
        stop = min(start + block, n)
        psi_1 = ratio_min + step * np.arange(start, stop)[:, None]
        row = v[0, 0] + psi_1 * (psi_1 * v[1, 1] - 2.0 * v[1, 0])
        if two_asset:
            d = deltas[: stop - start]
            np.add(row, columns, out=d)
            p = products[: stop - start]
            np.multiply(cross, psi_1, out=p)
            d += p
        else:
            d = row
        d *= scale
        k = int(np.argmin(d))
        minima.append(d.flat[k])
        cells.append(start * width + k)
    b = int(np.argmin(minima))
    best = np.unravel_index(cells[b], (n,) * len(traded))
    ratios = np.zeros(len(s.hedging_assets))
    ratios[traded] = ratio_min + step * np.array(best)
    return BruteForceResult(tuple(ratios), float(minima[b]))
