"""Command-line front end: figures, hedge, simulate, verify.

Every command is deterministic given its configuration and seed; CSV output
uses '.' decimals, no thousands separators, and 17-significant-digit floats
so reruns are byte-identical.  The CSV bytes are those of '%.17g' for every
float: :mod:`levyhedge.csv_format` writes the numbers, formatting chunks of
rows in NumPy (a long table's ranges of chunks in forked processes), and is
imported by the first command that writes a CSV.
:mod:`levyhedge.verification` holds the property suites and checks their
names, seeds and path counts; only ``verify`` imports it.
Each output directory receives an ``effective_config.json`` that reruns to
identical outputs via ``--config``.

Exit codes: 0 success, 2 configuration error (an allocation the system
refuses included), 3 degenerate hedge system, 4 property or numerical
failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .hedging import _gram_report, DegeneracyError, analytic_delta, benchmark_holdings
from .market import GeometricBernoulliSpec
from .levy_core import IntegrationError, JumpAtom, LevyMeasure, TimeGrid
from .sim_harness import (
    DEFAULT_SEED,
    FIGURE_NAMES,
    PATH_COLUMNS,
    GoldenPath,
    Scenario,
    ScenarioResult,
    builtin_scenario,
    run_scenario,
    scenario_ratios,
    scenario_rho,
    with_overrides,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_PROPERTY = 4
EXIT_IO = 5

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Configuration rejected before execution."""


@contextmanager
def _config_errors(where: str = ""):
    """Report a value that a model type rejects as a configuration error,
    prefixed with the JSON path ``where`` of the object it came from."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def _check_object(obj, required: set[str], where: str, optional: set[str] = frozenset()) -> None:
    """Reject ``obj`` unless it is a JSON object with every required key and no unknown one."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {', '.join(sorted(missing))}")


def _check_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise ConfigError(f"{where} must be a list")
    return obj


def _build(cls, obj, where: str):
    """``cls(**obj)`` from a JSON object holding exactly the fields of ``cls``."""
    _check_object(obj, {f.name for f in fields(cls)}, where)
    with _config_errors(where):
        return cls(**obj)


def _build_measure(obj, where: str) -> LevyMeasure:
    _check_object(obj, {"atoms"}, where)
    atoms = _check_list(obj["atoms"], f"{where}.atoms")
    atoms = tuple(_build(JumpAtom, atom, f"{where}.atoms[{i}]") for i, atom in enumerate(atoms))
    with _config_errors(where):
        return LevyMeasure(atoms)


_SCENARIO_OVERRIDES = {"n_paths", "seed", "steps", "hedge_mode", "hedge_asset_index"}
_SCENARIO_REQUIRED = {"measure", "contract", "hedging_assets", "horizon", "steps", "n_paths", "seed", "hedge_mode"}


def build_scenario(obj) -> Scenario:
    """Scenario from its JSON form; unknown keys are rejected.

    This checks the shape of the JSON only; the model types check every value.
    """
    if isinstance(obj, dict) and "name" in obj:
        _check_object(obj, {"name"}, "scenario", _SCENARIO_OVERRIDES)
        with _config_errors():
            return builtin_scenario(**obj)

    _check_object(obj, _SCENARIO_REQUIRED, "scenario", {"kernel", "hedge_asset_index"})
    # effective_config.json files written before scenarios lost their kernel carry "kernel": null
    if obj.get("kernel") is not None:
        raise ConfigError("scenario.kernel must be null: scenarios run in benchmark units, with no pricing kernel")
    measure = _build_measure(obj["measure"], "scenario.measure")
    contract = _build(GeometricBernoulliSpec, obj["contract"], "scenario.contract")
    assets = _check_list(obj["hedging_assets"], "scenario.hedging_assets")
    assets = tuple(_build(GeometricBernoulliSpec, a, f"scenario.hedging_assets[{i}]") for i, a in enumerate(assets))
    with _config_errors():
        return Scenario(
            measure=measure,
            contract=contract,
            hedging_assets=assets,
            grid=TimeGrid(obj["horizon"], obj["steps"]),
            n_paths=obj["n_paths"],
            seed=obj["seed"],
            hedge_mode=obj["hedge_mode"],
            hedge_asset_index=obj.get("hedge_asset_index", 0),
        )


def scenario_to_config(s: Scenario) -> dict:
    """JSON form of ``s``, the inverse of :func:`build_scenario`."""
    return {
        "measure": {"atoms": [asdict(a) for a in s.measure.atoms]},
        "contract": asdict(s.contract),
        "hedging_assets": [asdict(a) for a in s.hedging_assets],
        "horizon": s.grid.horizon,
        "steps": s.grid.steps,
        "n_paths": s.n_paths,
        "seed": s.seed,
        "hedge_mode": s.hedge_mode,
        "hedge_asset_index": s.hedge_asset_index,
    }


def _given_overrides(values: dict) -> dict:
    """Scenario fields from the "paths", "seed" and "steps" entries of
    ``values`` (parsed flags or a figures config); an absent or None entry
    is not given."""
    names = {"paths": "n_paths", "seed": "seed", "steps": "steps"}
    return {field: values[key] for key, field in names.items() if values.get(key) is not None}


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except ValueError as exc:  # malformed JSON or UTF-8, or an integer literal too long to convert
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    if type(obj.get("schema_version")) is not int or obj["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
    if not isinstance(obj.get("out_dir", ""), (str, type(None))):
        raise ConfigError("config out_dir must be a string")
    return obj


def _write_csv(path: Path, header: Sequence[str], columns: np.ndarray, blank_first: bool = False) -> None:
    """Write ``header`` and the rows of ``columns`` to a new CSV file at
    ``path`` through :func:`csv_format.write_csv`."""
    from .csv_format import write_csv  # loaded by the first write, not by every start

    write_csv(path, header, columns, blank_first)


def _dump_config(cfg: dict, out_dir: Path) -> None:
    path = out_dir / "effective_config.json"
    path.unlink(missing_ok=True)  # a new file, as in _write_csv
    path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n")


def _write_run(out: str, scenario: Scenario, tables: dict) -> Path:
    """Write each CSV table (file name -> :func:`_write_csv` arguments) into
    the output directory ``out``, then the effective_config.json that reruns
    ``scenario``."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        _write_csv(out_dir / name, *table)
    _dump_config(
        {"schema_version": SCHEMA_VERSION, "scenario": scenario_to_config(scenario), "out_dir": str(out_dir)},
        out_dir,
    )
    return out_dir


# ----------------------------------------------------------------------------
# figure emission


def _figure_csv(name: str, result: ScenarioResult) -> tuple[list[str], np.ndarray, bool]:
    """Header, (steps + 1, width) columns and ``blank_first`` of a figure's
    CSV; the hedge figures leave dV blank on the first row."""
    g: GoldenPath = result.golden
    if name == "fig1":
        header = ["t", "N_t", "X_t", "C", "S1", "S2"]
        columns = np.column_stack(
            [g.times, g.jump_count_path, g.jump_sum_path, g.contract_values, g.asset_values[:, :2]]
        )
        return header, columns, False

    n_hedging = g.asset_values.shape[1]
    header = (
        ["t", "C"]
        + [f"S{j + 1}" for j in range(n_hedging)]
        + [f"phi{j + 1}" for j in range(n_hedging)]
        + ["theta", "V", "dV"]
    )
    columns = np.column_stack(
        [
            g.times,
            g.contract_values,
            g.asset_values,
            g.phi,
            g.theta,
            g.portfolio_values,
            np.append(0.0, g.residuals),  # row 0 is written blank
        ]
    )
    return header, columns, True


def cmd_figures(args) -> int:
    cfg = {}
    if args.config:
        cfg = _load_json(args.config)
        keys = {"schema_version", "command", "figures", "seed", "paths", "steps", "out_dir"}
        _check_object(cfg, set(), "config", keys)
        if cfg.get("command") != "figures":
            raise ConfigError("config command must be 'figures'")
        figures = cfg.get("figures", [])
        if not (isinstance(figures, list) and all(isinstance(name, str) for name in figures)):
            raise ConfigError("figures must be a list of figure names")
    names = list(args.names) or cfg.get("figures") or list(FIGURE_NAMES)
    # each of --paths, --seed, --steps: the flag, else the config key, else the default
    overrides = {"n_paths": 1, "seed": DEFAULT_SEED, **_given_overrides(cfg), **_given_overrides(vars(args))}
    # a rejected name or override is reported before any output directory exists
    with _config_errors():
        scenarios = [builtin_scenario(name, **overrides) for name in names]
    out_dir = Path(args.out or cfg.get("out_dir") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    effective = {
        "schema_version": SCHEMA_VERSION,
        "command": "figures",
        "figures": names,
        "seed": overrides["seed"],
        "paths": overrides["n_paths"],
        "steps": scenarios[0].grid.steps,
        "out_dir": str(out_dir),
    }
    for name, scenario in zip(names, scenarios):
        result = run_scenario(scenario)
        _write_csv(out_dir / f"{name}.csv", *_figure_csv(name, result))
        print(f"wrote {out_dir / (name + '.csv')}")
    _dump_config(effective, out_dir)
    return EXIT_OK


# ----------------------------------------------------------------------------
# hedge


def _scenario_from_args(args) -> Scenario:
    if args.config and args.scenario:
        raise ConfigError("give either a scenario name or --config, not both")
    if args.config:
        cfg = _load_json(args.config)
        _check_object(cfg, {"scenario"}, "config", {"schema_version", "out_dir"})
        scenario = build_scenario(cfg["scenario"])
        if args.out is None and cfg.get("out_dir") is not None:
            args.out = cfg["out_dir"]
    elif args.scenario:
        with _config_errors():
            scenario = builtin_scenario(args.scenario)
    else:
        raise ConfigError("a scenario name or --config is required")
    with _config_errors():
        return with_overrides(scenario, **_given_overrides(vars(args)))


def cmd_hedge(args) -> int:
    scenario = _scenario_from_args(args)
    contract = scenario.natural_contract()
    assets = scenario.natural_assets()
    ratios = scenario_ratios(scenario)
    # finite: Scenario checked the no-hedge error horizon * C0^2 * V[0, 0]
    d_zero = analytic_delta(contract, assets, [0.0] * len(assets), scenario.measure, scenario.grid.horizon)

    print(f"hedge mode: {scenario.hedge_mode}")
    if ratios is None:
        print("no hedge requested; expected squared error:", f"{d_zero:.10g}")
        if args.out:
            _write_run(args.out, scenario, {})
        return EXIT_OK

    prices = np.array([a.initial_price for a in assets])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        # as sim_harness._hedge forms the golden path's first row, bit for bit
        phi = np.asarray(ratios) * (contract.initial_price / prices)
        theta0 = float(benchmark_holdings(phi[None], prices[None], ())[0])
    for i, units in enumerate(phi, start=1):
        if not np.isfinite(units):
            price = assets[i - 1].initial_price
            raise IntegrationError(0, f"phi_{i} of asset {i} at initial_price {price!r} overflows to {units}")
    if not np.isfinite(theta0):
        raise IntegrationError(0, f"theta_0 overflows to {theta0}")
    d_hat = analytic_delta(contract, assets, ratios, scenario.measure, scenario.grid.horizon)
    # the degeneracy of the traded assets' Gram block, which the solve inverts
    report = _gram_report(scenario.traded()[1][1:, 1:])

    for i, (psi, units) in enumerate(zip(ratios, phi), start=1):
        print(f"phi_{i}: {units:.10g}  (scaled ratio psi_{i} = {psi:.10g})")
    print(f"theta_0: {theta0:.10g}")
    if scenario.hedge_mode == "single":
        rho = scenario_rho(scenario)
        print("rho: undefined" if rho is None else f"rho: {rho:.10g}")
    print(f"analytic delta: {d_hat:.10g}")
    print(f"no-hedge delta: {d_zero:.10g}")
    if d_zero > 0.0:
        print(f"variance reduction: {1.0 - d_hat / d_zero:.10g}")
    print(
        "degeneracy: min_eigenvalue={:.6g} condition_number={:.6g} degenerate={}".format(
            report.min_eigenvalue, report.condition_number, report.degenerate
        )
    )

    if args.out:
        columns = np.column_stack([np.arange(1, len(assets) + 1), ratios, phi, prices])
        _write_run(args.out, scenario, {"hedge.csv": (["asset", "psi", "phi", "S0"], columns)})
    return EXIT_OK


# ----------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    scenario = _scenario_from_args(args)
    result = run_scenario(scenario)
    agg = result.aggregate
    print(f"scenario: hedge_mode={scenario.hedge_mode} paths={scenario.n_paths} steps={scenario.grid.steps} seed={scenario.seed}")
    if result.ratios is not None:
        print("scaled ratios:", " ".join(f"{r:.10g}" for r in result.ratios))
    if result.delta_analytic is not None:
        print(f"analytic delta: {result.delta_analytic:.10g}")
    if result.rho is not None:
        print(f"rho: {result.rho:.10g}")
    print(f"mean delta (terminal): {agg.mean_delta:.10g}")
    print(f"mean delta (integrated): {agg.mean_delta_integrated:.10g}")
    print(f"mean delta (normalized): {agg.mean_delta_normalized:.10g}")
    print(f"per-step residual std: {agg.residual_std:.10g}")
    print(f"max |dV|: {agg.max_abs_residual:.10g}")

    if args.out:
        columns = np.column_stack([np.arange(scenario.n_paths), result.path_stats])
        tables = {"paths.csv": (["path_index", *PATH_COLUMNS], columns), "golden_path.csv": _figure_csv("golden", result)}
        out_dir = _write_run(args.out, scenario, tables)
        print(f"wrote {out_dir / 'paths.csv'} and {out_dir / 'golden_path.csv'}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from . import verification  # loaded by verify, not by every start

    seed = DEFAULT_SEED if args.seed is None else args.seed
    # the suite name, seed and path count are checked where the suites live;
    # a ValueError from a running suite is not a configuration error
    with _config_errors():
        verification._check_inputs(args.suite, seed, args.paths)
    results = verification.run_suite(args.suite, seed=seed, n_paths=args.paths)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_PROPERTY


# ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyhedge",
        description="Simulate jump-diffusion markets and compute optimal quadratic hedges in benchmark units.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--paths", type=int, help="number of Monte Carlo paths")
        p.add_argument("--steps", type=int, help="grid steps over the horizon")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("figures", help="write per-figure CSV data for the built-in scenarios")
    p.add_argument("names", nargs="*", help=f"figure names ({', '.join(FIGURE_NAMES)}); default all")
    common(p)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("hedge", help="print the optimal hedge for a scenario at time 0")
    p.add_argument("scenario", nargs="?", help=f"built-in scenario name ({', '.join(FIGURE_NAMES)})")
    common(p)
    p.set_defaults(func=cmd_hedge)

    p = sub.add_parser("simulate", help="run the Monte Carlo hedge experiment for a scenario")
    p.add_argument("scenario", nargs="?", help=f"built-in scenario name ({', '.join(FIGURE_NAMES)})")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("suite", help="property suite name, or all")
    p.add_argument("--seed", type=int)
    p.add_argument("--paths", type=int, help="Monte Carlo paths per check (suite default if omitted)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegeneracyError as exc:
        print(f"degenerate hedge system: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(
                f"min_eigenvalue={exc.report.min_eigenvalue:.6g} degenerate={exc.report.degenerate}",
                file=sys.stderr,
            )
        return EXIT_DEGENERATE
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (MemoryError, OSError) as exc:
        if isinstance(exc, OSError) and exc.errno != errno.ENOMEM:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        # a refused allocation (NumPy's, or a shared mapping's): a run too
        # large for this machine, rejected as a count above _MAX_PATHS is
        print(
            f"configuration error: cannot allocate memory for this run ({exc}); use fewer paths or steps", file=sys.stderr
        )
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
