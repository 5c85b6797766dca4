import contextlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyhedge import cli, sim_harness
from levyhedge.levy_core import JumpAtom, LevyMeasure, TimeGrid
from levyhedge.market import GeometricBernoulliSpec
from levyhedge.sim_harness import Scenario


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "levyhedge", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def read_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def read_csv_bytes(path: Path) -> dict[str, bytes]:
    # the effective config embeds its own out_dir, so cross-directory
    # comparisons look at the data files only
    return {k: v for k, v in read_bytes(path).items() if k.endswith(".csv")}


def test_help_runs():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "figures" in cp.stdout and "verify" in cp.stdout


# ---------------------------------------------------------------- figures


def test_figures_fig1_schema(tmp_path: Path):
    cp = run_cli("figures", "fig1", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    lines = (tmp_path / "fig1.csv").read_text().splitlines()
    assert lines[0] == "t,N_t,X_t,C,S1,S2"
    assert len(lines) == 1 + 1001
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "100"


def test_figures_hedging_schema_and_empty_first_dv(tmp_path: Path):
    cp = run_cli("figures", "fig3", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    assert lines[0] == "t,C,S1,S2,phi1,phi2,theta,V,dV"
    assert lines[1].endswith(",")  # dV empty on the first row
    assert lines[2].split(",")[-1] != ""
    assert len(lines) == 1 + 1001


def test_figures_rerun_is_byte_identical(tmp_path: Path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("figures", "fig2a", "fig4", "--out", str(a)).returncode == 0
    assert run_cli("figures", "fig2a", "fig4", "--out", str(b)).returncode == 0
    assert read_csv_bytes(a) == read_csv_bytes(b)
    # rerunning into the same directory reproduces every byte, config included
    snapshot = read_bytes(a)
    assert run_cli("figures", "fig2a", "fig4", "--out", str(a)).returncode == 0
    assert read_bytes(a) == snapshot


def test_figures_config_round_trip(tmp_path: Path):
    out = tmp_path / "figs"
    assert run_cli("figures", "fig1", "--seed", "77", "--out", str(out)).returncode == 0
    snapshot = read_bytes(out)
    cfg = out / "effective_config.json"
    assert cfg.exists()
    # rerun purely from the emitted config: identical bytes, config included
    cp = run_cli("figures", "--config", str(cfg))
    assert cp.returncode == 0, cp.stderr
    assert read_bytes(out) == snapshot


def test_figures_unknown_name_is_config_error(tmp_path: Path):
    cp = run_cli("figures", "fig7", "--out", str(tmp_path))
    assert cp.returncode == 2
    assert "fig7" in cp.stderr


def test_figures_bad_override_leaves_no_output_dir(tmp_path: Path):
    out = tmp_path / "figs"
    cp = run_cli("figures", "fig1", "--seed", "-5", "--out", str(out))
    assert cp.returncode == 2, cp.stderr
    assert "Traceback" not in cp.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "entry",
    [{"seed": "5"}, {"paths": 1.5}, {"steps": True}, {"seed": True}, {"figures": "fig1"}, {"out_dir": 5}],
    ids=["seed-string", "paths-float", "steps-bool", "seed-bool", "figures-string", "out_dir-number"],
)
def test_figures_config_bad_value_is_config_error(tmp_path: Path, capsys, entry):
    out = tmp_path / "figs"
    cfg = {"schema_version": 1, "command": "figures", "figures": ["fig1"], "out_dir": str(out), **entry}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["figures", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------- hedge


def test_hedge_prints_single_asset_ratio():
    cp = run_cli("hedge", "fig2a")
    assert cp.returncode == 0, cp.stderr
    assert "phi_1: 0.8244822565" in cp.stdout
    assert "rho: 0.9992039046" in cp.stdout
    assert "degenerate=False" in cp.stdout


def test_hedge_contract_duplicated_as_asset(tmp_path: Path):
    spec = {"initial_price": 100.0, "brownian_vol": 0.15, "jump_exponent": 0.25}
    cfg = {
        "schema_version": 1,
        "scenario": {
            "measure": {"atoms": [{"location": 1.0, "intensity": 7.5}, {"location": -1.0, "intensity": 7.5}]},
            "contract": spec,
            "hedging_assets": [spec],
            "horizon": 1.0,
            "steps": 1000,
            "n_paths": 1,
            "seed": 5,
            "hedge_mode": "single",
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    cp = run_cli("hedge", "--config", str(path))
    assert cp.returncode == 0, cp.stderr
    assert "phi_1: 1 " in cp.stdout or "phi_1: 1\n" in cp.stdout
    assert "analytic delta: 0\n" in cp.stdout


def test_hedge_duplicated_assets_exit_degenerate(tmp_path: Path):
    spec = {"initial_price": 100.0, "brownian_vol": 0.2, "jump_exponent": 0.3}
    cfg = {
        "schema_version": 1,
        "scenario": {
            "measure": {"atoms": [{"location": 1.0, "intensity": 7.5}, {"location": -1.0, "intensity": 7.5}]},
            "contract": {"initial_price": 100.0, "brownian_vol": 0.15, "jump_exponent": 0.25},
            "hedging_assets": [spec, spec],
            "horizon": 1.0,
            "steps": 1000,
            "n_paths": 1,
            "seed": 5,
            "hedge_mode": "multi",
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    cp = run_cli("hedge", "--config", str(path))
    assert cp.returncode == 3
    assert "degenerate" in cp.stderr


def _single_mode_config(tmp_path: Path, contract: dict, **scenario) -> Path:
    """Config file hedging ``contract`` with fig2a's asset on fig2a's measure;
    ``scenario`` replaces entries of the scenario."""
    cfg = {
        "schema_version": 1,
        "scenario": {
            "measure": {"atoms": [{"location": 1.0, "intensity": 7.5}, {"location": -1.0, "intensity": 7.5}]},
            "contract": contract,
            "hedging_assets": [{"initial_price": 100.0, "brownian_vol": 0.2, "jump_exponent": 0.3}],
            "horizon": 1.0,
            "steps": 100,
            "n_paths": 4,
            "seed": 5,
            "hedge_mode": "single",
            **scenario,
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("command", ["simulate", "hedge"])
def test_overflowing_jump_exponent_is_config_error(tmp_path: Path, command):
    # exp(800) - 1 overflows to inf: no jump volatility exists for it
    path = _single_mode_config(tmp_path, {"initial_price": 100.0, "brownian_vol": 0.15, "jump_exponent": 800})
    cp = run_cli(command, "--config", str(path))
    assert cp.returncode == 2, cp.stderr
    assert "Traceback" not in cp.stderr
    assert cp.stderr.startswith("configuration error:") and "jump_exponent" in cp.stderr


@pytest.mark.parametrize("command", ["simulate", "hedge"])
@pytest.mark.parametrize(
    "contract, field",
    [
        # horizon * C_0^2 overflows the squared-error scale
        ({"initial_price": 1e308, "brownian_vol": 0.15, "jump_exponent": 0.25}, "initial_price"),
        # sigma^2 overflows the volatility Gram matrix
        ({"initial_price": 100.0, "brownian_vol": 1e200, "jump_exponent": 0.25}, "brownian_vol"),
        # the Gram matrix is finite, but not horizon * C_0^2 * V[0, 0]
        ({"initial_price": 100.0, "brownian_vol": 1e154, "jump_exponent": 0.25}, "brownian_vol"),
    ],
    ids=["initial_price-1e308", "brownian_vol-1e200", "brownian_vol-1e154"],
)
def test_overflowing_error_scale_is_config_error(tmp_path: Path, capsys, command, contract, field):
    path = _single_mode_config(tmp_path, contract)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is detected without a warning
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1 and field in err
    assert not out.exists()


@pytest.mark.parametrize(
    "initial_price, message",
    [
        # C_0^2 * 3.4 overflows the squared error of a path
        (1e154, "on path 1 overflows to inf"),
        # every path's statistics are finite, but not their sum over the paths
        (6.9e153, "mean_delta_integrated over 4 paths overflows to inf"),
    ],
    ids=["path", "aggregate"],
)
def test_overflowing_statistics_exit_numerical_failure(tmp_path: Path, capsys, initial_price, message):
    contract = {"initial_price": initial_price, "brownian_vol": 0.15, "jump_exponent": 0.25}
    path = _single_mode_config(tmp_path, contract, hedge_mode="none")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is detected without a warning
        assert cli.main(["simulate", "--config", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure:") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("command, code", [("hedge", 0), ("simulate", 4)])
def test_huge_contract_price_over_a_tiny_horizon(tmp_path: Path, capsys, command, code):
    # C_0^2 overflows alone, but horizon * C_0 * C_0 = 1e306 does not: the
    # closed-form error is formed in that order, so hedge runs, and the
    # paths' overflowing statistics exit 4 with one line
    contract = {"initial_price": 1e308, "brownian_vol": 0.1, "jump_exponent": 0.0}
    asset = {"initial_price": 1e308, "brownian_vol": 0.2, "jump_exponent": 0.3}
    path = _single_mode_config(tmp_path, contract, hedging_assets=[asset], horizon=1e-310)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", str(path)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and "no-hedge delta: 1e+304\n" in out
    else:
        assert out == "" and err.startswith("numerical failure:") and err.count("\n") == 1


def test_overflowing_asset_prices_exit_without_a_warning(tmp_path: Path):
    contract = {"initial_price": 100.0, "brownian_vol": 0.15, "jump_exponent": 0.25}
    asset = {"initial_price": 1e308, "brownian_vol": 0.2, "jump_exponent": 0.3}
    path = _single_mode_config(tmp_path, contract, hedging_assets=[asset])
    cmd = [sys.executable, "-W", "error", "-m", "levyhedge", "simulate", "--config", str(path)]
    cp = subprocess.run(cmd, capture_output=True, text=True)
    assert cp.returncode == 4, cp.stderr
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: asset 1 price inf on path")


def test_overflowing_holdings_in_simulate_exit_without_a_warning(tmp_path: Path):
    # phi = psi C / S overflows at an asset price of 1e-307; the statistics report it
    contract = {"initial_price": 100.0, "brownian_vol": 0.15, "jump_exponent": 0.25}
    asset = {"initial_price": 1e-307, "brownian_vol": 0.2, "jump_exponent": 0.3}
    path = _single_mode_config(tmp_path, contract, hedging_assets=[asset])
    cp = run_cli("simulate", "--config", str(path))
    assert cp.returncode == 4, cp.stderr
    assert cp.stdout == ""
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0] == "numerical failure: delta_terminal on path 0 overflows to nan"


def _overflowing_theta_config(tmp_path: Path) -> Path:
    """Multi-mode config whose holdings phi = (0.95, 0.95) are finite but
    whose benchmark units theta_0 = sum_i phi_i S^i_0 overflow: the contract
    moves like 0.95 units of each of two orthogonal assets priced at 1e308."""
    contract = {"initial_price": 1e308, "brownian_vol": 0.19, "jump_exponent": float(np.log1p(0.95 * np.expm1(0.3)))}
    assets = [
        {"initial_price": 1e308, "brownian_vol": 0.2, "jump_exponent": 0.0},
        {"initial_price": 1e308, "brownian_vol": 0.0, "jump_exponent": 0.3},
    ]
    measure = {"atoms": [{"location": 1.0, "intensity": 7.5}]}
    return _single_mode_config(
        tmp_path, contract, hedging_assets=assets, measure=measure, horizon=1e-310, hedge_mode="multi"
    )


@pytest.mark.parametrize(
    "asset_price, message",
    [
        (1e-307, "numerical failure: phi_1 of asset 1 at initial_price 1e-307 overflows to inf"),
        (None, "numerical failure: theta_0 overflows to inf"),
    ],
    ids=["phi", "theta"],
)
def test_overflowing_hedge_holdings_exit_numerical_failure(tmp_path: Path, capsys, asset_price, message):
    if asset_price is None:
        path = _overflowing_theta_config(tmp_path)
    else:
        contract = {"initial_price": 100.0, "brownian_vol": 0.15, "jump_exponent": 0.25}
        asset = {"initial_price": asset_price, "brownian_vol": 0.2, "jump_exponent": 0.3}
        path = _single_mode_config(tmp_path, contract, hedging_assets=[asset])
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is detected without a warning
        assert cli.main(["hedge", "--config", str(path), "--out", str(out)]) == 4
    stdout, err = capsys.readouterr()
    assert "inf" not in stdout
    assert err.splitlines() == [message]
    assert not out.exists()


def test_hedge_degeneracy_line_describes_the_traded_assets(tmp_path: Path, capsys):
    # single mode trades the first asset only: an identical second asset
    # makes the full Gram matrix singular but not the traded block
    contract = {"initial_price": 100.0, "brownian_vol": 0.15, "jump_exponent": 0.25}
    asset = {"initial_price": 100.0, "brownian_vol": 0.2, "jump_exponent": 0.3}
    path = _single_mode_config(tmp_path, contract, hedging_assets=[asset, asset])
    assert cli.main(["hedge", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # fig2a hedges the same contract with the same asset
    assert cli.main(["hedge", "fig2a"]) == 0
    fig2a = capsys.readouterr().out.splitlines()
    assert lines[-1] == fig2a[-1] == "degeneracy: min_eigenvalue=1.46182 condition_number=1 degenerate=False"


def test_jump_rate_beyond_the_poisson_sampler_is_config_error(tmp_path: Path):
    # 1e299 expected arrivals per step: NumPy's Poisson sampler takes at most ~9.2e18
    contract = {"initial_price": 100.0, "brownian_vol": 0.15, "jump_exponent": 0.25}
    measure = {"atoms": [{"location": 1.0, "intensity": 7.5}, {"location": -1.0, "intensity": 1e300}]}
    path = _single_mode_config(tmp_path, contract, measure=measure, steps=10)
    cp = run_cli("simulate", "--config", str(path))
    assert cp.returncode == 2, cp.stderr
    assert "Traceback" not in cp.stderr and cp.stderr.count("\n") == 1
    assert cp.stderr.startswith("configuration error: atom 1 (location -1.0)")


@pytest.mark.parametrize("command", ["simulate", "hedge"])
def test_zero_volatility_contract_hedges_with_undefined_rho(tmp_path: Path, command):
    # the optimal hedge of a constant contract is psi = 0; only rho = L^2/(KM) is undefined
    path = _single_mode_config(tmp_path, {"initial_price": 100.0, "brownian_vol": 0.0, "jump_exponent": 0.0})
    cp = run_cli(command, "--config", str(path))
    assert cp.returncode == 0, cp.stderr
    assert "Traceback" not in cp.stderr
    if command == "hedge":
        assert "psi_1 = 0)" in cp.stdout
        assert "rho: undefined" in cp.stdout
    else:
        assert "scaled ratios: 0\n" in cp.stdout
        assert "rho:" not in cp.stdout


def test_unknown_config_key_is_rejected(tmp_path: Path):
    cfg = {
        "schema_version": 1,
        "scenario": {"name": "fig2a", "typo_key": 1},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    cp = run_cli("hedge", "--config", str(path))
    assert cp.returncode == 2
    assert "typo_key" in cp.stderr


def test_bad_schema_version_rejected(tmp_path: Path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 2, "scenario": {"name": "fig1"}}))
    assert run_cli("simulate", "--config", str(path)).returncode == 2


@pytest.mark.parametrize(
    "text",
    [
        b'{"schema_version": 1, "scenario": {"name": "fig1", "seed": ' + b"1" * 5000 + b"}}",
        b'{"schema_version": 1, "scenario": {"name": "fig\xe9"}}',
    ],
    ids=["integer-literal-too-long", "not-utf8"],
)
def test_unreadable_config_is_config_error(tmp_path: Path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert cli.main(["hedge", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: config is not valid JSON") and err.count("\n") == 1


# ---------------------------------------------------------------- simulate


def test_simulate_emits_recomputable_aggregates(tmp_path: Path):
    n_paths, steps = 40, 1000
    cp = run_cli("simulate", "fig2a", "--paths", str(n_paths), "--seed", "11", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    lines = (tmp_path / "paths.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "path_index" and "delta_terminal" in header
    assert len(lines) == 1 + n_paths
    rows = [dict(zip(header, (float(v) for v in row.split(",")))) for row in lines[1:]]

    def printed(label):
        line = next(l for l in cp.stdout.splitlines() if l.startswith(label))
        return float(line.split(":")[1])

    # every printed aggregate is recomputable from the per-path rows
    assert printed("mean delta (terminal):") == pytest.approx(
        sum(r["delta_terminal"] for r in rows) / n_paths, rel=1e-9
    )
    total = n_paths * steps
    mean_dv = sum(r["residual_sum"] for r in rows) / total
    pooled = (sum(r["delta_integrated"] for r in rows) / total - mean_dv**2) ** 0.5
    assert printed("per-step residual std:") == pytest.approx(pooled, rel=1e-9)
    assert printed("max |dV|:") == pytest.approx(max(r["max_abs_residual"] for r in rows), rel=1e-9)
    assert (tmp_path / "golden_path.csv").exists()


def test_simulate_rerun_identical_and_config_round_trip(tmp_path: Path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "fig3", "--paths", "10", "--out", str(a)).returncode == 0
    assert run_cli("simulate", "fig3", "--paths", "10", "--out", str(b)).returncode == 0
    assert read_csv_bytes(a) == read_csv_bytes(b)
    snapshot = read_bytes(a)
    cp = run_cli("simulate", "--config", str(a / "effective_config.json"), "--out", str(a))
    assert cp.returncode == 0, cp.stderr
    assert read_bytes(a) == snapshot


def test_configs_with_a_null_kernel_still_rerun(tmp_path: Path, capsys):
    # effective_config.json files written before scenarios lost their kernel
    # carry "kernel": null; they rerun to the same bytes
    a, c = tmp_path / "a", tmp_path / "c"
    assert cli.main(["simulate", "fig3", "--paths", "6", "--steps", "300", "--out", str(a)]) == 0
    cfg = json.loads((a / "effective_config.json").read_text())
    assert "kernel" not in cfg["scenario"]
    cfg["scenario"]["kernel"] = None
    path = tmp_path / "with_null_kernel.json"
    path.write_text(json.dumps(cfg, sort_keys=True, indent=2))
    assert cli.main(["simulate", "--config", str(path), "--out", str(c)]) == 0
    for name in ("paths.csv", "golden_path.csv"):
        assert (c / name).read_bytes() == (a / name).read_bytes()
    capsys.readouterr()

    # a kernel is a configuration error: scenarios run in benchmark units
    cfg["scenario"]["kernel"] = {"short_rate": 0.02, "brownian_mpr": 0.1, "jump_mpr": [0.0, 0.0]}
    path.write_text(json.dumps(cfg))
    cp = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "k"))
    assert cp.returncode == 2
    assert cp.stderr.splitlines() == [
        "configuration error: scenario.kernel must be null: scenarios run in benchmark units, with no pricing kernel"
    ]
    assert not (tmp_path / "k").exists()


def test_simulate_out_path_collision_is_io_error(tmp_path: Path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    cp = run_cli("simulate", "fig2a", "--paths", "2", "--out", str(blocker))
    assert cp.returncode == 5


@pytest.mark.parametrize(
    "args, scenario",
    [
        (["fig3", "--paths", "0"], None),
        (["fig3", "--steps", "0"], None),
        (["fig3", "--seed", "-5"], None),
        ([], {"name": "fig3", "seed": -1}),
    ],
    ids=["paths-0", "steps-0", "seed-negative", "config-seed-negative"],
)
def test_simulate_bad_override_is_config_error(tmp_path: Path, args, scenario):
    if scenario is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "scenario": scenario}))
        args = ["--config", str(path)]
    cp = run_cli("simulate", *args)
    assert cp.returncode == 2, cp.stderr
    assert "Traceback" not in cp.stderr
    assert cp.stderr.startswith("configuration error:")


def test_steps_above_the_limit_are_rejected_before_simulating(tmp_path: Path, monkeypatch, capsys):
    limit = sim_harness._MAX_STEPS

    def never(*args, **kwargs):
        raise AssertionError("a scenario past the steps limit reached the simulation")

    # nothing may be allocated for such a grid: fail loudly instead
    monkeypatch.setattr(cli, "run_scenario", never)
    full = cli.scenario_to_config(sim_harness.builtin_scenario("fig3"))
    for i, scenario in enumerate(({"name": "fig3", "steps": limit + 1}, {**full, "steps": 2_000_000_000})):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps({"schema_version": 1, "scenario": scenario}))
        assert cli.main(["simulate", "--config", str(path)]) == 2
    for command in ("simulate", "hedge", "figures"):
        assert cli.main([command, "fig3", "--steps", "2000000000", "--out", str(tmp_path / command)]) == 2
        assert not (tmp_path / command).exists()
    err = capsys.readouterr().err
    assert err.count(f"steps must be at most {limit}") == 5
    assert "Traceback" not in err


@pytest.mark.parametrize("n_paths", [2**63, 10**400], ids=["2**63", "10**400"])
def test_paths_above_the_limit_are_config_errors(tmp_path: Path, capsys, n_paths):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "scenario": {"name": "fig3", "n_paths": n_paths}}))
    assert cli.main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: n_paths must be at most {sim_harness._MAX_PATHS}, got ")
    assert err.count("\n") == 1


def test_simulate_underflowing_prices_exit_numerical_failure(tmp_path: Path):
    # a contract volatility of 40 drives exp(-sigma^2 t / 2 + sigma W_t) below
    # the smallest float within the horizon, so prices underflow to zero
    cfg = {
        "schema_version": 1,
        "scenario": {
            "measure": {"atoms": [{"location": 1.0, "intensity": 7.5}, {"location": -1.0, "intensity": 7.5}]},
            "contract": {"initial_price": 100.0, "brownian_vol": 40, "jump_exponent": 0.25},
            "hedging_assets": [{"initial_price": 100.0, "brownian_vol": 0.2, "jump_exponent": 0.3}],
            "horizon": 1.0,
            "steps": 1000,
            "n_paths": 20,
            "seed": 5,
            "hedge_mode": "single",
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    cp = run_cli("simulate", "--config", str(path))
    assert cp.returncode == 4
    assert "Traceback" not in cp.stderr
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: contract price 0.0 on path")
    assert "mean delta" not in cp.stdout


def test_cli_import_does_not_load_scipy():
    cp = subprocess.run(
        [sys.executable, "-c", "import sys, levyhedge.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "False"


# ---------------------------------------------------------------- verify


def test_verify_completeness_passes():
    cp = run_cli("verify", "completeness", "--paths", "25")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "[PASS]" in cp.stdout and "[FAIL]" not in cp.stdout


def test_verify_isometry_small_run():
    cp = run_cli("verify", "isometry", "--paths", "800", "--seed", "4")
    assert cp.returncode == 0, cp.stdout + cp.stderr


def test_verify_failure_exits_with_property_code():
    # seed 64 at 60 paths lands a draw outside the 3-SE band (found by scan,
    # pinned here to exercise the failure path deterministically)
    cp = run_cli("verify", "isometry", "--paths", "60", "--seed", "64")
    assert cp.returncode == 4
    assert "[FAIL]" in cp.stdout


def test_verify_ordering_small_run():
    cp = run_cli("verify", "ordering", "--paths", "150")
    assert cp.returncode == 0, cp.stdout + cp.stderr


def test_verify_negative_seed_is_config_error():
    cp = run_cli("verify", "calculus", "--seed", "-5")
    assert cp.returncode == 2
    assert "Traceback" not in cp.stderr
    # fewer than one path would pass every check vacuously
    cp = run_cli("verify", "completeness", "--paths", "0")
    assert cp.returncode == 2
    assert "Traceback" not in cp.stderr
    assert "checks passed" not in cp.stdout


@pytest.mark.parametrize("suite", ["isometry", "ordering"])
def test_verify_single_path_is_config_error(suite):
    # one path has no sample standard error: reject it instead of printing NaN
    cp = run_cli("verify", suite, "--paths", "1")
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.startswith("configuration error:") and "two paths" in cp.stderr
    assert "RuntimeWarning" not in cp.stderr and "Traceback" not in cp.stderr


@pytest.mark.parametrize("paths", [2**63, 10**9 + 1])
@pytest.mark.parametrize("suite", cli.SUITE_NAMES + ("all",))
def test_verify_paths_above_the_scenario_bound_is_config_error(monkeypatch, capsys, suite, paths):
    # the bound simulate applies; the suite is never started
    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suite", no_run)
    assert cli.main(["verify", suite, "--paths", str(paths)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"configuration error: paths must be at most {sim_harness._MAX_PATHS}, got {paths}\n"


def test_verify_unknown_suite_rejected():
    cp = run_cli("verify", "everything")
    assert cp.returncode == 2


def test_hedge_without_hedging_mode_reports_no_hedge(tmp_path: Path):
    cp = run_cli("hedge", "fig1")
    assert cp.returncode == 0, cp.stderr
    assert "no hedge requested" in cp.stdout
    # --out still receives the effective config, and it reruns the same report
    out = tmp_path / "out"
    assert run_cli("hedge", "fig1", "--out", str(out)).stdout == cp.stdout
    rerun = run_cli("hedge", "--config", str(out / "effective_config.json"))
    assert rerun.returncode == 0, rerun.stderr
    assert rerun.stdout == cp.stdout


# ---------------------------------------------------------------- CSV bytes
#
# The reference formats cell by cell with format(float(x), ".17g") and joins
# rows with "," and "\n"; the chunked writer must match it byte for byte.


def _reference_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _cells(*values) -> list[str]:
    return [format(float(x), ".17g") for x in values]


def _reference_figure(name: str, result) -> bytes:
    g = result.golden
    n = len(g.residuals)
    if name == "fig1":
        header = ["t", "N_t", "X_t", "C", "S1", "S2"]
        rows = [
            _cells(g.times[i], g.jump_count_path[i], g.jump_sum_path[i], g.contract_values[i], *g.asset_values[i, :2])
            for i in range(n + 1)
        ]
        return _reference_csv(header, rows)
    k = g.asset_values.shape[1]
    header = ["t", "C", *(f"S{j + 1}" for j in range(k)), *(f"phi{j + 1}" for j in range(k)), "theta", "V", "dV"]
    gains = (g.contract_values[-1] - g.contract_values[0]) - float(g.residuals.sum())
    theta_terminal = float((g.phi[-1] * g.asset_values[-1]).sum()) - gains
    rows = []
    for i in range(n + 1):
        theta = g.theta[i] if i < n else theta_terminal
        row = _cells(g.times[i], g.contract_values[i], *g.asset_values[i], *g.phi[min(i, n - 1)], theta)
        row += _cells(g.portfolio_values[i]) + ([""] if i == 0 else _cells(g.residuals[i - 1]))
        rows.append(row)
    return _reference_csv(header, rows)


def _reference_paths(result) -> bytes:
    header = [
        "path_index", "delta_terminal", "delta_integrated", "delta_normalized",
        "residual_sum", "per_step_std", "max_abs_residual",
    ]
    rows = [[str(p)] + _cells(*stats) for p, stats in enumerate(result.path_stats)]
    return _reference_csv(header, rows)


def _reference_hedge(s) -> bytes:
    ratios = sim_harness.scenario_ratios(s)
    assets = s.natural_assets()
    prices = np.array([a.initial_price for a in assets])
    phi = np.asarray(ratios) * s.natural_contract().initial_price / prices
    rows = [[str(i + 1)] + _cells(ratios[i], phi[i], prices[i]) for i in range(len(assets))]
    return _reference_csv(["asset", "psi", "phi", "S0"], rows)


@pytest.mark.parametrize(
    "chunk, steps",
    [(1, 1), (1, 7), (3, 1), (3, 7), (None, 7), (None, 5000)],
    ids=["chunk1-steps1", "chunk1-steps7", "chunk3-steps1", "chunk3-steps7", "default-steps7", "default-steps5000"],
)
def test_csv_bytes_match_cellwise_reference(tmp_path: Path, monkeypatch, capsys, chunk, steps):
    # 7 steps give 8 rows, 5000 steps 5001: neither fills its last chunk
    if chunk is not None:
        monkeypatch.setattr(cli, "_CSV_ROWS", chunk)
    n_paths, seed = 5, 9
    args = ["--paths", str(n_paths), "--steps", str(steps), "--seed", str(seed)]
    assert cli.main(["simulate", "fig3", *args, "--out", str(tmp_path / "sim")]) == 0
    assert cli.main(["figures", "fig1", "fig3", *args, "--out", str(tmp_path / "figs")]) == 0
    assert cli.main(["hedge", "fig3", "--out", str(tmp_path / "hedge")]) == 0
    capsys.readouterr()

    def result(name):
        return sim_harness.run_scenario(
            sim_harness.with_overrides(sim_harness.builtin_scenario(name), n_paths=n_paths, seed=seed, steps=steps)
        )

    fig3 = result("fig3")
    assert (tmp_path / "sim" / "paths.csv").read_bytes() == _reference_paths(fig3)
    assert (tmp_path / "sim" / "golden_path.csv").read_bytes() == _reference_figure("golden", fig3)
    assert (tmp_path / "figs" / "fig1.csv").read_bytes() == _reference_figure("fig1", result("fig1"))
    assert (tmp_path / "figs" / "fig3.csv").read_bytes() == _reference_figure("fig3", fig3)
    assert (tmp_path / "hedge" / "hedge.csv").read_bytes() == _reference_hedge(sim_harness.builtin_scenario("fig3"))


@pytest.mark.parametrize("chunk", [1, 3, None])
@pytest.mark.parametrize("blank_first", [False, True])
def test_csv_writer_special_floats(tmp_path: Path, monkeypatch, chunk, blank_first):
    if chunk is not None:
        monkeypatch.setattr(cli, "_CSV_ROWS", chunk)
    special = [
        -0.0, 0.0, 1e-300, 5e-324, 2.0**53, -(2.0**53), 2.0**53 + 2, float("nan"), float("inf"), -float("inf"),
        0.1, 1 / 3, 1e16, 1e17, 1.7976931348623157e308, 7.0,
    ]
    columns = np.resize(np.array(special), (7, 4))  # every value, two of them twice
    path = tmp_path / "special.csv"
    cli._write_csv(path, ["a", "b", "c", "d"], columns, blank_first=blank_first)
    rows = [_cells(*row) for row in columns]
    if blank_first:
        rows[0][-1] = ""
    assert path.read_bytes() == _reference_csv(["a", "b", "c", "d"], rows)


@pytest.mark.parametrize("name", sim_harness.FIGURE_NAMES)
def test_every_front_door_applies_the_same_overrides(tmp_path: Path, name):
    # flags, a name-form config and a rerun of the effective config give the same run
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(["simulate", name, "--paths", "3", "--steps", "20", "--seed", "5", "--out", str(a)]) == 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "scenario": {"name": name, "n_paths": 3, "steps": 20, "seed": 5}}))
    assert cli.main(["simulate", "--config", str(path), "--out", str(b)]) == 0
    assert cli.main(["simulate", "--config", str(a / "effective_config.json"), "--out", str(c)]) == 0
    csvs = read_csv_bytes(a)
    assert sorted(csvs) == ["golden_path.csv", "paths.csv"]
    configs = []
    for out in (a, b, c):
        assert read_csv_bytes(out) == csvs
        config = json.loads((out / "effective_config.json").read_text())
        assert config.pop("out_dir") == str(out)
        configs.append(config)
    assert configs[0] == configs[1] == configs[2]
    overridden = sim_harness.builtin_scenario(name, steps=7, hedge_mode="multi")
    assert overridden == sim_harness.with_overrides(sim_harness.builtin_scenario(name), steps=7, hedge_mode="multi")


# ---------------------------------------------------------------- exit codes

@st.composite
def _scenario_names(draw):
    # mostly built-in names, so that a fair share of runs gets past
    # validation; the random text includes "" (no scenario) and unknown names
    if draw(st.integers(0, 3)):
        return draw(st.sampled_from(sim_harness.FIGURE_NAMES))
    return draw(st.text("abcfgi0124", max_size=5))


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["simulate", "hedge", "figures"]))
    names = draw(st.lists(_scenario_names(), max_size=2)) if command == "figures" else [draw(_scenario_names())]
    return [
        command,
        *names,
        "--paths", str(draw(st.integers(-2, 4))),
        "--steps", str(draw(st.integers(-2, 40))),
        "--seed", str(draw(st.integers(-3, 50))),
    ]


@settings(max_examples=60, deadline=None)
@given(_cli_argv())
def test_cli_exit_codes_are_documented(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([*argv, "--out", str(out_dir)])
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
        assert code in {0, 2, 3, 4, 5}, (argv, code, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code != 0:
            return
        csvs = sorted(out_dir.glob("*.csv")) if out_dir.exists() else []
        if argv[0] == "simulate":
            assert [p.name for p in csvs] == ["golden_path.csv", "paths.csv"]
        if argv[0] == "figures":
            assert {p.stem for p in csvs} == set(argv[1 : argv.index("--paths")] or sim_harness.FIGURE_NAMES)
        for path in csvs:
            header, *rows = path.read_text().splitlines()
            for i, row in enumerate(rows):
                cells = row.split(",")
                assert len(cells) == len(header.split(","))
                # only dV on the first row of a hedge table is left blank
                if i == 0 and header.endswith(",dV"):
                    assert cells.pop() == ""
                [float(x) for x in cells]  # raises on a cell that is not a float


# Bad values written into one field of a scenario config: each must run or
# exit with a documented code, never with a traceback.
_BAD_VALUES = [
    True, False, "1", "", None, [], [1.0], {}, float("nan"), float("inf"), -float("inf"),
    1e308, -1e308, 1e200, -1, -1.5, 0,
]  # fmt: skip


def _json_paths(obj, prefix=()):
    """Every key path into a JSON value: its containers and their leaves."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@st.composite
def _bad_scenario_configs(draw):
    name = draw(st.sampled_from(sim_harness.FIGURE_NAMES))
    if draw(st.booleans()):
        scenario = {"name": name, "n_paths": 3, "steps": 20, "seed": 5, "hedge_mode": "single", "hedge_asset_index": 1}
    else:
        small = sim_harness.with_overrides(sim_harness.builtin_scenario(name), n_paths=3, steps=20)
        scenario = cli.scenario_to_config(small)
    path = draw(st.sampled_from(list(_json_paths(scenario))))
    target = scenario
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(st.sampled_from(_BAD_VALUES))
    return scenario


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["hedge", "simulate"]), _bad_scenario_configs())
def test_bad_config_values_exit_with_documented_codes(command, scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "scenario": scenario}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path)])
        assert code in {0, 2, 3, 4}, (scenario, code, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("configuration error:") and err.getvalue().count("\n") == 1


# ---------------------------------------------------------------- config round trip


@st.composite
def _config_scenarios(draw):
    locations = draw(st.lists(st.floats(-3.0, 3.0), max_size=4, unique=True))
    measure = LevyMeasure(tuple(JumpAtom(x, draw(st.floats(1e-3, 50.0))) for x in locations))

    def spec():
        return GeometricBernoulliSpec(
            draw(st.floats(1e-3, 1e4)), draw(st.floats(-2.0, 2.0)), draw(st.floats(-5.0, 5.0))
        )

    n_assets = draw(st.integers(0, 4))
    modes = ["none"] + (["single", "multi"] if n_assets >= 1 else []) + (["two_asset"] if n_assets >= 2 else [])
    mode = draw(st.sampled_from(modes))
    index = draw(st.integers(0, n_assets - 1)) if mode == "single" else draw(st.integers(0, 5))
    return Scenario(
        measure=measure,
        contract=spec(),
        hedging_assets=tuple(spec() for _ in range(n_assets)),
        grid=TimeGrid(draw(st.floats(1e-3, 100.0)), draw(st.integers(1, sim_harness._MAX_STEPS))),
        n_paths=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(0, 2**64)),
        hedge_mode=mode,
        hedge_asset_index=index,
    )


@settings(max_examples=200, deadline=None)
@given(_config_scenarios())
def test_scenario_config_json_round_trip(s):
    text = json.dumps(cli.scenario_to_config(s), sort_keys=True, indent=2)
    assert cli.build_scenario(json.loads(text)) == s
