"""Benchmark workloads: inputs built from a seed, a timed body, and a check.

Every workload calls the library through module attributes (``cli.main``,
``hedging.gram_system``), so the tracer's rebinding sees each call.  A body
catches failures per operation and returns raw outputs; ``check`` runs after
the timed region and compares those outputs with oracles computed here from
the model parameters alone (NumPy only, no levyhedge code), so the checks hold
for any change that keeps the law of the simulated paths.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from levyhedge import cli, hedging, sim_harness
from levyhedge.hedging import DegeneracyError
from levyhedge.levy_core import JumpAtom, LevyMeasure
from levyhedge.market import AssetSpec
from tracer import SUITES

# A Monte Carlo mean may sit this many standard errors from its exact
# expectation before the run counts as wrong (normal two-sided tail 6e-7).
Z_BOUND = 5.0
# The CLI prints ratios and deltas with 10 significant digits.
PRINT_RTOL = 1e-8
# Agreement of the library's Gram solves with the oracle's; every market is
# drawn with a condition number below 1e4, so 1e-9 leaves room for rounding.
SOLVE_RTOL = 1e-9
# Two-asset closed form against the solve, as in the optimality suite.
CLOSED_FORM_RTOL = 1e-10
MAX_ERRORS = 5


@dataclass
class Outcome:
    """What one execution of a body did: operations attempted and failed,
    expected degeneracies, work done in the workload's own unit, and the
    first few failure messages."""

    attempted: int
    failed: int
    work: float
    degenerate: int = 0
    csv_bytes: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


def _run_cli(argv: list[str]) -> tuple[int | None, str, str | None]:
    """Exit code, captured stdout and traceback (None on a normal return)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit):  # SystemExit: argparse rejected argv
        return None, out.getvalue(), traceback.format_exc() + err.getvalue()
    if rc != 0:
        return rc, out.getvalue(), f"exit code {rc}: {err.getvalue().strip()}"
    return rc, out.getvalue(), None


def gram(specs, measure: LevyMeasure) -> np.ndarray:
    """Volatility Gram matrix sigma_i sigma_j + sum_k Sigma_ik Sigma_jk w_k."""
    b = np.array([[s.brownian_vol, *s.jump_vol] for s in specs], dtype=float)
    weights = np.concatenate(([1.0], measure.intensities))
    return (b * weights) @ b.T


def optimal_ratios(v: np.ndarray) -> np.ndarray:
    """Scaled ratios psi solving V_assets psi = L, for a Gram matrix whose
    row 0 is the contract and rows 1.. are the traded assets."""
    return np.linalg.solve(v[1:, 1:], v[1:, 0])


def _close(a, b, rtol: float) -> bool:
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * scale))


def _printed(text: str, label: str) -> list[float] | None:
    for line in text.splitlines():
        if line.startswith(label + ":"):
            return [float(x) for x in line.split(":", 1)[1].split()]
    return None


# ----------------------------------------------------------------------------
# simulate


@dataclass(frozen=True)
class MonteCarlo:
    """``levyhedge simulate fig3 --paths P --steps N --seed S --out DIR``."""

    name: str
    paths: int
    steps: int
    unit: str = "path steps"
    parts: tuple = (None,)

    def build(self, seed: int, out_dir: Path) -> dict:
        s = sim_harness.builtin_scenario("fig3")
        v = gram([s.natural_contract(), *s.natural_assets()], s.measure)
        psi = optimal_ratios(v)
        c = np.concatenate(([1.0], -psi))
        c0 = s.natural_contract().initial_price
        horizon = s.grid.horizon
        return {
            "argv": ["simulate", "fig3", "--paths", str(self.paths), "--steps", str(self.steps),
                     "--seed", str(seed), "--out", str(out_dir)],
            "out": Path(out_dir),
            "psi": psi,
            "delta": horizon * c0**2 * float(c @ v @ c),
            # exact mean of delta_normalized on exponential paths: per step,
            # E[(e^A - 1)(e^B - 1)] = expm1(dt * V_AB) for the driftless
            # stochastic exponentials of a pair of rows of the Gram matrix
            "normalized_mean": c0**2 * self.steps * float(c @ np.expm1(horizon / self.steps * v) @ c),
        }

    def body(self, inputs: dict, part=None):
        return _run_cli(inputs["argv"])

    def check(self, inputs: dict, part, raw) -> Outcome:
        rc, text, error = raw
        out = Outcome(attempted=self.paths, failed=0, work=self.paths * self.steps)
        files = {p.name: p for p in inputs["out"].glob("*") if p.is_file()}
        out.csv_bytes = sum(p.stat().st_size for n, p in files.items() if n.endswith(".csv"))
        try:
            if error is not None:
                out.fail(error, self.paths)
                return out
            self._check_outputs(inputs, text, files, out)
        finally:
            # the next execution must write every file again
            for p in files.values():
                p.unlink()
        return out

    def _check_outputs(self, inputs: dict, text: str, files: dict, out: Outcome) -> None:
        n = self.paths
        if not _close(_printed(text, "scaled ratios") or [], inputs["psi"], PRINT_RTOL):
            out.fail(f"printed ratios {_printed(text, 'scaled ratios')} != {inputs['psi']}", n)
        if not _close(_printed(text, "analytic delta") or [], inputs["delta"], PRINT_RTOL):
            out.fail(f"printed analytic delta {_printed(text, 'analytic delta')} != {inputs['delta']}", n)
        if "paths.csv" not in files or "golden_path.csv" not in files:
            out.fail(f"missing CSV output, have {sorted(files)}", n)
            return
        golden_rows = files["golden_path.csv"].read_bytes().count(b"\n") - 1
        if golden_rows != self.steps + 1:
            out.fail(f"golden_path.csv has {golden_rows} rows, expected {self.steps + 1}", n)

        data = files["paths.csv"].read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if inputs.setdefault("digest", digest) != digest:
            out.fail("paths.csv differs from the first execution with the same seed", n)
        lines = data.decode().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        if rows.shape != (n, len(header)) or "delta_normalized" not in header:
            out.fail(f"paths.csv has shape {rows.shape} and header {header}", n)
            return
        if not np.array_equal(rows[:, header.index("path_index")], np.arange(n)):
            out.fail("paths.csv path_index is not 0..paths-1", n)
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            out.fail(f"{int(bad.sum())} paths with non-finite summaries", int(bad.sum()))
        dn = rows[:, header.index("delta_normalized")]
        se = float(dn.std(ddof=1)) / np.sqrt(n)
        z = abs(float(dn.mean()) - inputs["normalized_mean"]) / se if se > 0 else np.inf
        if not z <= Z_BOUND:
            out.fail(f"mean delta_normalized {dn.mean():.6g} is {z:.2f} SE from {inputs['normalized_mean']:.6g}", n)


# ----------------------------------------------------------------------------
# library hedge sweep


@dataclass(frozen=True, eq=False)
class Market:
    contract: AssetSpec
    assets: tuple[AssetSpec, ...]
    measure: LevyMeasure
    perturbation: np.ndarray


HORIZON = 1.0
ASSET_COUNTS = (1, 2, 3, 5, 8)
SINGLE_SWEEP = (0.0, 2.0, 1e-3)  # grids of the optimality suite
TWO_ASSET_SWEEP = (0.0, 1.0, 1e-3)


def random_market(rng: np.random.Generator, n_assets: int) -> Market:
    """Seeded market with at least n_assets - 1 jump atoms, so the asset Gram
    matrix is generically nonsingular.  Draws whose Gram matrix has a
    condition number above 1e4 are redrawn, as the optimality suite redraws
    badly conditioned ones, so that SOLVE_RTOL holds."""
    while True:
        n_atoms = n_assets - 1 + int(rng.integers(1, 3))
        locs = rng.normal(0.0, 1.0, n_atoms)
        intensities = rng.uniform(0.5, 15.0, n_atoms)
        specs = [
            AssetSpec(float(rng.uniform(20.0, 300.0)), float(rng.uniform(0.05, 0.6)), tuple(rng.uniform(-0.7, 1.5, n_atoms)))
            for _ in range(n_assets + 1)
        ]
        perturbation = rng.normal(0.0, 0.05, n_assets)
        if len(np.unique(locs)) < n_atoms:
            continue
        measure = LevyMeasure(tuple(JumpAtom(float(x), float(w)) for x, w in zip(locs, intensities)))
        eigs = np.linalg.eigvalsh(gram(specs[1:], measure))
        if eigs[0] > 1e-4 * eigs[-1]:
            return Market(specs[0], tuple(specs[1:]), measure, perturbation)


def solve_market(m: Market) -> dict:
    n = len(m.assets)
    c0 = m.contract.initial_price
    prices = np.array([a.initial_price for a in m.assets])
    system = hedging.gram_system(m.contract, m.assets, c0, prices, m.measure)
    report = hedging.degeneracy_check(system)
    phi = hedging.multi_asset_hedge(system)
    psi = phi * prices / c0
    out = {
        "degenerate": report.degenerate,
        "phi": phi,
        "psi": psi,
        "deltas": [hedging.analytic_delta(m.contract, m.assets, r, m.measure, HORIZON) for r in (psi, np.zeros(n), psi + m.perturbation)],
    }
    if n == 1:
        out["klm"] = hedging.single_coefficients(m.contract, m.assets[0], m.measure)
        out["rho"] = hedging.rho_diagnostic(m.contract, m.assets[0], m.measure)
    if n == 2:
        out["two"] = hedging.two_asset_hedge(m.contract, m.assets[0], m.assets[1], (c0, *prices), m.measure)
    return out


def solve_figure(s) -> dict:
    out = {"ratios": sim_harness.scenario_ratios(s)}
    if s.hedge_mode in ("single", "two_asset"):
        lo, hi, step = SINGLE_SWEEP if s.hedge_mode == "single" else TWO_ASSET_SWEEP
        out["sweep"] = sim_harness.brute_force_constant_hedge(s, lo, hi, step)
    return out


def check_market(m: Market, r: dict, out: Outcome) -> None:
    n = len(m.assets)
    v = gram([m.contract, *m.assets], m.measure)
    psi = optimal_ratios(v)
    scale = HORIZON * m.contract.initial_price**2
    d_opt, d_zero, d_pert = r["deltas"]
    problems = []
    if r["degenerate"]:
        problems.append("flagged degenerate")
    if not _close(r["psi"], psi, SOLVE_RTOL):
        problems.append(f"ratios {r['psi']} != {psi}")
    if not _close(d_zero, scale * v[0, 0], SOLVE_RTOL):
        problems.append(f"no-hedge delta {d_zero} != {scale * v[0, 0]}")
    if not abs(d_opt - scale * (v[0, 0] - v[0, 1:] @ psi)) <= SOLVE_RTOL * d_zero:
        problems.append(f"optimal delta {d_opt} != {scale * (v[0, 0] - v[0, 1:] @ psi)}")
    if not (d_opt <= d_pert + 1e-12 * d_zero and d_opt <= d_zero * (1 + 1e-12)):
        problems.append(f"optimal delta {d_opt} above perturbed {d_pert} or no-hedge {d_zero}")
    if n == 1:
        klm = r["klm"]
        if not _close([klm.K, klm.L, klm.M], [v[0, 0], v[1, 0], v[1, 1]], SOLVE_RTOL):
            problems.append(f"K/L/M {klm} != {v[0, 0], v[1, 0], v[1, 1]}")
        if not (0.0 <= r["rho"] <= 1.0 + 1e-12 and abs((1.0 - r["rho"]) * d_zero - d_opt) <= CLOSED_FORM_RTOL * d_zero):
            problems.append(f"(1 - rho) * no-hedge {(1.0 - r['rho']) * d_zero} != optimal {d_opt}")
    if n == 2:
        phi = r["phi"]
        tol = CLOSED_FORM_RTOL * max(1.0, float(np.abs(phi).max()), float(np.abs(r["two"]).max()))
        if not np.all(np.abs(np.asarray(r["two"]) - phi) <= tol):
            problems.append(f"two-asset closed form {r['two']} != solve {phi}")
    if problems:
        out.fail(f"market with {n} assets: " + "; ".join(problems))


def check_figure(s, r: dict, out: Outcome) -> None:
    if s.hedge_mode == "none":
        if r["ratios"] is not None:
            out.fail(f"{s.hedge_mode} scenario returned ratios {r['ratios']}")
        return
    assets = s.natural_assets()
    traded = [s.hedge_asset_index] if s.hedge_mode == "single" else list(range(len(assets)))
    v = gram([s.natural_contract(), *(assets[i] for i in traded)], s.measure)
    psi = np.zeros(len(assets))
    psi[traded] = optimal_ratios(v)
    if not _close(r["ratios"], psi, SOLVE_RTOL):
        out.fail(f"scenario ratios {r['ratios']} != {psi}")
        return
    step = (SINGLE_SWEEP if s.hedge_mode == "single" else TWO_ASSET_SWEEP)[2]
    gap = np.asarray(r["sweep"].best_ratios)[traded] - psi[traded]
    # the grid point nearest the optimum is within step/2 on every axis; in
    # one dimension that is also where the grid argmin lies, while in two
    # dimensions the argmin can slide along an elongated valley, so there
    # the bound is on the error excess, gap' V gap <= lambda_max * n * step^2 / 4
    vt = v[1:, 1:]
    limit = float(np.linalg.eigvalsh(vt)[-1]) * len(traded) * step**2 / 4
    if len(traded) == 1 and not abs(gap[0]) <= step:
        out.fail(f"{s.hedge_mode} sweep argmin {r['sweep'].best_ratios} is more than one step from {psi}")
    if not float(gap @ vt @ gap) <= limit * (1 + 1e-9):
        out.fail(f"sweep argmin {r['sweep'].best_ratios} is further than one grid step from {psi}")


@dataclass(frozen=True)
class HedgeSweep:
    """Library calls on seeded random markets and the built-in figures."""

    name: str
    markets: int
    unit: str = "markets"
    parts: tuple = (None,)

    def build(self, seed: int, out_dir: Path | None = None) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "markets": [random_market(rng, ASSET_COUNTS[i % len(ASSET_COUNTS)]) for i in range(self.markets)],
            "figures": [sim_harness.builtin_scenario(name) for name in sim_harness.FIGURE_NAMES],
        }

    def body(self, inputs: dict, part=None) -> list:
        results = []
        for solve, items in ((solve_market, inputs["markets"]), (solve_figure, inputs["figures"])):
            for item in items:
                try:
                    results.append(solve(item))
                except DegeneracyError:
                    results.append("degenerate")
                except Exception:
                    results.append(traceback.format_exc())
        return results

    def check(self, inputs: dict, part, raw: list) -> Outcome:
        items = inputs["markets"] + inputs["figures"]
        out = Outcome(attempted=len(items), failed=0, work=len(items))
        for i, (item, r) in enumerate(zip(items, raw)):
            if r == "degenerate":
                out.degenerate += 1
            elif isinstance(r, str):
                out.fail(r)
            elif i < len(inputs["markets"]):
                check_market(item, r, out)
            else:
                check_figure(item, r, out)
        return out


# ----------------------------------------------------------------------------
# verify


# Checks each suite reports, read from verification.py; a suite that reports
# another number has dropped or gained a check and fails every operation.
SUITE_CHECKS = {"isometry": 2, "martingale": 4, "calculus": 7, "optimality": 9, "ordering": 3, "completeness": 2}


@dataclass(frozen=True)
class Verify:
    """``levyhedge verify <suite> --paths P`` for each suite in turn, at the
    CLI's default seed; one cycle over the suites is ``verify all``.

    Each suite is its own part, so the speed reference is taken around
    executions of 0.1-2 s instead of one of 3 s.  The suites are statistical
    tests with 3-standard-error bands, so about 2% of fresh seeds fail one
    check by chance; the seed the CLI and the acceptance tests use keeps
    every run meaningful.
    """

    name: str
    parts: tuple[str, ...]
    paths: int
    unit: str = "checks"

    def build(self, seed: int, out_dir: Path | None = None) -> dict:
        return {"argv": {suite: ["verify", suite, "--paths", str(self.paths)] for suite in self.parts}}

    def body(self, inputs: dict, part: str):
        return _run_cli(inputs["argv"][part])

    def check(self, inputs: dict, part: str, raw) -> Outcome:
        rc, text, error = raw
        lines = [line for line in text.splitlines() if line.startswith(("[PASS]", "[FAIL]"))]
        expected = SUITE_CHECKS[part]
        out = Outcome(attempted=max(len(lines), expected), failed=0, work=len(lines))
        for line in lines:
            if not line.startswith("[PASS]"):
                out.fail(line)
        if error is not None or len(lines) != expected:
            out.fail(error or f"{part}: {len(lines)} checks reported, expected {expected}", out.attempted)
        return out


WORKLOADS = {
    w.name: w
    for w in (
        MonteCarlo("mc_fig3", paths=500, steps=1000),
        MonteCarlo("mc_long_grid", paths=8, steps=50_000),
        HedgeSweep("hedge_sweep", markets=250),
        Verify("verify_all", parts=SUITES, paths=150),
    )
}
