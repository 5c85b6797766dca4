"""levyhedge benchmark: one workload per process, checked, with metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/levyhedge``.  The workload's inputs come
from ``--seed``; its body runs repeatedly for about ``--seconds`` and every
execution is checked (see workloads.py).  With ``--trace 0`` the run reports
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run (see tracer.py and README.md).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

Exit codes: 0 with a result printed, 2 when the program or the arguments are
missing or invalid (nothing printed on standard output).
"""

from __future__ import annotations

import os

# Fixed before NumPy is imported, here and in every set-up probe: one BLAS
# thread, at or below nproc, so a run is one single-threaded process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import SUITES  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
PROBE_TIMEOUT_S = 60
# Nominal duration of speed_reference(); timings are rescaled to it.
REFERENCE_S = 0.007
# The set-up reference: a fresh interpreter that imports a fixed set of
# standard-library modules, of nominal duration SETUP_REFERENCE_S.
SETUP_REFERENCE = [
    "-c",
    "import argparse, asyncio, csv, dataclasses, decimal, email.parser, http.client, json, statistics, time; "
    "print(repr(time.monotonic()))",
]
SETUP_REFERENCE_S = 0.16

END_TO_END = {"setup_s": "s", "run_s": "s", "ops_per_s": "1/s", "peak_rss_mib": "MiB"}

# Public layer functions whose calls and self time are reported.
TRACED = (
    "levy_core.sample_noise",
    "levy_core.exponential_path",
    "levy_core.integrate",
    "levy_core.integrate_proportional",
    "market.geometric_price_path",
    "hedging.evolve_portfolio",
    "hedging.gram_system",
    "hedging.multi_asset_hedge",
    "hedging.two_asset_hedge",
    "hedging.analytic_delta",
    "hedging.degeneracy_check",
    "hedging.rho_diagnostic",
    "sim_harness.run_scenario",
    "sim_harness.scenario_ratios",
    "sim_harness.brute_force_constant_hedge",
)
MODULES = ("levy_core", "market", "hedging", "sim_harness", "verification", "cli", "bench")

PER_LAYER = {
    **{f"{f}.{kind}": unit for f in TRACED for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "levy_core.jump_events": "count",
    "levy_core.jump_events_expected": "count",
    "hedging.volatility_inner.calls": "count",
    **{f"verification.run_suite.{s}.s": "s" for s in SUITES},
    "cli.main.self_s": "s",
    "cli.csv_bytes": "bytes",
    **{f"{m}.self_s": "s" for m in MODULES},
    "setup.numpy_s": "s",
    "setup.scipy_s": "s",
    "setup.levyhedge_self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result."""


def load_program():
    """Import levyhedge from this checkout's src/, never from elsewhere."""
    if not (SRC / "levyhedge" / "__init__.py").is_file():
        raise BenchError(f"no levyhedge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import levyhedge
    except ImportError as exc:
        raise BenchError(f"cannot import levyhedge: {exc}") from exc
    if Path(levyhedge.__file__).resolve().parent != SRC / "levyhedge":
        raise BenchError(f"levyhedge imported from {levyhedge.__file__}, not {SRC}")
    return levyhedge


# ----------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    sources = hashlib.sha256()
    for path in sorted((SRC / "levyhedge").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_revision": _git_revision(),
        "source_sha256": sources.hexdigest(),
        "seed": seed,
    }


# ----------------------------------------------------------------------------
# machine speed


def _kernel() -> float:
    import numpy as np

    t0 = time.perf_counter()
    marks = np.array([0.3, -0.3])
    for k in range(12):
        rng = np.random.default_rng(np.random.SeedSequence(k, spawn_key=(k, 0)))
        x = np.exp(np.cumsum(rng.normal(0.0, 0.03, 1000)) + np.cumsum(rng.poisson(0.0075, (1000, 2)) @ marks))
        float((np.diff(np.stack([x, 1.1 * x], axis=1), axis=0) ** 2).sum())
    float((np.diff(np.exp(np.cumsum(np.full(200_000, 1e-6)))) ** 2).sum())
    table = {}
    for i in range(1500):
        table[i % 997] = (i, float(i), str(i))
    ",".join(format(i * 0.1, ".17g") for i in range(1500))
    return time.perf_counter() - t0


def speed_reference() -> float:
    """Median of three timings of a fixed kernel of seeded generators, small
    and large NumPy arrays, dict churn and float formatting: the kinds of
    work the workloads do, without any levyhedge code.

    The CPUs of a shared host change speed by up to a factor of two over
    seconds to minutes.  Each execution of a workload body is therefore
    timed between two speed references and scaled by REFERENCE_S over their
    mean, so that runs made in different load states compare as if made at
    one speed."""
    return statistics.median(_kernel() for _ in range(3))


# ----------------------------------------------------------------------------
# set-up


def _interpreter(args: list[str]) -> tuple[float, str]:
    """Seconds from starting a fresh interpreter on ``args`` to the monotonic
    clock reading it prints last, and its stderr."""
    start = time.monotonic()
    try:
        cp = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up probe timed out after {PROBE_TIMEOUT_S} s") from exc
    if cp.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {cp.returncode}:\n{cp.stderr}")
    return float(cp.stdout.split()[-1]) - start, cp.stderr


def setup_times(workload: str, seed: int, out_dir: Path, repeats: int, importtime: bool = False) -> list[tuple[float, float, str]]:
    """Set-up probes: a fresh interpreter imports levyhedge.cli and builds the
    workload inputs.  Per probe: wall seconds, seconds scaled to the reference
    speed, and the probe's stderr.

    The speed_reference() kernel does not track the speed of imports, but a
    fresh interpreter that imports standard-library modules does.  Each probe
    therefore runs between two such reference starts and is scaled by
    SETUP_REFERENCE_S over their mean.  A first probe, not counted, warms
    the disk cache and the bytecode."""
    probe = [*(["-X", "importtime"] if importtime else []), str(BENCH / "probe.py"), workload, str(seed), str(out_dir)]
    _interpreter(probe)
    before = _interpreter(SETUP_REFERENCE)[0]
    out = []
    for _ in range(repeats):
        wall, stderr = _interpreter(probe)
        after = _interpreter(SETUP_REFERENCE)[0]
        out.append((wall, wall * SETUP_REFERENCE_S * 2 / (before + after), stderr))
        before = after
    return out


def import_times(stderr: str) -> dict[str, float]:
    """numpy and scipy import time (outermost entries, cumulative) and the
    self time of levyhedge's own modules, from ``-X importtime`` output."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(self_us) * 1e-6, int(cumulative_us) * 1e-6))
    # importtime lists a module after its imports; walk backwards to see parents first
    out = {"setup.numpy_s": 0.0, "setup.scipy_s": 0.0, "setup.levyhedge_self_s": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, own, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        stack.append((depth, name))
        for package in ("numpy", "scipy"):
            if name.split(".")[0] == package and parent.split(".")[0] != package:
                out[f"setup.{package}_s"] += cumulative
        if name.split(".")[0] == "levyhedge":
            out["setup.levyhedge_self_s"] += own
    return out


# ----------------------------------------------------------------------------
# measurement


@dataclass
class Measurement:
    """Per part of the body: wall times, the same scaled to the reference
    speed, and the outcomes of the checks."""

    wall: dict = field(default_factory=dict)
    scaled: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)

    def all_outcomes(self) -> list:
        return [o for part in self.outcomes.values() for o in part]


def per_cycle(times: dict) -> float:
    """One cycle over the body's parts: the sum of each part's median."""
    return sum(_median(v) for v in times.values())


def measure(workload, inputs, budget: float, tracer=None) -> tuple[Measurement, Measurement | None]:
    """Run cycles over the body's parts until the next cycle would end past
    ``budget`` seconds (at least one cycle); check every execution outside
    the timed region.

    With a tracer, each untraced execution of a part is followed by a traced
    one, so both see the same machine state; returns the untraced and the
    traced measurement (None without a tracer)."""
    plain = Measurement(*({p: [] for p in workload.parts} for _ in range(3)))
    traced = Measurement(*({p: [] for p in workload.parts} for _ in range(3))) if tracer else None
    modes = [(plain, None)] + ([(traced, tracer)] if tracer else [])
    cycles = []
    before = speed_reference()
    deadline = time.perf_counter() + budget
    while True:
        cycle = 0.0
        for part in workload.parts:
            for m, t in modes:
                with t.install() if t else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    with t.rep(part) if t else contextlib.nullcontext():
                        raw = workload.body(inputs, part)
                    d = time.perf_counter() - t0
                after = speed_reference()
                m.wall[part].append(d)
                m.scaled[part].append(d * REFERENCE_S * 2 / (before + after))
                m.outcomes[part].append(workload.check(inputs, part, raw))
                before = after
                cycle += d
        cycles.append(cycle)
        if time.perf_counter() + statistics.median(cycles) > deadline:
            return plain, traced


def _median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(tracer, m: Measurement) -> dict[str, float]:
    """Per-layer metrics of the traced measurement ``m``: counts as recorded,
    times scaled to the reference speed like run_s."""
    factors = {p: iter([s / w for s, w in zip(m.scaled[p], m.wall[p])]) for p in m.wall}
    reps = [(p, r, c, next(factors[p])) for p, r, c in zip(tracer.rep_parts, tracer.per_rep(), tracer.rep_counters)]

    def cycle(get, seconds: bool = True) -> float:
        return sum(_median([get(r, c) * (f if seconds else 1.0) for p, r, c, f in reps if p == part]) for part in m.wall)

    out = {}
    for f in TRACED:
        out[f"{f}.calls"] = cycle(lambda r, c: r.get(f, (0, 0.0, 0.0))[0], seconds=False)
        out[f"{f}.self_s"] = cycle(lambda r, c: r.get(f, (0, 0.0, 0.0))[1])
    for key in ("levy_core.jump_events", "levy_core.jump_events_expected", "hedging.volatility_inner.calls"):
        out[key] = cycle(lambda r, c: c.get(key, 0), seconds=False)
    for s in SUITES:
        out[f"verification.run_suite.{s}.s"] = cycle(lambda r, c: r.get(f"verification.run_suite.{s}", (0, 0.0, 0.0))[2])
    out["cli.main.self_s"] = cycle(lambda r, c: r.get("cli.main", (0, 0.0, 0.0))[1])
    out["cli.csv_bytes"] = per_cycle({p: [o.csv_bytes for o in v] for p, v in m.outcomes.items()})
    for mod in MODULES:  # the root span is bench.body: time outside every layer
        out[f"{mod}.self_s"] = cycle(lambda r, c: sum(v[1] for k, v in r.items() if k.startswith(f"{mod}.")))
    return out


def tail(samples: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"{statistics.median(samples):.6g} (median of {n}"
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        text += f", p{q} {statistics.quantiles(samples, n=100)[q - 1]:.6g}"
    return text + f", min {min(samples):.6g}, max {max(samples):.6g})"


def run(workload, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one workload.

    Returns the result object, the report lines, the first failure messages
    and the tracer (None for an untraced run)."""
    from tracer import Tracer

    lines = [f"workload {workload.name}  seed {seed}  seconds {seconds}  trace {int(trace)}",
             "provenance " + json.dumps(provenance(seed), sort_keys=True)]
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        out_dir = Path(tmp)
        inputs = workload.build(seed, out_dir)
        if trace:
            setups = [
                {k: v * scaled / wall for k, v in import_times(stderr).items()}
                for wall, scaled, stderr in setup_times(workload.name, seed, out_dir, IMPORTTIME_REPEATS, importtime=True)
            ]
            tracer = Tracer()
            plain, traced = measure(workload, inputs, seconds, tracer)
            metrics = {k: _median([s[k] for s in setups]) for k in setups[0]}
            metrics.update(layer_metrics(tracer, traced))
            metrics["trace.run_s"] = per_cycle(traced.scaled)
            metrics["trace.overhead_s"] = per_cycle(traced.scaled) - per_cycle(plain.scaled)
            outcomes = plain.all_outcomes() + traced.all_outcomes()
            units = PER_LAYER
            lines.append(f"spans {len(tracer.start)}, nesting violations {tracer.nesting_violations()}")
        else:
            tracer = None
            setups = setup_times(workload.name, seed, out_dir, SETUP_REPEATS)
            plain, _ = measure(workload, inputs, seconds)
            outcomes = plain.all_outcomes()
            run_s = per_cycle(plain.scaled)
            work = per_cycle({p: [o.work for o in v] for p, v in plain.outcomes.items()})
            metrics = {
                "setup_s": _median([scaled for _, scaled, _ in setups]),
                "run_s": run_s,
                "ops_per_s": work / run_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            lines.append(f"setup_s scaled {tail([s for _, s, _ in setups])}; wall {tail([w for w, _, _ in setups])}")
            lines.append(f"{workload.unit.replace(' ', '_')}_per_s {metrics['ops_per_s']:.6g} (ops_per_s)")
        for part in plain.wall:
            label = f"run_s[{part}]" if part else "run_s"
            lines.append(f"{label} scaled {tail(plain.scaled[part])}; wall {tail(plain.wall[part])}")
            if trace:
                lines.append(f"{label} traced scaled {tail(traced.scaled[part])}; wall {tail(traced.wall[part])}")

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    lines.append(
        f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed, "
        f"{sum(o.degenerate for o in outcomes)} degenerate, {len(outcomes)} executions)"
    )
    for name, value in metrics.items():
        lines.append(f"  {name:<44} {value:>16.8g} {units[name]}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    errors = [e for o in outcomes for e in o.errors][:5]
    return result, lines, errors, tracer


def parse_args(argv=None) -> argparse.Namespace:
    def nonnegative(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be a nonnegative integer")
        return value

    p = argparse.ArgumentParser(description="Run one levyhedge benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=nonnegative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
        if not args.seconds > 0:
            raise BenchError("--seconds must be positive")
        result, lines, errors, _ = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for message in errors:
        print(f"failure: {message}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
