"""Smoke test of the benchmark itself, on tiny sizes of every workload.

    python3 bench/selftest.py

Checks that BENCHMARK.json is well formed, that every metric it names is
reported with its unit, untraced and traced, that a clean run has no failed
operations, that an injected wrong result, an unexpected exception and an
expected degeneracy are each accounted for, and that the traced spans nest
(every self time >= 0) and that the layer spans, not the benchmark's own code,
take up the traced run_s.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys

import run

run.load_program()

from levyhedge import hedging, sim_harness  # noqa: E402
from tracer import rebind  # noqa: E402
from workloads import HedgeSweep, MonteCarlo, Verify  # noqa: E402

SEED = 1
# Largest share of the traced run_s that may be spent outside every layer span.
BENCH_SHARE = 0.1
TINY = (
    MonteCarlo("mc_fig3", paths=40, steps=100),
    MonteCarlo("mc_long_grid", paths=8, steps=5000),
    HedgeSweep("hedge_sweep", markets=10),
    Verify("verify_all", parts=("completeness",), paths=20),
)


def _scaled(fn, factor):
    def wrong(*args, **kwargs):
        out = fn(*args, **kwargs)
        if out is None:
            return None
        return tuple(x * factor for x in out) if isinstance(out, tuple) else out * factor

    return wrong


def _raising(exc):
    def broken(*args, **kwargs):
        raise exc

    return broken


# one wrong result per workload, injected into every module that binds it
WRONG = {
    "mc_fig3": {sim_harness.scenario_ratios: _scaled(sim_harness.scenario_ratios, 1.01)},
    "mc_long_grid": {sim_harness.scenario_ratios: _scaled(sim_harness.scenario_ratios, 0.99)},
    "hedge_sweep": {hedging.multi_asset_hedge: _scaled(hedging.multi_asset_hedge, 1 + 1e-6)},
    "verify_all": {hedging.two_asset_hedge: _scaled(hedging.two_asset_hedge, 1 + 1e-3)},
}


class SelfTest:
    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, ok: bool, what: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(what)
        print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)

    def benchmark_json(self) -> dict:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.expect(
            set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
            "BENCHMARK.json has exactly the contract keys",
        )
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
        self.expect(len(names) == len(set(names)), "metric and workload names are unique")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.expect(
            max(bounds.values()) <= 0.25 and bounds.get("setup_s") == max(bounds.values()),
            "every bound is at most 0.25 and setup_s has the largest",
        )
        self.expect({w["name"] for w in spec["workloads"]} == {w.name for w in TINY}, "every workload is smoke-tested")
        return spec

    def metrics(self, result: dict, expected: list[dict], what: str) -> None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.expect(got == {m["name"]: m["unit"] for m in expected}, f"{what}: every metric present with its unit")
        self.expect(
            set(result) == {"correct", "attempted", "failed", "metrics"} and result["attempted"] >= 1,
            f"{what}: result object has the contract keys",
        )

    def workload(self, w, spec: dict) -> None:
        result, _, errors, _ = run.run(w, SEED, 1, trace=False)
        self.expect(result["correct"] and result["failed"] == 0, f"{w.name}: clean run has no failures {errors}")
        self.metrics(result, spec["end_to_end"], f"{w.name} untraced")

        result, _, _, tracer = run.run(w, SEED, 1, trace=True)
        self.metrics(result, spec["per_layer"], f"{w.name} traced")
        self.expect(len(tracer.start) > len(tracer.reps), f"{w.name}: layer spans were recorded")
        self.expect(tracer.nesting_violations() == 0, f"{w.name}: spans nest and self times are >= 0")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(values[f"{m}.self_s"] for m in run.MODULES if m != "bench")
        traced = values["trace.run_s"]
        self.expect(
            values["bench.self_s"] <= BENCH_SHARE * traced and abs(layers - traced) <= BENCH_SHARE * traced,
            f"{w.name}: layer self times account for the traced run_s "
            f"(outside the layers {values['bench.self_s']:.3g} of {traced:.3g} s)",
        )

        with rebind(WRONG[w.name]):
            result, _, _, _ = run.run(w, SEED, 1, trace=False)
        self.expect(not result["correct"] and result["failed"] > 0, f"{w.name}: an injected wrong result raises error_rate")

    def exceptions(self) -> None:
        w = TINY[2]
        inputs = w.build(SEED)
        with rebind({hedging.gram_system: _raising(RuntimeError("injected"))}):
            out = w.check(inputs, None, w.body(inputs))
        self.expect(out.failed == len(inputs["markets"]), "an unexpected exception counts as a failed operation")
        with rebind({hedging.multi_asset_hedge: _raising(hedging.DegeneracyError("injected"))}):
            out = w.check(inputs, None, w.body(inputs))
        self.expect(out.failed == 0 and out.degenerate == len(inputs["markets"]), "an expected degeneracy is not a failure")

        w = TINY[3]
        inputs = w.build(SEED)
        rc, text, error = w.body(inputs, "completeness")
        dropped = text.replace(next(line for line in text.splitlines() if line.startswith("[PASS]")) + "\n", "", 1)
        out = w.check(inputs, "completeness", (rc, dropped, error))
        self.expect(out.failed == out.attempted > 0, "a verify suite that drops a check fails")


def main() -> int:
    t = SelfTest()
    spec = t.benchmark_json()
    for w in TINY:
        t.workload(w, spec)
    t.exceptions()
    print(f"{t.count - len(t.failures)}/{t.count} self-test checks passed")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
