"""Monte Carlo runs and CSV writes split over processes: the paths are cut
into ranges of whole blocks and a long table's rows into ranges of whole
chunks, each range but the first runs in a forked child, and every result
is the same bytes whatever the number of processes, whether a child could
be forked, was killed or failed.  verify's randomized trial loops run in
the calling process, at any process count."""

import errno
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from levyhedge import (
    DegeneracyError,
    GeometricBernoulliSpec,
    IntegrationError,
    SymmetricCoefficients,
    exponential_prices,
    integrate_proportional_block,
    run_scenario,
    scenario_ratios,
)
from levyhedge import cli, csv_format, levy_core, sim_harness, verification
from levyhedge.sim_harness import builtin_scenario, with_overrides
from levyhedge.verification import _euler_gap_ratios, _euler_terminals, _hedge_stats, _price_terminals, run_suite

from conftest import blocks_of_8192_path_steps
from test_path_blocks import GOLDEN_FIELDS
from test_verification import _GAP_PAIRS, SEED

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="only Linux forks")

# 8-path blocks at 1000 steps: 29 paths end in a block of 5
N_PATHS = 29


@pytest.fixture(autouse=True)
def eight_path_blocks():
    # the expected ranges, block starts and failing paths below, and the
    # three ranges that three processes get, are worked out for 8-path
    # blocks at 1000 steps (4-path blocks at 2000)
    with blocks_of_8192_path_steps():
        yield


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def at_each_count(processes, compute):
    """``compute(count)`` at 1, 2 and 3 processes."""
    results = []
    for count in (1, 2, 3):
        processes(count)
        results.append(compute(count))
    return results


@pytest.mark.parametrize(
    "n_paths, steps, cpus, threshold, expected",
    [
        # 63 blocks of 8 paths; 5e5 path-steps repay a fork for up to 3 processes
        (500, 1000, 2, 2**17, [(0, 248), (248, 500)]),
        (500, 1000, 8, 2**17, [(0, 168), (168, 336), (336, 500)]),
        # below twice the threshold the run stays in one process
        (262, 1000, 2, 2**17, [(0, 262)]),
        (1000, 1000, 1, 2**17, [(0, 1000)]),
        # one path per block at 50 000 steps: never more processes than blocks
        (3, 50_000, 8, 1, [(0, 1), (1, 2), (2, 3)]),
        (8, 50_000, 2, 2**17, [(0, 4), (4, 8)]),
        (N_PATHS, 1000, 3, 1, [(0, 8), (8, 16), (16, 29)]),
    ],
)
def test_ranges_are_whole_blocks(monkeypatch, n_paths, steps, cpus, threshold, expected):
    monkeypatch.setattr(sim_harness, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(sim_harness, "_FORK_MIN_WORK", threshold)
    assert sim_harness._path_ranges(n_paths, steps) == expected


def whole_ranges(ranges, n: int, unit: int) -> bool:
    """Contiguous ranges that cover 0 .. n - 1, cut at whole units."""
    edges = [start for start, _ in ranges] + [n]
    return ranges == list(zip(edges, edges[1:])) and edges[0] == 0 and all(e % unit == 0 for e in edges[:-1])


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_runs_and_csv_writes_share_one_threshold(monkeypatch, tmp_path, cpus):
    # one process per usable CPU, per unit of items (a path block, a
    # 512-row chunk) and per 2**17 units of work (path-steps, cells)
    monkeypatch.setattr(sim_harness, "_usable_cpus", lambda: cpus)

    def processes(n, unit, work):
        return max(1, min(cpus, -(-n // unit), work // 2**17))

    for n_paths in [1, 8, 9, 131, 262, 263, 500, 1000, 4097]:
        for steps in [1, 4, 1000, 50_000]:
            ranges = sim_harness._path_ranges(n_paths, steps)
            unit = levy_core._block_paths(steps)
            assert len(ranges) == processes(n_paths, unit, n_paths * steps)
            assert whole_ranges(ranges, n_paths, unit)

    # the ranges a write forks for, each written here with no cell formatted
    forked = []
    monkeypatch.setattr(csv_format, "csv_rows", lambda block: b"")
    monkeypatch.setattr(sim_harness, "_fork_ranges", lambda ranges, run: forked.append(ranges) or set())
    for rows in [1, 512, 513, 43_690, 43_691, 87_381, 87_382, 131_072, 200_000]:
        for width in [1, 3, 7]:
            forked.clear()
            csv_format.write_csv(tmp_path / "t.csv", ["a"] * width, np.zeros((rows, width)))
            [ranges] = forked
            assert len(ranges) == processes(rows, 512, rows * width)
            assert whole_ranges(ranges, rows, 512)


@pytest.mark.parametrize("name", ["fig1", "fig2a", "fig3"])
@pytest.mark.parametrize("n_paths", [24, N_PATHS])
def test_run_scenario_does_not_depend_on_the_process_count(processes, name, n_paths):
    s = with_overrides(builtin_scenario(name), n_paths=n_paths)
    one, *others = at_each_count(processes, lambda _: run_scenario(s))
    for result in others:
        np.testing.assert_array_equal(result.path_stats, one.path_stats)
        assert result.aggregate == one.aggregate
        for field in GOLDEN_FIELDS:
            np.testing.assert_array_equal(getattr(result.golden, field), getattr(one.golden, field))


def simulate_csvs(out: Path, *args: str) -> dict[str, bytes]:
    assert cli.main(["simulate", "fig3", "--paths", str(N_PATHS), *args, "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in ("paths.csv", "golden_path.csv")}


def test_simulate_csvs_do_not_depend_on_the_process_count(processes, tmp_path, capsys):
    one, *others = at_each_count(processes, lambda count: simulate_csvs(tmp_path / str(count)))
    assert all(csvs == one for csvs in others)
    capsys.readouterr()


def table(rows: int) -> np.ndarray:
    """A (rows, 3) table with every layout of '%.17g': integers, fractions,
    e-XX exponents, negatives, zeros, NaN and the infinities."""
    values = np.random.default_rng(rows).standard_normal((rows, 3)) * np.array([1.0, 1e-7, 1e20])
    flat = values.ravel()
    flat[::7] = np.resize([0.0, -0.0, 7.0, float("nan"), float("inf"), -float("inf")], flat[::7].size)
    return values


def write_table(path: Path, columns: np.ndarray, blank_first: bool) -> bytes:
    csv_format.write_csv(path, ["a", "b", "c"], columns, blank_first)
    return path.read_bytes()


def counting(monkeypatch, module, name) -> list:
    """Record each call of ``module.name`` made in this process."""
    calls = []
    original = getattr(module, name)
    parent = os.getpid()

    def counted(*args):
        if os.getpid() == parent:
            calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("blank_first", [False, True])
@pytest.mark.parametrize("rows", [1, 511, 512, 513, 1537])
def test_csv_bytes_do_not_depend_on_the_process_count(processes, monkeypatch, tmp_path, rows, blank_first):
    columns = table(rows)
    forks = counting(monkeypatch, os, "fork")
    appends = counting(monkeypatch, csv_format, "_append")
    outputs = []
    for count in (1, 2, 3):
        processes(count)
        forks.clear()
        appends.clear()
        outputs.append(write_table(tmp_path / f"{count}.csv", columns, blank_first))
        # one range per process, at most one per 512-row chunk, each but the
        # first formatted by a child and appended here
        chunks = -(-rows // 512)
        assert len(forks) == len(appends) == min(count, chunks) - 1
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert sorted(os.listdir(tmp_path)) == ["1.csv", "2.csv", "3.csv"]


def refuse_fork(monkeypatch):
    def refuse():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", refuse)


def fail_in_a_child(monkeypatch):
    parent = os.getpid()
    csv_rows = csv_format.csv_rows

    def failing(block):
        if os.getpid() != parent:
            raise RuntimeError("injected failure in a child")
        return csv_rows(block)

    monkeypatch.setattr(csv_format, "csv_rows", failing)


def refuse_temp_file(monkeypatch):
    def refuse(**kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(csv_format.tempfile, "TemporaryFile", refuse)


@pytest.mark.parametrize("failure", [refuse_fork, fail_in_a_child, refuse_temp_file])
def test_a_range_no_child_wrote_is_written_here(processes, monkeypatch, tmp_path, failure):
    columns = table(1537)
    processes(1)
    serial = write_table(tmp_path / "serial.csv", columns, True)
    processes(3)
    failure(monkeypatch)
    appends = counting(monkeypatch, csv_format, "_append")
    assert write_table(tmp_path / "failed.csv", columns, True) == serial
    assert appends == []
    assert sorted(os.listdir(tmp_path)) == ["failed.csv", "serial.csv"]


def test_an_exception_in_the_parents_range_stops_and_reaps_the_children(processes, monkeypatch, tmp_path):
    processes(3)
    parent = os.getpid()

    def csv_rows(block):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(csv_format, "csv_rows", csv_rows)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        csv_format.write_csv(tmp_path / "t.csv", ["a", "b", "c"], table(1537))
    assert time.monotonic() - started < 30
    assert os.listdir(tmp_path) == ["t.csv"]


FIG3 = with_overrides(builtin_scenario("fig3"), n_paths=N_PATHS)
EULER = SymmetricCoefficients(0.0, 0.20, (0.3, -0.3), FIG3.measure)
HELPERS = {
    "euler terminals": lambda: _euler_terminals(EULER, FIG3.grid, 7, 3.0, N_PATHS),
    "price terminals": lambda: _price_terminals(FIG3),
    "hedge stats": lambda: _hedge_stats(
        exponential_prices, FIG3, (scenario_ratios(FIG3), scenario_ratios(builtin_scenario("fig2a")))
    ),
    "euler hedge stats": lambda: _hedge_stats(integrate_proportional_block, FIG3, [scenario_ratios(FIG3)]),
    # 2000 steps: 4-path blocks
    "euler gap ratios": lambda: _euler_gap_ratios(_GAP_PAIRS, 7, N_PATHS),
}


@pytest.mark.parametrize("name", HELPERS)
def test_verification_helpers_do_not_depend_on_the_process_count(processes, name):
    one, *others = at_each_count(processes, lambda _: HELPERS[name]())
    for result in others:
        np.testing.assert_array_equal(result, one)


@pytest.mark.parametrize(
    "suite, shapes",
    [
        # the per-path statistics of the Monte Carlo check, one ratio set on
        # 4 paths; the random markets run on stacks in this process
        ("optimality", [(6, 1, 4)]),
        # the Euler gap's two error ratios for each of its two coefficient
        # pairs on 4 paths; the 100 pricing kernels run in this process
        ("calculus", [(2, 2, 4)]),
    ],
)
def test_randomized_suites_do_not_depend_on_the_process_count(processes, monkeypatch, suite, shapes):
    # the suites' results, and every per-path array behind them
    range_rows = verification._range_rows
    arrays = []

    def recorded(*args):
        arrays.append(range_rows(*args))
        return arrays[-1]

    monkeypatch.setattr(verification, "_range_rows", recorded)

    def run(_):
        arrays.clear()
        return run_suite(suite, SEED, 4), [a.copy() for a in arrays]

    (one, one_arrays), *others = at_each_count(processes, run)
    assert [a.shape for a in one_arrays] == shapes
    for results, trial_arrays in others:
        assert results == one
        for a, b in zip(trial_arrays, one_arrays, strict=True):
            np.testing.assert_array_equal(a, b)


def test_an_error_in_a_kernel_is_the_same_at_any_process_count(processes, monkeypatch):
    # the kernel coefficients raise on the 76th of the calculus suite's 100
    # random pricing kernels; the kernels run in this process, after the
    # Euler gap's forked ranges at two processes, so the error is the one a
    # single process raises
    processes(1)
    kernels = []
    real = verification.kernel_coefficients

    def recorded(kernel, *args):
        kernels.append(kernel)
        return real(kernel, *args)

    monkeypatch.setattr(verification, "kernel_coefficients", recorded)
    run_suite("calculus", SEED, 4)
    target = kernels[75]

    def degenerate_once(kernel, *args):
        if kernel == target:
            raise DegeneracyError(f"injected degeneracy at short rate {kernel.short_rate!r}")
        return real(kernel, *args)

    monkeypatch.setattr(verification, "kernel_coefficients", degenerate_once)
    errors = []
    for count in (1, 2):
        processes(count)
        with pytest.raises(DegeneracyError) as info:
            run_suite("calculus", SEED, 4)
        errors.append(str(info.value))
    assert len(kernels) == 100
    assert errors[0] == errors[1] == f"injected degeneracy at short rate {target.short_rate!r}"


def test_a_refused_fork_runs_the_range_here(processes, monkeypatch, tmp_path, capsys):
    processes(1)
    serial = simulate_csvs(tmp_path / "serial")
    processes(3)

    def refuse():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", refuse)
    assert simulate_csvs(tmp_path / "refused") == serial
    assert capsys.readouterr().err == ""


def test_a_killed_child_has_its_range_recomputed(processes, monkeypatch, tmp_path, capsys):
    processes(1)
    serial = simulate_csvs(tmp_path / "serial")
    processes(3)
    parent = os.getpid()
    filled_here = []
    price_blocks = sim_harness._price_blocks

    def killed_in_a_child(price, s, start, stop):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        filled_here.append(start)
        return price_blocks(price, s, start, stop)

    monkeypatch.setattr(sim_harness, "_price_blocks", killed_in_a_child)
    assert simulate_csvs(tmp_path / "killed") == serial
    # the first range here, then the two the killed children held
    assert filled_here == [0, 8, 16]
    assert capsys.readouterr().err == ""


def fail_on_paths(monkeypatch, paths):
    path_stats = sim_harness._path_stats

    def failing(c, dv, first_path):
        for p in paths:
            if first_path <= p < first_path + len(dv):
                raise IntegrationError(dv.shape[1], f"injected failure on path {p}")
        return path_stats(c, dv, first_path)

    monkeypatch.setattr(sim_harness, "_path_stats", failing)


@pytest.mark.parametrize(
    "paths, reported",
    [
        ((20,), 20),  # in the last range, a child's
        ((12, 20), 12),  # the earlier of two children's ranges
        ((3, 20), 3),  # the parent's range wins over a child's
    ],
)
def test_an_error_in_any_range_is_the_serial_error(processes, monkeypatch, tmp_path, capsys, paths, reported):
    fail_on_paths(monkeypatch, paths)
    outputs = []
    for count in (1, 3):
        processes(count)
        code = cli.main(["simulate", "fig3", "--paths", str(N_PATHS), "--out", str(tmp_path / str(count))])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    code, captured = outputs[0]
    assert code == 4 and captured.out == ""
    assert captured.err == f"numerical failure: injected failure on path {reported}\n"


def test_an_exception_here_stops_and_reaps_the_children(processes):
    processes(3)
    parent = os.getpid()

    def fill(rows, start, stop):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sim_harness._range_rows((2,), sim_harness._path_ranges(N_PATHS, 1000), fill)
    assert time.monotonic() - started < 30


def test_an_interrupt_just_after_a_reap_is_the_error_raised(processes, monkeypatch):
    # the interrupt lands after waitpid reaps the first child and before
    # _fork_ranges forgets its pid: the clean-up must not replace it
    processes(3)
    waitpid = os.waitpid
    calls = []

    def interrupted(pid, options):
        result = waitpid(pid, options)
        calls.append(pid)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return result

    monkeypatch.setattr(os, "waitpid", interrupted)
    with pytest.raises(KeyboardInterrupt):
        sim_harness._range_rows((), sim_harness._path_ranges(N_PATHS, 1000), lambda rows, start, stop: None)
    monkeypatch.undo()
    assert len(calls) == 2  # the reaped child is not waited for again


def test_a_warning_in_a_child_is_given_here(processes):
    # the child's range is filled again here, so the warnings come in path
    # order, as from one process
    def fill(rows, start, stop):
        for p in range(start, stop):
            warnings.warn(f"path {p}", RuntimeWarning)
        rows[start:stop] = np.arange(start, stop)

    results = []
    for count in (1, 3):
        processes(count)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = sim_harness._range_rows((), sim_harness._path_ranges(N_PATHS, 1000), fill)
        results.append((rows.tolist(), [str(w.message) for w in caught]))
    assert results[0] == results[1] == (list(range(N_PATHS)), [f"path {p}" for p in range(N_PATHS)])


def test_usable_cpus_are_the_affinity_mask():
    assert sim_harness._usable_cpus() == len(os.sched_getaffinity(0))


def test_a_price_range_error_in_a_child_is_raised_here(processes):
    # a Brownian volatility of 37 drives a price to zero on a few paths of
    # this fig1 market, the first of them outside the first range
    s = builtin_scenario("fig1", hedging_assets=(GeometricBernoulliSpec(1.0, 37.0, 0.1),), seed=11, n_paths=40)
    errors = []
    for count in (1, 3):
        processes(count)
        with pytest.raises(levy_core.PriceRangeError) as info:
            _price_terminals(s)
        errors.append((str(info.value), info.value.path_index, info.value.step))
    assert errors[0] == errors[1]
    assert errors[0][1] >= sim_harness._path_ranges(40, 1000)[1][0]


# Forces two processes on any machine, with one live extra thread; -W error
# turns any warning, Python 3.12's warning about forking a process with
# threads among them, into an exception on stderr.
_THREADED_MAIN = """
import sys, threading
from levyhedge import cli, sim_harness
sim_harness._usable_cpus = lambda: 2
threading.Thread(target=threading.Event().wait, daemon=True).start()
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "args, expected",
    [
        (["figures", "--paths", "400"], [f"wrote D/{name}.csv" for name in sim_harness.FIGURE_NAMES]),
        (["simulate", "fig3", "--paths", "1000"], ["wrote D/paths.csv and D/golden_path.csv"]),
        # 450 009 golden-path cells: the CSV writer forks too
        (["simulate", "fig3", "--paths", "8", "--steps", "50000"], ["wrote D/paths.csv and D/golden_path.csv"]),
    ],
)
def test_children_write_nothing(tmp_path, args, expected):
    # stdout to a pipe, block-buffered: a child that flushed its copy of the
    # buffer would repeat the lines printed before it was forked
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    cp = subprocess.run(
        [sys.executable, "-W", "error", "-c", _THREADED_MAIN, *args, "--out", "D"],
        cwd=tmp_path,
        env={**env, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert cp.returncode == 0 and cp.stderr == ""
    lines = cp.stdout.splitlines()
    assert [line for line in lines if line.startswith("wrote")] == expected
    assert len(lines) == len(set(lines))
    written = {name for line in expected for name in line.split() if name.startswith("D/")}
    assert {f"D/{name}" for name in os.listdir(tmp_path / "D")} == written | {"D/effective_config.json"}
