"""The standing output corpus: each command below is rerun and compared with
its committed output under tests/golden/.

The text outside the numbers must match exactly.  Printed numbers may move
by a relative 1e-9 or an absolute 1e-12, whichever is looser, and CSV
numbers by 1e-9 of their column's largest magnitude: the bytes depend on
the SIMD kernels NumPy dispatches to on the CPU at hand, so they are stable
on one machine and NumPy build, not across CPUs.  A change that moves the
output on purpose regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from levyhedge import cli

GOLDEN = Path(__file__).parent / "golden"

# the stdout of each command, then the CSVs each writes into --out
STDOUT_COMMANDS = [
    *(["hedge", name] for name in ("fig1", "fig2a", "fig2b", "fig3", "fig4")),
    ["simulate", "fig2a", "--paths", "50"],
    ["simulate", "fig3"],
    ["simulate", "fig3", "--paths", "8", "--steps", "50000"],
    ["verify", "all", "--paths", "150"],
]
CSV_COMMANDS = [
    ["figures", "--steps", "100"],
    ["simulate", "fig3", "--paths", "50", "--steps", "100"],
]

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _name(argv: list[str]) -> str:
    return "_".join(arg.lstrip("-") for arg in argv)


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK
    return out.getvalue()


def _write_csvs(argv: list[str], out: Path) -> list[Path]:
    _stdout([*argv, "--out", str(out)])
    return sorted(out.glob("*.csv"))


def _assert_text_close(got: str, want: str) -> None:
    assert _NUMBER.split(got) == _NUMBER.split(want)
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert abs(float(g) - float(w)) <= max(1e-9 * abs(float(w)), 1e-12), (g, w)


def _read_csv(path: Path) -> tuple[str, np.ndarray, np.ndarray]:
    """Header, blank-cell mask and values (blank cells NaN) of a CSV."""
    header, *rows = path.read_text(encoding="utf-8").split("\n")[:-1]
    cells = np.array([row.split(",") for row in rows])
    blank = cells == ""
    return header, blank, np.where(blank, "nan", cells).astype(np.float64)


def _assert_csv_close(got: Path, want: Path) -> None:
    got_header, got_blank, g = _read_csv(got)
    want_header, want_blank, w = _read_csv(want)
    assert got_header == want_header
    assert np.array_equal(got_blank, want_blank)
    assert np.array_equal(np.isnan(g), np.isnan(w))
    tol = 1e-9 * np.nanmax(np.abs(w), axis=0, initial=0.0)
    with np.errstate(invalid="ignore"):  # inf - inf
        close = (g == w) | (np.abs(g - w) <= tol) | np.isnan(w)
    assert close.all(), f"{want.name}: {np.argwhere(~close)[:5].tolist()} (row, column) off by more than {tol}"


@pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=_name)
def test_stdout_matches_corpus(argv):
    _assert_text_close(_stdout(argv), (GOLDEN / f"{_name(argv)}.txt").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CSV_COMMANDS, ids=_name)
def test_csvs_match_corpus(tmp_path: Path, argv):
    want = sorted((GOLDEN / _name(argv)).glob("*.csv"))
    got = _write_csvs(argv, tmp_path)
    assert [p.name for p in got] == [p.name for p in want]
    for g, w in zip(got, want):
        _assert_csv_close(g, w)


def regenerate() -> None:
    """Rewrite tests/golden/ from the commands' current output."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    for argv in STDOUT_COMMANDS:
        (GOLDEN / f"{_name(argv)}.txt").write_text(_stdout(argv), encoding="utf-8", newline="\n")
    for argv in CSV_COMMANDS:
        _write_csvs(argv, GOLDEN / _name(argv))
        (GOLDEN / _name(argv) / "effective_config.json").unlink()


if __name__ == "__main__":
    regenerate()
