"""The two input rules of levy_core, one table row per entry point.

Every count, seed and path index goes through ``_check_count`` and every
per-atom length through ``_check_atoms``, so each entry point rejects a bad
value with the same message form.
"""

import json
import re

import numpy as np
import pytest

from levyhedge import cli, levy_core, sim_harness, verification
from levyhedge.hedging import volatility_gram
from levyhedge.levy_core import (
    JumpAtom,
    LevyMeasure,
    SymmetricCoefficients,
    TimeGrid,
    compensate,
    exponential_prices,
    integrate_block,
    sample_noise_block,
)
from levyhedge.market import (
    AssetSpec,
    PricingKernelSpec,
    benchmark_coefficients,
    kernel_coefficients,
    natural_coefficients,
)
from levyhedge.sim_harness import builtin_scenario, with_overrides

SEED = 1729
MAX_PATHS = sim_harness._MAX_PATHS
MAX_STEPS = sim_harness._MAX_STEPS
MEASURE = LevyMeasure.bernoulli(rate=15.0, up_prob=0.5)
GRID = TimeGrid(1.0, 10)


def _noise_block(**kwargs):
    args = {"seed": SEED, "first_path": 0, "n_paths": 2, **kwargs}
    return sample_noise_block(MEASURE, GRID, args["seed"], args["first_path"], args["n_paths"])


def _noise_blocks(**kwargs):
    args = {"seed": SEED, "start": 0, "stop": 2, **kwargs}
    return next(levy_core._noise_blocks(MEASURE, GRID, args["seed"], args["start"], args["stop"]))


def _run_suite(**kwargs):
    args = {"seed": SEED, "n_paths": None, **kwargs}
    return verification.run_suite("isometry", args["seed"], args["n_paths"])


def _rows(entry, call, what, below=None, above=None, arg=None):
    """A bool, a float and the given out-of-bounds values of one count."""
    arg = arg or what
    rows = [(True, f"{what} must be an integer, got True"), (2.5, f"{what} must be an integer, got 2.5")]
    if below is not None:
        rows.append((below[0], f"{what} must be at least {below[1]}, got {below[0]}"))
    if above is not None:
        rows.append((above[0], f"{what} must be at most {above[1]}, got {above[0]}"))
    return [pytest.param(call, arg, value, message, id=f"{entry}-{arg}-{value}") for value, message in rows]


COUNT_ROWS = [
    *_rows("TimeGrid", lambda steps: TimeGrid(1.0, steps), "steps", below=(0, 1)),
    *_rows("Scenario", lambda **f: builtin_scenario("fig3", **f), "n_paths", (0, 1), (MAX_PATHS + 1, MAX_PATHS)),
    *_rows("Scenario", lambda **f: builtin_scenario("fig3", **f), "seed", below=(-1, 0)),
    *_rows("Scenario", lambda **f: builtin_scenario("fig3", **f), "steps", above=(MAX_STEPS + 1, MAX_STEPS)),
    *_rows("Scenario", lambda **f: builtin_scenario("fig2a", **f), "hedge_asset_index"),
    *_rows("sample_noise_block", _noise_block, "seed", below=(-1, 0)),
    *_rows("sample_noise_block", _noise_block, "first_path", below=(-1, 0)),
    *_rows("sample_noise_block", _noise_block, "n_paths", below=(0, 1)),
    *_rows("_noise_blocks", _noise_blocks, "seed", below=(-1, 0)),
    *_rows("_noise_blocks", _noise_blocks, "first_path", below=(-1, 0), arg="start"),
    *_rows("_noise_blocks", _noise_blocks, "stop"),
    *_rows("run_suite", _run_suite, "seed", below=(-1, 0)),
    *_rows("run_suite", _run_suite, "paths", (1, 2), (MAX_PATHS + 1, MAX_PATHS), arg="n_paths"),
]


@pytest.mark.parametrize("call, arg, value, message", COUNT_ROWS)
def test_every_count_is_checked_by_one_rule(monkeypatch, call, arg, value, message):
    monkeypatch.setattr(verification, "_SUITES", dict.fromkeys(verification.SUITE_NAMES, None))
    with pytest.raises(ValueError) as info:
        call(**{arg: value})
    # a reason may follow the shared form, as verify's two-path bound does
    assert re.fullmatch(re.escape(message) + r"(: .*)?", str(info.value))


def test_counts_below_the_start_of_a_range_name_the_empty_range():
    with pytest.raises(ValueError, match="^n_paths must be at least 1, got 0$"):
        _noise_blocks(start=3, stop=3)


def test_counts_are_stored_as_python_ints():
    s = builtin_scenario("fig2a", n_paths=np.int64(3), seed=np.uint32(7), steps=np.int32(10))
    s = with_overrides(s, hedge_asset_index=np.int8(1))
    values = (s.n_paths, s.seed, s.grid.steps, s.hedge_asset_index)
    assert values == (3, 7, 10, 1) and all(type(v) is int for v in values)


def test_numpy_int_scenario_survives_the_json_round_trip():
    s = builtin_scenario("fig3", n_paths=np.int64(3), steps=np.int32(10), seed=np.uint64(5))
    text = json.dumps(cli.scenario_to_config(s))
    assert cli.build_scenario(json.loads(text)) == s


def test_rejected_numpy_values_print_as_python_numbers():
    with pytest.raises(ValueError, match=r"^steps must be an integer, got 1\.5$"):
        TimeGrid(1.0, np.float64(1.5))
    with pytest.raises(ValueError, match="^location must be finite, got inf$"):
        JumpAtom(np.float64(np.inf), 1.0)
    with pytest.raises(ValueError, match="^n_paths must be at least 1, got -2$"):
        builtin_scenario("fig3", n_paths=np.int16(-2))


def test_paths_message_keeps_its_two_path_reason():
    with pytest.raises(ValueError) as info:
        _run_suite(n_paths=1)
    assert str(info.value) == "paths must be at least 2, got 1: the Monte Carlo standard errors need two paths"


# ---------------------------------------------------------------- per-atom lengths


def _atoms_message(what: str, n: int) -> str:
    return f"^{what} has {n} jump entries but the measure has {len(MEASURE)} atoms$"


_ASSET = AssetSpec(100.0, 0.2, (0.1, -0.1))
_SHORT = AssetSpec(100.0, 0.2, (0.1,))
_KERNEL = PricingKernelSpec(0.01, 0.1, (0.2, 0.1, 0.0))
_COEFFS = SymmetricCoefficients(0.0, 0.2, (0.1, -0.1), MEASURE)
_WRONG_COUNTS = (np.zeros(10), np.zeros((10, 3), dtype=np.int64))


@pytest.mark.parametrize(
    "call, what, n",
    [
        pytest.param(lambda: SymmetricCoefficients(0.0, 0.2, (0.1,), MEASURE), "jump_vol", 1, id="SymmetricCoefficients"),
        pytest.param(lambda: compensate(MEASURE, (0.1, 0.2, 0.3)), "jump_vol", 3, id="compensate"),
        pytest.param(lambda: volatility_gram(_SHORT, [_ASSET], MEASURE), "contract", 1, id="volatility_gram-contract"),
        pytest.param(lambda: volatility_gram(_ASSET, [_ASSET, _SHORT], MEASURE), "asset", 1, id="volatility_gram-asset"),
        pytest.param(lambda: natural_coefficients(_SHORT, MEASURE), "jump_vol", 1, id="natural_coefficients"),
        pytest.param(lambda: kernel_coefficients(_KERNEL, MEASURE), "jump_vol", 3, id="kernel_coefficients"),
        pytest.param(lambda: benchmark_coefficients(_KERNEL, MEASURE), "kernel", 3, id="benchmark_coefficients"),
        pytest.param(lambda: exponential_prices([_COEFFS], *_WRONG_COUNTS, GRID, [1.0]), "jump_counts", 3, id="exponential_prices"),
        pytest.param(lambda: integrate_block([_COEFFS], *_WRONG_COUNTS, GRID, [1.0]), "jump_counts", 3, id="integrate_block"),
    ],
)
def test_every_per_atom_length_is_checked_by_one_rule(call, what, n):
    with pytest.raises(ValueError, match=_atoms_message(what, n)):
        call()


# ---------------------------------------------------------------- the Bernoulli measure


@pytest.mark.parametrize(
    "rate, up_prob, message",
    [
        (0.0, 0.4, "rate must be positive, got 0.0"),
        (-1.0, 0.4, "rate must be positive, got -1.0"),
        (np.nan, 0.4, "rate must be finite, got nan"),
        (True, 0.4, "rate must be a number, got True"),
        (5e-324, 0.4, "rate 5e-324 with up_prob 0.4 gives an atom intensity that underflows to 0"),
        (1e-320, 1e-10, "rate 1e-320 with up_prob 1e-10 gives an atom intensity that underflows to 0"),
    ],
)
def test_bernoulli_rejects_a_rate_that_leaves_an_atom_without_intensity(rate, up_prob, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LevyMeasure.bernoulli(rate=rate, up_prob=up_prob)
