import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import blocks_of_8192_path_steps, coarsen, euler_loop, noise_blocks, one_path
from levyhedge import (
    IntegrationError,
    JumpAtom,
    LevyMeasure,
    SingularDenominatorError,
    SymmetricCoefficients,
    TimeGrid,
    builtin_scenario,
    compensate,
    exponential_prices,
    integrate_block,
    integrate_proportional_block,
    natural_coefficients,
    product_coefficients,
    quotient_coefficients,
    run_scenario,
    sample_noise_block,
)
from levyhedge import levy_core, sim_harness
from levyhedge.levy_core import _substream_seeds
from levyhedge.sim_harness import builtin_scenario, with_overrides

SEED = 20240


def coeffs(measure, drift=0.0, beta=0.0, gamma=None):
    gamma = (0.0,) * len(measure) if gamma is None else gamma
    return SymmetricCoefficients(drift, beta, gamma, measure)


# ---------------------------------------------------------------- types


def test_atom_rejects_nonpositive_intensity():
    with pytest.raises(ValueError):
        JumpAtom(1.0, 0.0)
    with pytest.raises(ValueError):
        JumpAtom(1.0, -2.0)


def test_measure_rejects_duplicate_locations():
    with pytest.raises(ValueError):
        LevyMeasure((JumpAtom(1.0, 1.0), JumpAtom(1.0, 2.0)))


def test_bernoulli_measure_splits_rate(bern_measure):
    assert bern_measure.locations.tolist() == [1.0, -1.0]
    assert bern_measure.intensities.tolist() == [7.5, 7.5]
    assert bern_measure.total_intensity == 15.0


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    for steps in (1.5, True, "4", None):
        with pytest.raises(ValueError, match="steps must be an integer"):
            TimeGrid(1.0, steps)
    assert TimeGrid(1.0, np.int64(4)).steps == 4
    grid = TimeGrid(2.0, 4)
    assert grid.dt == 0.5
    assert grid.times.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]


# ---------------------------------------------------------------- noise


def test_empty_measure_has_no_jumps(unit_grid):
    dw, counts = sample_noise_block(LevyMeasure(), unit_grid, SEED, 0, 1)
    assert dw.shape == (1, 1000)
    assert counts.shape == (1, 1000, 0)


def test_sample_noise_is_bit_deterministic(bern_measure, unit_grid):
    a = sample_noise_block(bern_measure, unit_grid, SEED, 7, 1)
    b = sample_noise_block(bern_measure, unit_grid, SEED, 7, 1)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_paths_and_seeds_give_different_noise(bern_measure, unit_grid):
    base, _ = one_path(bern_measure, unit_grid, SEED, 0)
    other_path, _ = one_path(bern_measure, unit_grid, SEED, 1)
    other_seed, _ = one_path(bern_measure, unit_grid, SEED + 1, 0)
    assert not np.array_equal(base, other_path)
    assert not np.array_equal(base, other_seed)


def test_jump_stream_does_not_touch_brownian_stream(bern_measure, unit_grid):
    with_jumps, _ = one_path(bern_measure, unit_grid, SEED, 3)
    without, _ = one_path(LevyMeasure(), unit_grid, SEED, 3)
    assert np.array_equal(with_jumps, without)


def test_mean_total_jump_count_matches_rate(bern_measure, unit_grid):
    n = 10_000
    totals = np.concatenate(
        [counts.sum(axis=(1, 2)) for _, counts in noise_blocks(bern_measure, unit_grid, SEED, n)]
    ).astype(float)
    se = totals.std(ddof=1) / np.sqrt(n)
    assert abs(totals.mean() - 15.0) <= 3.0 * se


def _reference_noise(measure, grid, seed, path_index):
    """One path's noise drawn straight from its (path_index, 0) and
    (path_index, 1) substreams by standard_normal and poisson, with the
    jump rates as an array."""
    rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(path_index, s))) for s in (0, 1)]
    dw = np.sqrt(grid.dt) * rngs[0].standard_normal(grid.steps)
    counts = rngs[1].poisson(measure.intensities * grid.dt, size=(grid.steps, len(measure)))
    return dw, counts


@pytest.mark.parametrize(
    "intensities",
    [(7.5,), (7.5, 7.5), (3.0, 3.0, 3.0), (2.0, 2.0, 2.0, 2.0), (7.5, 2.5), (1.0, 4.0, 9.0), (5.0, 5.0, 5.0, 0.5)],
)
def test_noise_equals_the_array_rate_draw_bitwise(intensities, unit_grid):
    # equal rates are drawn with a scalar rate, unequal ones with the array
    measure = LevyMeasure(tuple(JumpAtom(float(x), w) for x, w in enumerate(intensities)))
    first, n = 2, 5
    dw, counts = sample_noise_block(measure, unit_grid, SEED, first, n)
    for row in range(n):
        ref_dw, ref_counts = _reference_noise(measure, unit_grid, SEED, first + row)
        np.testing.assert_array_equal(dw[row], ref_dw)
        np.testing.assert_array_equal(counts[row], ref_counts)


@pytest.mark.parametrize("horizon, steps", [(1.0, 1000), (1e-310, 1000), (1.0, 1)])
def test_brownian_noise_is_the_normal_draw_bitwise(bern_measure, horizon, steps):
    # scaled standard normals are normal(0.0, sqrt(dt))'s doubles, down to the
    # sign of a zero, also when dt is subnormal
    grid = TimeGrid(horizon, steps)
    dw, _ = sample_noise_block(bern_measure, grid, SEED, 0, 5)
    for p in range(5):
        rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(p, 0)))
        ref = rng.normal(0.0, np.sqrt(grid.dt), steps)
        np.testing.assert_array_equal(dw[p].view(np.uint64), ref.view(np.uint64))


def test_fig3_noise_equals_the_array_rate_draw_bitwise():
    s = builtin_scenario("fig3")
    dw, counts = sample_noise_block(s.measure, s.grid, s.seed, 0, 1000)
    for p in range(1000):
        ref_dw, ref_counts = _reference_noise(s.measure, s.grid, s.seed, p)
        np.testing.assert_array_equal(dw[p], ref_dw)
        np.testing.assert_array_equal(counts[p], ref_counts)


# seeds across the word boundaries of SeedSequence's entropy, and path
# indices across the range of one 32-bit word
EDGE_SEEDS = (0, 1, 7, 1729, 2**32 - 1, 2**32, 2**40 + 5, 2**127 + 3, 2**130 + 99, 2**201 + 17)
EDGE_PATHS = (0, 1, 2**31, 2**32 - 1)


def _seed_sequence_words(seed, path_index, stream):
    return np.random.SeedSequence(seed, spawn_key=(path_index, stream)).generate_state(4, np.uint64)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_substream_seeds_equal_seed_sequence(seed):
    # every edge path at once, and each alone in an array of length 1
    as_array = _substream_seeds(seed, np.array(EDGE_PATHS, dtype=np.uint32))
    assert as_array.shape == (len(EDGE_PATHS), 2, 4) and as_array.dtype == np.uint64
    for row, p in enumerate(EDGE_PATHS):
        one_path = _substream_seeds(seed, np.array([p], dtype=np.uint32))
        assert one_path.shape == (1, 2, 4) and one_path.dtype == np.uint64
        for stream in (0, 1):
            expected = _seed_sequence_words(seed, p, stream)
            np.testing.assert_array_equal(one_path[0, stream], expected)
            np.testing.assert_array_equal(as_array[row, stream], expected)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**256), path_index=st.integers(0, 2**32 - 1))
def test_substream_seeds_equal_seed_sequence_property(seed, path_index):
    one_path = _substream_seeds(seed, np.array([path_index], dtype=np.uint32))
    as_array = _substream_seeds(seed, np.array([path_index, 0], dtype=np.uint32))
    for stream in (0, 1):
        expected = _seed_sequence_words(seed, path_index, stream)
        np.testing.assert_array_equal(one_path[0, stream], expected)
        np.testing.assert_array_equal(as_array[0, stream], expected)


def test_one_path_at_the_last_index_draws_without_a_warning(bern_measure, unit_grid):
    # uint32 products wrap silently only in arrays of one or more
    # dimensions, so one path hashes as a row of length 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dw, counts = sample_noise_block(bern_measure, unit_grid, SEED, 2**32 - 1, 1)
    ref_dw, ref_counts = _reference_noise(bern_measure, unit_grid, SEED, 2**32 - 1)
    np.testing.assert_array_equal(dw[0], ref_dw)
    np.testing.assert_array_equal(counts[0], ref_counts)


def test_noise_across_a_block_boundary(bern_measure):
    # 3 steps put 2730 paths in a block: paths 2724 .. 2734 straddle the
    # boundary between the two blocks, and 4090 .. 4100 end the second
    grid = TimeGrid(1.0, 3)
    with blocks_of_8192_path_steps():
        blocks = list(levy_core._noise_blocks(bern_measure, grid, SEED, 0, 4101))
    assert [first for first, _, _ in blocks] == [0, 2730]
    dw = np.concatenate([b[1] for b in blocks])
    counts = np.concatenate([b[2] for b in blocks])
    for first in (2724, 4090):
        direct_dw, direct_counts = sample_noise_block(bern_measure, grid, SEED, first, 11)
        for row, p in enumerate(range(first, first + 11)):
            ref_dw, ref_counts = _reference_noise(bern_measure, grid, SEED, p)
            for got_dw, got_counts in ((dw[p], counts[p]), (direct_dw[row], direct_counts[row])):
                np.testing.assert_array_equal(got_dw, ref_dw)
                np.testing.assert_array_equal(got_counts, ref_counts)


def test_noise_at_the_last_path_index(bern_measure, unit_grid):
    dw, counts = sample_noise_block(bern_measure, unit_grid, SEED, 2**32 - 2, 2)
    for row, p in enumerate((2**32 - 2, 2**32 - 1)):
        ref_dw, ref_counts = _reference_noise(bern_measure, unit_grid, SEED, p)
        np.testing.assert_array_equal(dw[row], ref_dw)
        np.testing.assert_array_equal(counts[row], ref_counts)


@pytest.mark.parametrize("first, n", [(2**32 - 1, 2), (2**32, 1), (0, 2**32 + 1), (0, 10**12)])
def test_noise_rejects_path_indices_beyond_one_word(bern_measure, unit_grid, first, n):
    with pytest.raises(ValueError, match=r"path indices must lie in \[0, 2\*\*32\)"):
        sample_noise_block(bern_measure, unit_grid, SEED, first, n)
    if first == 0:
        with pytest.raises(ValueError, match=r"path indices must lie in \[0, 2\*\*32\)"):
            next(levy_core._noise_blocks(bern_measure, unit_grid, SEED, 0, n))


@pytest.mark.parametrize("seed", [-1, np.int64(-5), 1.5, "7", True])
def test_noise_rejects_bad_seeds_as_a_scenario_does(bern_measure, unit_grid, seed):
    # a ValueError, as Scenario raises it; SeedSequence would take True as 1
    # and raise a TypeError for 1.5 and "7"
    with pytest.raises(ValueError):
        builtin_scenario("fig1", seed=seed)
    for n_paths in (1, 3):  # one path and three take the same hash
        with pytest.raises(ValueError, match="seed must be"):
            sample_noise_block(bern_measure, unit_grid, seed, 0, n_paths)
    with pytest.raises(ValueError, match="seed must be"):
        next(levy_core._noise_blocks(bern_measure, unit_grid, seed, 0, 3))


def test_noise_shape_validation(bern_measure, unit_grid):
    c = coeffs(bern_measure, beta=0.2)
    kernels = (integrate_block, integrate_proportional_block, exponential_prices)
    dw, counts = np.zeros(1000), np.zeros((1000, 2), dtype=np.int64)
    for kernel in kernels:
        assert kernel([c], dw, counts, unit_grid, [1.0]).shape == (1, 1001)
        assert kernel([c, c, c], dw, counts, unit_grid, [1.0, 2.0, 3.0]).shape == (3, 1001)
        # noise of another grid, and noise of another measure
        with pytest.raises(ValueError):
            kernel([c], np.zeros(999), np.zeros((999, 2), dtype=np.int64), unit_grid, [1.0])
        with pytest.raises(ValueError):
            kernel([c], dw, np.zeros((1000, 1), dtype=np.int64), unit_grid, [1.0])
        with pytest.raises(ValueError):
            kernel([c], np.zeros((3, 1000)), np.zeros((2, 1000, 2), dtype=np.int64), unit_grid, [1.0])
        # no spec, an initial value short, and specs over two measures
        for specs, x0s in (([], []), ([c, c], [1.0]), ([c, coeffs(LevyMeasure.bernoulli(1.0, 0.5))], [1.0, 1.0])):
            with pytest.raises(ValueError):
                kernel(specs, dw, counts, unit_grid, x0s)


# ---------------------------------------------------------------- decoded jump counts


def _assert_oracle_noise(measure, grid, seed, first, n_paths):
    """The block's noise is bit for bit each path's _reference_noise."""
    dw, counts = sample_noise_block(measure, grid, seed, first, n_paths)
    paths = [_reference_noise(measure, grid, seed, p) for p in range(first, first + n_paths)]
    ref_dw, ref_counts = (np.array(a) for a in zip(*paths))
    np.testing.assert_array_equal(dw.view(np.uint64), ref_dw.view(np.uint64))
    assert counts.dtype == np.int64 and counts.flags.c_contiguous
    np.testing.assert_array_equal(counts, ref_counts)
    return counts


def _one_rate_measure(n_atoms, rate, grid):
    return LevyMeasure(tuple(JumpAtom(float(k), rate / grid.dt) for k in range(n_atoms)))


# per-step rates from 1e-300 through the decoder's range and its crossover
# to NumPy's call, up to and beyond the rate 10 where NumPy leaves Knuth's method
STEP_RATES = st.one_of(
    st.sampled_from([1e-300, 1e-17, levy_core._DECODE_MAX_RATE, 2 * levy_core._DECODE_MAX_RATE, 10.0]),
    st.floats(-300.0, np.log10(25.0)).map(lambda e: 10.0**e),
)


@settings(max_examples=150, deadline=None)
@given(
    n_atoms=st.integers(1, 5),
    rate=STEP_RATES,
    steps=st.integers(1, 2000),
    seed=st.integers(0, 2**64),
    path=st.integers(0, 2**32 - 1),
    n_paths=st.integers(1, 4),
)
def test_noise_equals_the_per_path_oracle_property(n_atoms, rate, steps, seed, path, n_paths):
    grid = TimeGrid(1.0, steps)
    first = min(path, 2**32 - n_paths)
    _assert_oracle_noise(_one_rate_measure(n_atoms, rate, grid), grid, seed, first, n_paths)


@settings(max_examples=60, deadline=None)
@given(n_atoms=st.integers(1, 3), rate=st.floats(1e-4, 9.99), steps=st.integers(1, 300), seed=st.integers(0, 2**64))
def test_the_decoder_is_exact_at_every_knuth_rate(n_atoms, rate, steps, seed):
    # above the crossover the decoder is slower than NumPy's call but must
    # still be exact: runs of arrivals are common there
    grid = TimeGrid(1.0, steps)
    with mock.patch.object(levy_core, "_DECODE_MAX_RATE", 10.0):
        _assert_oracle_noise(_one_rate_measure(n_atoms, rate, grid), grid, seed, 7, 3)


def test_pinned_multi_arrival_draws_are_decoded_exactly():
    # one atom at 0.009 arrivals per step, below the crossover: path 47
    # draws 2 arrivals in step 338, and path 10 arrives in steps 350 and 351
    grid = TimeGrid(1.0, 1000)
    measure = LevyMeasure((JumpAtom(1.0, 9.0),))
    assert 0.009 <= levy_core._DECODE_MAX_RATE
    assert _assert_oracle_noise(measure, grid, SEED, 47, 1)[0, 338, 0] == 2
    assert (_assert_oracle_noise(measure, grid, SEED, 10, 1)[0, 350:352, 0] > 0).all()


@pytest.mark.parametrize("margin", [0, 1])
def test_paths_that_use_up_the_margin_are_filled_again(monkeypatch, bern_measure, unit_grid, margin):
    # with no margin every path with an arrival runs short of uniforms; with
    # one, every path with two
    monkeypatch.setattr(levy_core, "_uniform_margin", lambda draws, rate: margin)
    refills = mock.patch.object(levy_core, "_knuth_counts", wraps=levy_core._knuth_counts)
    with refills as decoded:
        counts = _assert_oracle_noise(bern_measure, unit_grid, SEED, 3, 6)
    assert decoded.call_count == 1 + int((counts.sum(axis=(1, 2)) > margin).sum())


def test_a_path_short_of_uniforms_is_filled_again_until_it_has_enough(monkeypatch):
    # one draw at rate 5 reads about 6 uniforms: with no margin a path's row
    # holds one, and its stream is read again into 2, 4, 8, ... uniforms
    monkeypatch.setattr(levy_core, "_uniform_margin", lambda draws, rate: 0)
    monkeypatch.setattr(levy_core, "_DECODE_MAX_RATE", 10.0)
    grid = TimeGrid(1.0, 1)
    counts = _assert_oracle_noise(LevyMeasure((JumpAtom(1.0, 5.0),)), grid, SEED, 0, 40)
    assert counts.max() >= 8


def test_unequal_rates_keep_numpys_call(unit_grid):
    measure = LevyMeasure((JumpAtom(1.0, 7.5), JumpAtom(-1.0, 2.5)))
    with mock.patch.object(levy_core, "_knuth_counts") as decoded:
        _assert_oracle_noise(measure, unit_grid, SEED, 0, 5)
    decoded.assert_not_called()


def _knuth_rule(uniforms, rate, n):
    """n Poisson counts by Knuth's product of uniforms, and the number of
    uniforms they read: a draw multiplies uniforms until the product is at
    most exp(-rate), from the C library as NumPy's sampler takes it, and
    counts the uniforms before that one."""
    limit, used, counts = math.exp(-rate), 0, []
    for _ in range(n):
        product, count = 1.0, 0
        while True:
            product *= uniforms[used]
            used += 1
            if product <= limit:
                break
            count += 1
        counts.append(count)
    return np.array(counts), used


@pytest.mark.parametrize("rate", [1e-300, 1e-12, 0.00375, 0.0075, 0.02, 0.3, 1.0, 4.5, 9.999])
def test_numpy_poisson_is_the_product_of_uniforms_rule(rate):
    n = 400
    drawn = np.random.default_rng(SEED)
    counts = drawn.poisson(rate, n)
    stream = np.random.default_rng(SEED)
    expected, used = _knuth_rule(stream.random(n + 20 * n), rate, n)
    decoder = (
        "levy_core._knuth_counts decodes jump counts from Generator.random as Knuth's product of uniforms, "
        f"which Generator.poisson({rate!r}) no longer matches in this NumPy"
    )
    assert np.array_equal(counts, expected), decoder
    assert used == n + counts.sum(), decoder
    # the poisson generator stopped after exactly those uniforms
    replay = np.random.default_rng(SEED)
    replay.random(used)
    assert drawn.bit_generator.state == replay.bit_generator.state, decoder


def test_numpy_poisson_at_rate_zero_reads_no_uniform():
    drawn, untouched = np.random.default_rng(SEED), np.random.default_rng(SEED)
    assert not drawn.poisson(0.0, 100).any()
    decoder = "levy_core._knuth_counts follows Generator.poisson's sampler, whose poisson(0.0) now reads the stream"
    assert drawn.bit_generator.state == untouched.bit_generator.state, decoder


# ---------------------------------------------------------------- compensate


def test_compensate_zero_integrand(bern_measure):
    assert compensate(bern_measure, (0.0, 0.0)) == 0.0


def test_compensate_single_atom():
    m = LevyMeasure((JumpAtom(1.0, 2.0),))
    assert compensate(m, (3.0,)) == 6.0


def test_compensate_two_atom_value(bern_measure):
    # direct two-term arithmetic: 7.5 (e^0.3 - 1) + 7.5 (e^-0.3 - 1)
    expected = 7.5 * (np.exp(0.3) - 1.0) + 7.5 * (np.exp(-0.3) - 1.0)
    got = compensate(bern_measure, (np.exp(0.3) - 1.0, np.exp(-0.3) - 1.0))
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(0.68008, abs=5e-6)


def test_compensate_is_linear(bern_measure):
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        g1, g2 = rng.normal(size=2), rng.normal(size=2)
        a, b = rng.normal(size=2)
        lhs = compensate(bern_measure, a * g1 + b * g2)
        rhs = a * compensate(bern_measure, g1) + b * compensate(bern_measure, g2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_compensate_length_mismatch(bern_measure):
    with pytest.raises(ValueError):
        compensate(bern_measure, (1.0,))


# ---------------------------------------------------------------- integrate


def test_null_dynamics_stay_constant(bern_measure, unit_grid):
    path = integrate_block([coeffs(bern_measure)], *one_path(bern_measure, unit_grid, SEED, 0), unit_grid, [5.0])[0]
    assert np.all(path == 5.0)


def test_pure_drift_is_exact(bern_measure, unit_grid):
    path = integrate_block([coeffs(bern_measure, drift=1.0)], *one_path(bern_measure, unit_grid, SEED, 0), unit_grid, [2.0])[0]
    assert path[-1] == pytest.approx(3.0, abs=1e-12)


def test_callable_provider_matches_constant(bern_measure):
    # the block kernel against the per-step reference with constant coefficients
    grid = TimeGrid(1.0, 200)
    noise = one_path(bern_measure, grid, SEED, 2)
    const = coeffs(bern_measure, drift=0.1, beta=0.3, gamma=(0.2, -0.1))
    a = integrate_block([const], *noise, grid, [1.5])[0]
    b = euler_loop(lambda step, x: const, *noise, bern_measure, grid, 1.5)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_nonfinite_state_raises_with_step():
    # coefficients stay finite; the running state overflows at step 7, the
    # second of two huge jumps (a negligible compensator keeps the rest finite)
    measure = LevyMeasure((JumpAtom(1.0, 1e-318),))
    grid = TimeGrid(10.0, 10)
    counts = np.zeros((10, 1), dtype=np.int64)
    counts[[6, 7], 0] = 1
    with pytest.raises(IntegrationError) as err:
        integrate_block([coeffs(measure, gamma=(1.7e308,))], np.zeros(10), counts, grid, [0.0])
    assert err.value.step == 7


def test_isometry_brownian_only(unit_grid):
    m = LevyMeasure()
    n = 3000
    c = coeffs(m, beta=1.0)
    blocks = noise_blocks(m, unit_grid, SEED, n)
    sq = np.concatenate([integrate_block([c], dw, counts, unit_grid, [0.0])[0, :, -1] ** 2 for dw, counts in blocks])
    se = sq.std(ddof=1) / np.sqrt(n)
    assert abs(sq.mean() - 1.0) <= 3.0 * se


def test_driftless_integration_keeps_mean(bern_measure, unit_grid):
    n = 3000
    c = coeffs(bern_measure, beta=0.5, gamma=(0.3, -0.3))
    blocks = noise_blocks(bern_measure, unit_grid, SEED + 1, n)
    x = np.concatenate([integrate_block([c], dw, counts, unit_grid, [2.0])[0, :, -1] for dw, counts in blocks])
    se = x.std(ddof=1) / np.sqrt(n)
    assert abs(x.mean() - 2.0) <= 3.0 * se


def test_integrate_proportional_matches_scaled_provider(bern_measure):
    grid = TimeGrid(1.0, 500)
    noise = one_path(bern_measure, grid, SEED, 6)
    c = coeffs(bern_measure, drift=0.05, beta=0.2, gamma=(0.3, -0.2))

    def scaled(step, x):
        return SymmetricCoefficients(
            c.drift * x, c.brownian_vol * x, tuple(np.asarray(c.jump_vol) * x), bern_measure
        )

    a = integrate_proportional_block([c], *noise, grid, [1.0])[0]
    b = euler_loop(scaled, *noise, bern_measure, grid, 1.0)
    np.testing.assert_allclose(a, b, rtol=1e-10)


# ---------------------------------------------------------------- transforms


def test_product_with_null_is_identity(bern_measure):
    a = coeffs(bern_measure, drift=0.2, beta=0.4, gamma=(0.1, -0.3))
    null = SymmetricCoefficients(0.0, 0.0, (0.0,) * len(bern_measure), bern_measure)
    out = product_coefficients(null, a)
    assert out.drift == pytest.approx(a.drift, abs=1e-15)
    assert out.brownian_vol == a.brownian_vol
    assert out.jump_vol == a.jump_vol


def test_product_of_equal_coefficients_worked_example():
    # single atom, intensity 1: alpha' = 2 alpha + beta^2 + gamma^2,
    # beta' = 2 beta, gamma' = 2 gamma + gamma^2
    m = LevyMeasure((JumpAtom(1.0, 1.0),))
    a = SymmetricCoefficients(0.07, 0.1, (0.2,), m)
    out = product_coefficients(a, a)
    assert out.drift == pytest.approx(2 * 0.07 + 0.01 + 0.04, abs=1e-15)
    assert out.brownian_vol == pytest.approx(0.2, abs=1e-15)
    assert out.jump_vol[0] == pytest.approx(0.44, abs=1e-15)


def test_transform_measure_mismatch_raises(bern_measure):
    other = LevyMeasure((JumpAtom(0.5, 1.0), JumpAtom(-0.5, 1.0)))
    a = coeffs(bern_measure, gamma=(0.1, 0.2))
    b = SymmetricCoefficients(0.0, 0.0, (0.1, 0.2), other)
    with pytest.raises(ValueError):
        product_coefficients(a, b)
    with pytest.raises(ValueError):
        quotient_coefficients(a, b)


def test_quotient_of_self_is_null(bern_measure):
    a = coeffs(bern_measure, drift=0.3, beta=0.25, gamma=(0.5, -0.4))
    out = quotient_coefficients(a, a)
    assert out.drift == pytest.approx(0.0, abs=1e-15)
    assert out.brownian_vol == 0.0
    assert out.jump_vol == (0.0, 0.0)


def test_quotient_then_product_recovers_numerator(bern_measure):
    rng = np.random.default_rng(SEED)
    for _ in range(40):
        a = coeffs(bern_measure, rng.normal(0, 0.3), rng.normal(0, 0.4), tuple(rng.uniform(-0.6, 1.2, 2)))
        b = coeffs(bern_measure, rng.normal(0, 0.3), rng.normal(0, 0.4), tuple(rng.uniform(-0.6, 1.2, 2)))
        back = product_coefficients(quotient_coefficients(a, b), b)
        assert back.drift == pytest.approx(a.drift, abs=1e-12)
        assert back.brownian_vol == pytest.approx(a.brownian_vol, abs=1e-12)
        np.testing.assert_allclose(back.jump_vol, a.jump_vol, rtol=0, atol=1e-12)


def test_quotient_singular_denominator(bern_measure):
    a = coeffs(bern_measure, gamma=(0.2, 0.2))
    b = coeffs(bern_measure, gamma=(-1.0, 0.2))
    with pytest.raises(SingularDenominatorError):
        quotient_coefficients(a, b)


# ---------------------------------------------------------------- exponential paths


def test_exponential_product_and_quotient_pointwise(bern_measure, unit_grid):
    rng = np.random.default_rng(SEED + 2)
    for trial in range(10):
        a = coeffs(bern_measure, rng.normal(0, 0.3), rng.normal(0, 0.4), tuple(rng.uniform(-0.6, 1.2, 2)))
        b = coeffs(bern_measure, rng.normal(0, 0.3), rng.normal(0, 0.4), tuple(rng.uniform(-0.6, 1.2, 2)))
        noise = one_path(bern_measure, unit_grid, SEED + 3, trial)
        xa, xb, prod, quot = exponential_prices(
            [a, b, product_coefficients(a, b), quotient_coefficients(a, b)], *noise, unit_grid, [1.2, 0.8, 1.2 * 0.8, 1.2 / 0.8]
        )
        np.testing.assert_allclose(prod, xa * xb, rtol=1e-10)
        np.testing.assert_allclose(quot, xa / xb, rtol=1e-10)


def _two_cumsum_prices(c, dw, counts, grid, x0):
    """exponential_prices with beta W_t and the jump log sum accumulated by
    separate cumsums."""
    gam = c.jump_vol_array
    jump_log = np.zeros(dw.shape)
    for k, factor in enumerate(np.log1p(gam)):
        jump_log += counts[..., k] * factor
    exponent = (
        (c.drift - 0.5 * c.brownian_vol**2 - compensate(c.measure, gam)) * grid.times[1:]
        + c.brownian_vol * np.cumsum(dw, axis=-1)
        + np.cumsum(jump_log, axis=-1)
    )
    return np.concatenate([np.full(dw.shape[:-1] + (1,), x0), x0 * np.exp(exponent)], axis=-1)


@pytest.mark.parametrize("steps, n_paths, rtol", [(1000, 8, 1e-13), (50_000, 2, 1e-12)])
def test_exponential_prices_match_the_two_cumsum_formula(steps, n_paths, rtol):
    # fig3's contract and assets, then random coefficients with drift
    s = builtin_scenario("fig3")
    grid = TimeGrid(1.0, steps)
    noise = sample_noise_block(s.measure, grid, SEED + 5, 0, n_paths)
    rng = np.random.default_rng(SEED + 6)
    cases = [natural_coefficients(spec, s.measure) for spec in (s.natural_contract(), *s.natural_assets())] + [
        coeffs(s.measure, rng.normal(0, 0.3), rng.normal(0, 0.4), tuple(rng.uniform(-0.6, 1.2, 2)))
        for _ in range(5)
    ]
    for c, prices in zip(cases, exponential_prices(cases, *noise, grid, [100.0] * len(cases))):
        np.testing.assert_allclose(prices, _two_cumsum_prices(c, *noise, grid, 100.0), rtol=rtol, atol=0)


def _per_row_prices(c, dw, counts, grid, x0):
    """One row of exponential_prices as each row was formed before whole
    rows were exponentiated: column 0 set to x0, the other columns'
    exponents accumulated, exponentiated and scaled in place."""
    row = np.empty(dw.shape[:-1] + (grid.steps + 1,))
    log_steps = c.brownian_vol * dw
    for k, factor in enumerate(c._log_jump_factors):
        log_steps += counts[..., k] * factor
    row[..., 0] = x0
    exponent = row[..., 1:]
    np.cumsum(log_steps, axis=-1, out=exponent)
    exponent += (c.drift - 0.5 * c.brownian_vol**2 - c._compensator) * grid.times[1:]
    np.exp(exponent, out=exponent)
    exponent *= x0
    return row


@pytest.mark.parametrize("steps", [1, 2, 1000])
@pytest.mark.parametrize("measure", [LevyMeasure(), LevyMeasure.bernoulli(15.0, 0.5)], ids=["empty", "bernoulli"])
def test_exponential_rows_equal_the_per_row_formula_bitwise(measure, steps):
    grid = TimeGrid(1.0, steps)
    noise = sample_noise_block(measure, grid, SEED + 7, 0, 5)
    n = len(measure)
    specs = [
        coeffs(measure, drift=-0.3, beta=0.2, gamma=(0.1, -0.2)[:n]),  # drift * t_0 is -0.0
        coeffs(measure, drift=0.05, beta=0.0, gamma=(0.4, -0.5)[:n]),  # no Brownian part
        coeffs(measure, drift=0.0, beta=0.35),
    ]
    x0s = [1e-300, 1e300, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = exponential_prices(specs, *noise, grid, x0s)
    assert np.isfinite(values).all() and (values > 0.0).all()
    for c, x0, row in zip(specs, x0s, values):
        assert (row[:, 0] == x0).all()
        np.testing.assert_array_equal(row.view(np.uint64), _per_row_prices(c, *noise, grid, x0).view(np.uint64))


def test_exponential_requires_jump_vol_above_minus_one(bern_measure, unit_grid):
    # the rule is checked on each call, before any row is priced: a failed
    # check is not cached, and no log(1 + gamma) is taken
    good = coeffs(bern_measure, gamma=(0.2, 0.3))
    noise = one_path(bern_measure, unit_grid, SEED, 0)
    for bad in (coeffs(bern_measure, gamma=(-1.0, 0.0)), coeffs(bern_measure, gamma=(0.2, -1.5))):
        for _ in range(2):
            with np.errstate(all="raise"), pytest.raises(
                ValueError, match="exponential dynamics need jump volatilities > -1"
            ):
                exponential_prices([good, bad], *noise, unit_grid, [1.0, 1.0])


def test_jump_vol_array_is_one_read_only_array(bern_measure):
    c = coeffs(bern_measure, gamma=(0.2, -0.3))
    gam = c.jump_vol_array
    assert c.jump_vol_array is gam
    np.testing.assert_array_equal(gam, [0.2, -0.3])
    with pytest.raises(ValueError, match="read-only"):
        gam[0] = 1.0


def test_a_run_compensates_each_spec_once(monkeypatch):
    # fig3's contract and two assets over several blocks, in one process:
    # each spec's compensator is computed on its first block and then read
    s = with_overrides(builtin_scenario("fig3"), n_paths=40)
    assert len(s.hedging_assets) == 2 and levy_core._block_paths(s.grid.steps) < s.n_paths
    monkeypatch.setattr(sim_harness, "_usable_cpus", lambda: 1)
    with mock.patch.object(levy_core, "compensate", wraps=levy_core.compensate) as counted:
        run_scenario(s)
    assert counted.call_count == 3


def test_euler_paths_approach_closed_form_at_first_order(bern_measure):
    # pure-jump coefficients: the Euler error is O(dt), so halving dt halves
    # the median sup-norm gap on shared (coarsened) noise.
    c = coeffs(bern_measure, drift=0.02, gamma=tuple(np.expm1(0.3 * bern_measure.locations)))
    fine_grid, coarse_grid = TimeGrid(1.0, 2000), TimeGrid(1.0, 1000)
    fine = sample_noise_block(bern_measure, fine_grid, SEED + 4, 0, 40)
    gaps = []
    for grid, noise in ((coarse_grid, coarsen(*fine)), (fine_grid, fine)):
        euler = integrate_proportional_block([c], *noise, grid, [1.0])[0]
        gaps.append(np.abs(euler - exponential_prices([c], *noise, grid, [1.0])[0]).max(axis=1))
    assert np.median(gaps[1] / gaps[0]) <= 0.55
