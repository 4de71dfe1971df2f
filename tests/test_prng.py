"""Generator conformance: goldens, unit mapping, bounded sorted series."""

import math
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darl import prng
from darl.errors import InsufficientSamples, InvalidBounds, ValidationError
from darl.prng import KNOWN_FERMAT_PRIMES, MAX_SAMPLE_COUNT, MersenneTwister, uniform_series

from golden_data import (
    FIRST_UNIT_SEED_5,
    GOLDEN_KEY,
    GOLDEN_KEY_WORDS,
    GOLDEN_WORDS,
)


def test_seeding_sets_word0_and_cursor():
    words = MersenneTwister(5).getstate()[1]
    assert words[0] == 5
    assert words[624] == 624


def test_same_seed_gives_identical_states():
    assert MersenneTwister(5).getstate() == MersenneTwister(5).getstate()


def test_seed_zero_is_valid_and_nonzero():
    words = MersenneTwister(0).getstate()[1][:624]
    assert any(w != 0 for w in words)


@pytest.mark.parametrize("bad", [-1, 2**32, 2**40])
def test_out_of_range_seed_rejected(bad):
    with pytest.raises(ValidationError):
        MersenneTwister(bad)


def test_empty_seeding_key_rejected():
    with pytest.raises(ValidationError, match="seeding key must be nonempty"):
        MersenneTwister.from_key(())


def test_seeded_state_memo_memory_is_bounded():
    # each memo entry is a 625-int setstate tuple, about 24 KiB; 200 fresh seeds or 20 fresh keys
    # (more than one memo holds; key seeding is slow under tracemalloc) must not all stay
    prng._seeded_state.cache_clear()
    tracemalloc.start()
    try:
        for seed in range(10_000, 10_200):
            MersenneTwister(seed)
        for seed in range(10_000, 10_020):
            MersenneTwister.from_key((seed, 0x123))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024, retained


@pytest.mark.parametrize("edge", [0, 2**32 - 1])
def test_edge_seeds_accepted(edge):
    MersenneTwister(edge).getrandbits(32)


@pytest.mark.parametrize("seed", sorted(GOLDEN_WORDS))
def test_golden_words_per_fermat_seed(seed):
    got = tuple(MersenneTwister(seed).draw_words(10).tolist())
    assert got == GOLDEN_WORDS[seed]


def test_golden_array_seeded_vector():
    gen = MersenneTwister.from_key(GOLDEN_KEY)
    assert gen.getrandbits(32) == 1067595299
    gen = MersenneTwister.from_key(GOLDEN_KEY)
    assert tuple(gen.draw_words(10).tolist()) == GOLDEN_KEY_WORDS


def test_first_output_seed5_matches_golden():
    assert MersenneTwister(5).getrandbits(32) == GOLDEN_WORDS[5][0]


def test_draw_words_range():
    words = MersenneTwister(5).draw_words(10_000)
    assert words.min() >= 0
    assert int(words.max()) <= 2**32 - 1


@pytest.mark.parametrize("seed", KNOWN_FERMAT_PRIMES)
def test_reproducibility_10000_words(seed):
    a = MersenneTwister(seed).draw_words(10_000)
    b = MersenneTwister(seed).draw_words(10_000)
    assert np.array_equal(a, b)


def test_single_and_bulk_draws_share_one_stream():
    rng = random.Random(20260814)
    gen_bulk = MersenneTwister(1301)
    gen_single = MersenneTwister(1301)
    for _ in range(20):
        count = rng.randint(1, 700)
        chunk = gen_bulk.draw_words(count).tolist()
        assert chunk == [gen_single.getrandbits(32) for _ in range(count)]


def test_cursor_stays_in_range():
    gen = MersenneTwister(17)
    for _ in range(1500):
        gen.getrandbits(32)
        assert 0 <= gen.getstate()[1][624] <= 624


def test_first_unit_is_combination_of_first_two_words():
    w0, w1 = GOLDEN_WORDS[5][:2]
    expected = ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53
    assert MersenneTwister(5).random() == expected
    assert expected == FIRST_UNIT_SEED_5


def test_units_within_half_open_interval():
    units = MersenneTwister(257).draw_units(100_000)
    assert units.min() >= 0.0
    assert units.max() < 1.0


def test_unit_mean_seed17():
    units = MersenneTwister(17).draw_units(100_000)
    assert abs(float(units.mean()) - 0.5) < 0.005


def test_unit_empirical_cdf_close_to_uniform():
    # Kolmogorov-Smirnov style max deviation on 10,000 draws
    units = np.sort(MersenneTwister(65537).draw_units(10_000))
    n = len(units)
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - units))
    d_minus = float(np.max(units - (grid - 1.0 / n)))
    assert max(d_plus, d_minus) < 0.02


def test_draw_units_matches_random_stream():
    gen_a = MersenneTwister(3)
    gen_b = MersenneTwister(3)
    bulk = gen_a.draw_units(1000)
    singles = np.array([gen_b.random() for _ in range(1000)])
    assert np.array_equal(bulk, singles)


@pytest.mark.parametrize("seed", KNOWN_FERMAT_PRIMES + (0, 2**32 - 1))
def test_draw_units_match_numpy_random_state(seed):
    # an independent MT19937 over 10,000 units, i.e. 20,000 words and 33 twists
    expected = np.random.RandomState(seed).random_sample(10_000)
    assert np.array_equal(MersenneTwister(seed).draw_units(10_000), expected)


def test_from_key_state_matches_numpy_random_state():
    # numpy squeezes a one-element key to scalar seeding, so keys have 2..8 words
    rng = random.Random(20261017)
    for case in range(300):
        key = [rng.randrange(2**32) for _ in range(rng.randint(2, 8))]
        if case % 3 == 0:  # end in zero words, which packing the key into an int would drop
            zeros = rng.randint(1, len(key) - 1)
            key[-zeros:] = [0] * zeros
        expected = np.random.RandomState(np.array(key)).get_state()[1]
        words = MersenneTwister.from_key(key).getstate()[1]
        assert list(words[:624]) == expected.tolist(), key
        assert words[624] == 624


def test_uniform_series_published_configuration():
    series = uniform_series(3, 538, 25.81, 31.01, "ascending")
    assert len(series) == 538
    assert np.all(np.diff(series) >= 0.0)
    assert series.min() >= 25.81
    assert series.max() <= 31.01


def test_uniform_series_degenerate_interval():
    series = uniform_series(3, 538, 25.0, 25.0)
    assert np.all(series == 25.0)


def test_uniform_series_determinism():
    a = uniform_series(17, 538, 25.81, 31.01, "ascending")
    b = uniform_series(17, 538, 25.81, 31.01, "ascending")
    assert np.array_equal(a, b)


def test_uniform_series_descending_reverses_ascending():
    asc = uniform_series(5, 200, 20.0, 30.0, "ascending")
    desc = uniform_series(5, 200, 20.0, 30.0, "descending")
    assert np.array_equal(desc, asc[::-1])


def test_uniform_series_values_immutable():
    series = uniform_series(5, 10, 0.0, 1.0)
    assert isinstance(series, np.ndarray)
    with pytest.raises(ValueError):
        series[0] = 99.0


def test_uniform_series_errors():
    with pytest.raises(InsufficientSamples):
        uniform_series(5, 1, 0.0, 1.0)
    with pytest.raises(InvalidBounds):
        uniform_series(5, 10, 2.0, 1.0)
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf),
                   (-1e308, 1e308),  # finite bounds whose span overflows to inf
                   (-2e6, 0.0), (0.0, 1e6 + 1)):  # beyond TEMPERATURE_LIMIT_C
        with pytest.raises(InvalidBounds, match="finite"):
            uniform_series(5, 10, lo, hi)
    with pytest.raises(ValidationError, match="exceeds the maximum"):
        uniform_series(5, MAX_SAMPLE_COUNT + 1, 0.0, 1.0)
    with pytest.raises(ValidationError):
        uniform_series(5, 10, 0.0, 1.0, "sideways")


def test_uniform_series_property_battery():
    rng = random.Random(424242)
    for _ in range(25):
        seed = rng.randrange(2**32)
        n = rng.randint(2, 400)
        lo, hi = sorted((rng.uniform(-50, 50), rng.uniform(-50, 50)))
        order = rng.choice(("ascending", "descending"))
        series = uniform_series(seed, n, lo, hi, order)
        assert len(series) == n
        assert series.min() >= lo
        assert series.max() <= hi
        diffs = np.diff(series)
        assert np.all(diffs >= 0.0) if order == "ascending" else np.all(diffs <= 0.0)


def fresh_series(seed, n, t_min, t_max, order):
    """uniform_series built from a fresh generator's first n units, without the kept streams."""
    values = t_min + MersenneTwister(seed).draw_units(n) * (t_max - t_min)
    np.clip(values, t_min, t_max, out=values)
    values.sort()
    return values[::-1] if order == "descending" else values


def assert_kept_streams_are_fresh_prefixes():
    for seed, kept in prng._kept_streams.items():
        assert seed in KNOWN_FERMAT_PRIMES
        assert not kept.flags.writeable
        assert len(kept) <= prng._KEPT_UNITS == 2**16
        assert np.array_equal(kept, MersenneTwister(seed).draw_units(len(kept)))


bounds = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).map(sorted)
series_calls = st.tuples(st.one_of(st.sampled_from(KNOWN_FERMAT_PRIMES), st.integers(0, 2**32 - 1)),
                         st.integers(2, 70_000), st.sampled_from(("ascending", "descending")), bounds)


@settings(max_examples=40, deadline=None)
@given(calls=st.lists(series_calls, min_size=1, max_size=6))
@example(calls=[(3, 2**16 + 1, "ascending", [0.0, 1.0]), (3, 2**16, "descending", [-1.0, 1.0]),
                (3, 70_000, "ascending", [24.0, 31.0]), (3, 2, "descending", [24.0, 31.0]),
                (7, 1_000, "ascending", [24.0, 31.0])])
def test_series_cut_from_kept_streams_equal_fresh_draws(calls):
    # n runs past the 2^16 units kept per seed, in either order, so a call may extend a stream,
    # cut a prefix from it or draw past the cap and keep nothing
    prng._kept_streams.clear()
    for seed, n, order, (t_min, t_max) in calls:
        before = dict(prng._kept_streams)
        series = uniform_series(seed, n, t_min, t_max, order)
        assert not series.flags.writeable
        assert np.array_equal(series, fresh_series(seed, n, t_min, t_max, order))
        if seed not in KNOWN_FERMAT_PRIMES or n > prng._KEPT_UNITS:
            assert prng._kept_streams.keys() == before.keys()
            assert all(prng._kept_streams[key] is kept for key, kept in before.items())
        else:
            assert len(prng._kept_streams[seed]) >= n
    assert_kept_streams_are_fresh_prefixes()


def test_kept_streams_retain_only_five_arrays_of_at_most_2_16_units():
    # 2.5 MiB by construction: other seeds and longer series are drawn fresh and kept nowhere
    seeds = KNOWN_FERMAT_PRIMES + (7, 2**32 - 1)
    for seed in seeds:  # the seeded-state memo is not what this measures
        MersenneTwister(seed)
    prng._kept_streams.clear()
    tracemalloc.start()
    try:
        for n in (1_000, prng._KEPT_UNITS, prng._KEPT_UNITS + 1, 500):
            for seed in seeds:
                uniform_series(seed, n, 0.0, 1.0)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kept = sum(stream.nbytes for stream in prng._kept_streams.values())
    assert sorted(prng._kept_streams) == sorted(KNOWN_FERMAT_PRIMES) and kept == 5 * 8 * 2**16
    assert retained < kept + 64 * 1024, retained


def test_concurrent_callers_of_one_seed_get_fresh_draw_series():
    # four threads, more than the cores of a small runner, switching every microsecond, so that
    # one extends seed 3's kept stream while others cut from it or replace it
    prng._kept_streams.clear()
    start = threading.Barrier(4)

    def call_seed_3(thread_seed):
        rng = random.Random(thread_seed)
        start.wait(timeout=60)
        mismatches = []
        for _ in range(15):
            n = rng.randint(2, 20_000)
            order = rng.choice(("ascending", "descending"))
            if not np.array_equal(uniform_series(3, n, 24.0, 31.0, order), fresh_series(3, n, 24.0, 31.0, order)):
                mismatches.append((thread_seed, n, order))
        return mismatches

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(call_seed_3, thread_seed) for thread_seed in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[]] * 4
    assert list(prng._kept_streams) == [3]
    assert_kept_streams_are_fresh_prefixes()
