"""Generator conformance: goldens, unit mapping, bounded sorted series."""

import math
import random
import tracemalloc

import numpy as np
import pytest

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
