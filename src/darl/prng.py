"""MT19937 pseudo-random generation and sorted bounded uniform series.

CPython's :class:`random.Random` is the reference MT19937 of Matsumoto and
Nishimura (1998): the same 624-word twist and tempering, and ``random()``
is the reference two-word 53-bit mapping to [0, 1) (``genrand_res53``).
:class:`MersenneTwister` therefore only loads a seeded state into it, and
its word and unit streams are bit-reproducible against any conforming
implementation seeded the same way (``np.random.RandomState`` among them).

Seeding is the one part built here by hand. ``random.Random(seed)`` always
runs the init-by-array scheme, even for a scalar seed, whereas the
reference scalar seeding is the Knuth multiplicative recurrence; and a key
packed into one integer loses its high zero words, so :meth:`from_key`
runs the reference init-by-array recurrence over the key as given.

Prefix property: a fresh generator's ``draw_units(n)`` is the first n units
of any longer draw of its seed (unit i takes words 2i and 2i+1), so
:func:`uniform_series` cuts a Fermat prime seed's series from its kept stream.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InsufficientSamples, InvalidBounds, ValidationError

_N = 624
_WORD_MASK = 0xFFFFFFFF

#: The five known Fermat primes, used as the default seed set.
KNOWN_FERMAT_PRIMES = (3, 5, 17, 257, 65537)

SORT_ORDERS = ("ascending", "descending")

#: Longest series drawn: one value per centimetre of a 10 km pipe.
MAX_SAMPLE_COUNT = 1_000_000

#: Largest temperature magnitude accepted, degrees C: far beyond any exchanger,
#: and small enough that sums of squares over MAX_SAMPLE_COUNT values stay finite.
TEMPERATURE_LIMIT_C = 1e6

# Fermat prime seed -> its longest read-only unit stream drawn so far, at most 2^16 units (512 KiB);
# no generator is kept, so concurrent callers may draw twice but never misread a stream
_KEPT_UNITS = 1 << 16
_kept_streams: dict[int, np.ndarray] = {}


def _init_state(seed: int) -> list[int]:
    """Knuth recurrence: word[0]=seed, word[i]=1812433253*(w^(w>>30))+i mod 2^32."""
    words = [0] * _N
    prev = words[0] = seed
    for i in range(1, _N):
        prev = (1812433253 * (prev ^ (prev >> 30)) + i) & _WORD_MASK
        words[i] = prev
    return words


def _init_state_by_key(key: Sequence[int]) -> list[int]:
    """Array seeding from the reference generator (used for golden vectors)."""
    mt = _init_state(19650218)
    i, j = 1, 0
    for _ in range(max(len(key), _N)):
        mt[i] = ((mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525)) + key[j] + j) & _WORD_MASK
        i += 1
        j += 1
        if i >= _N:
            mt[0] = mt[_N - 1]
            i = 1
        if j >= len(key):
            j = 0
    for _ in range(_N - 1):
        mt[i] = ((mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941)) - i) & _WORD_MASK
        i += 1
        if i >= _N:
            mt[0] = mt[_N - 1]
            i = 1
    mt[0] = 0x80000000  # guarantee a nonzero state
    return mt


# Seeding is a pure function of the seed (an int) or key (a tuple): memoise the setstate
# argument, about 24 KiB an entry. One memo of eight holds the five Fermat primes, all a
# config admits, and the key of acceptance criterion 1's golden vector.

@lru_cache(maxsize=8)
def _seeded_state(seed: int | tuple[int, ...]) -> tuple:
    words = _init_state_by_key(seed) if isinstance(seed, tuple) else _init_state(seed)
    return (3, (*words, _N), None)


class MersenneTwister(random.Random):
    """:class:`random.Random` seeded by the reference MT19937 recurrences.

    Instances are not safe for concurrent draws; hand the generator over,
    never share it.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed <= _WORD_MASK:
            raise ValidationError(f"seed must be an unsigned 32-bit integer, got {seed}")
        self.setstate(_seeded_state(seed))

    @classmethod
    def from_key(cls, key: Sequence[int]) -> "MersenneTwister":
        """Array-seeded generator, matching the reference init-by-array scheme."""
        if not key:
            raise ValidationError("seeding key must be nonempty")
        gen = cls.__new__(cls)
        gen.setstate(_seeded_state(tuple(int(k) & _WORD_MASK for k in key)))
        return gen

    def draw_words(self, count: int) -> np.ndarray:
        """The next ``count`` tempered 32-bit words (same stream as getrandbits(32))."""
        return np.frombuffer(self.randbytes(4 * count), dtype="<u4").astype(np.uint32)

    def draw_units(self, count: int) -> np.ndarray:
        """The next ``count`` unit-interval draws (same stream as random())."""
        w = self.draw_words(2 * count)
        a = (w[0::2] >> np.uint32(5)).astype(np.float64)
        b = (w[1::2] >> np.uint32(6)).astype(np.float64)
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


def _units(seed: int, n: int) -> np.ndarray:
    """The seed's first n units: a prefix of its kept stream, or a fresh draw, kept for a Fermat seed up to 2^16."""
    kept = _kept_streams.get(seed)
    if kept is not None and len(kept) >= n:
        return kept[:n]
    units = MersenneTwister(seed).draw_units(n)
    if n <= _KEPT_UNITS and seed in KNOWN_FERMAT_PRIMES:
        units.setflags(write=False)
        _kept_streams[seed] = units
    return units


def uniform_series(
    seed: int,
    n: int,
    t_min: float,
    t_max: float,
    order: str = "ascending",
) -> np.ndarray:
    """n uniform draws mapped onto [t_min, t_max], sorted, as a read-only array.

    Each value is t_min + u*(t_max - t_min) with u in [0, 1), so t_max itself
    is attained only in the degenerate case t_min == t_max. Identical
    arguments always produce an identical series.
    """
    if n < 2:
        raise InsufficientSamples(f"series needs at least 2 values, got {n}")
    if n > MAX_SAMPLE_COUNT:
        raise ValidationError(f"series length {n} exceeds the maximum of {MAX_SAMPLE_COUNT} samples")
    # NaN fails the comparison too, so non-finite bounds are refused here
    if not (abs(t_min) <= TEMPERATURE_LIMIT_C and abs(t_max) <= TEMPERATURE_LIMIT_C):
        raise InvalidBounds(f"bounds must be finite and within ±{TEMPERATURE_LIMIT_C:g}, got [{t_min}, {t_max}]")
    if t_min > t_max:
        raise InvalidBounds(f"t_min {t_min} exceeds t_max {t_max}")
    if order not in SORT_ORDERS:
        raise ValidationError(f"order must be one of {SORT_ORDERS}, got {order!r}")

    values = t_min + _units(seed, n) * (t_max - t_min)
    # guard the closed-bound contract against the last-ulp of the affine map
    np.clip(values, t_min, t_max, out=values)
    values.sort()
    if order == "descending":
        values = values[::-1].copy()
    values.setflags(write=False)
    return values
