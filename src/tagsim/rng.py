"""Small deterministic RNG for per-trial simulator streams.

Every Monte-Carlo trial rewinds one stream to its own seed (reseed).
Seeding the stdlib Mersenne Twister costs more than an entire trial
(its state is 2.5 KB), so simulator randomness comes from a splitmix64
stream instead: two machine words of state, constant-time seeding,
identical output on every platform, and ample quality for drawing tag
values.  Sequential seeds are fine by construction; splitmix64's
finalizer decorrelates them.

mix64 is the finalizer and the reference for every word a stream
draws.  Trial i of a Monte-Carlo run draws from the stream seeded
seed + i, so the first words of many trials are known before any of
them runs.  premixed_rows computes the first k words of PREMIX_STREAMS
consecutive streams at once: one Python int holds every state in its
own 128-bit lane, so each shift, xor and multiply of mix64 runs once
over all of them.  A stream handed its row by SplitMix64.reseed serves
those words first and mixes the rest one at a time, so the words it
draws, and their order, do not change.

A long-lived simulator draws from one stream as long as it runs: once
a stream has mixed BATCH_WORDS words one at a time, more than any trial
draws, it premixes its next words BATCH_WORDS at a time, one stream of
lanes per pass, so a long run pays a fraction of mix64 per word.
"""

from __future__ import annotations

import functools
import struct

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_INV = pow(_GAMMA, -1, 1 << 64)
_INV_2_53 = 1.0 / (1 << 53)
# the finalizer: xor-shift by _S1, multiply by _M1, xor-shift by _S2,
# multiply by _M2, xor-shift by _S3
_S1, _S2, _S3 = 30, 27, 31
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

PREMIX_STREAMS = 256  # the rows premixed_rows returns
BATCH_WORDS = 64  # words a stream mixes one at a time, and then at once


def mix64(x: int) -> int:
    """The word a SplitMix64 whose state is x draws next; a cheap hash of x."""
    z = (x + _GAMMA) & _M64
    z = ((z ^ (z >> _S1)) * _M1) & _M64
    z = ((z ^ (z >> _S2)) * _M2) & _M64
    return z ^ (z >> _S3)


@functools.lru_cache(maxsize=32)  # bounded, as each partial batch size is a key
def _lanes(streams: int, k: int):
    """The constants for rows of k words of ``streams`` streams: each
    state's offset from the first seed, plus the +GAMMA of mix64's first
    step; a 1 in each lane; each lane's low 64 bits set; and the lanes'
    layout, a 64-bit word and 8 bytes of headroom (a 64 x 64-bit product)."""
    n = streams * k
    lanes = struct.Struct("<" + "Q8x" * n)

    def packed(words) -> int:
        return int.from_bytes(lanes.pack(*words), "little")

    # lane j*k + (k-1-w) holds word w of stream j, so a row reads last word first
    offsets = [(j + (k - w) * _GAMMA) & _M64 for j in range(streams) for w in range(k)]
    return packed(offsets), packed([1] * n), packed([_M64] * n), lanes


def _mixed_lanes(seed: int, offsets: int, ones: int, low: int, lanes) -> tuple[int, ...]:
    """mix64 over every lane of _lanes' constants at once: word w of
    SplitMix64(seed + j), row by row, each row last word first."""
    z = (offsets + (seed & _M64) * ones) & low
    z = ((z ^ ((z >> _S1) & low)) * _M1) & low
    z = ((z ^ ((z >> _S2) & low)) * _M2) & low
    return lanes.unpack((z ^ ((z >> _S3) & low)).to_bytes(lanes.size, "little"))


def premixed_rows(seed: int, k: int, count: int = PREMIX_STREAMS) -> list[list[int]]:
    """The first k words that SplitMix64(seed + j) draws, for each j in
    range(count): row j, last word first, as premix takes it.  The lanes
    are those of exactly count streams, so a partial batch mixes no more."""
    words = iter(_mixed_lanes(seed, *_lanes(count, k)))
    return list(map(list, zip(*[words] * k)))  # k words at a time, each row a list


class SplitMix64:
    __slots__ = ("_state", "_premixed", "_solo")

    def __init__(self, seed: int = 0):
        self.reseed(seed)

    def reseed(self, seed: int, words=()) -> None:
        """Start over as SplitMix64(seed), serving ``words`` first as premix does."""
        self._state = (seed + len(words) * _GAMMA) & _M64
        self._premixed = words
        self._solo = BATCH_WORDS  # one-at-a-time mixes left before batching

    def premix(self, words: list[int]) -> None:
        """Serve ``words``, the next len(words) words of this stream last
        word first (a row of premixed_rows), as the next draws.  The
        stream must have served every word it mixed before."""
        self._premixed = words
        self._state = (self._state + len(words) * _GAMMA) & _M64

    def words_since(self, seed: int) -> int:
        """Words drawn or premixed since the stream was seeded with seed."""
        return ((self._state - seed) * _GAMMA_INV) & _M64

    def next_word(self) -> int:
        premixed = self._premixed
        if premixed:
            return premixed.pop()
        state = self._state
        solo = self._solo
        if solo:
            self._solo = solo - 1
            self._state = (state + _GAMMA) & _M64
            return mix64(state)
        self.premix(list(_mixed_lanes(state, *_lanes(1, BATCH_WORDS))))
        return self._premixed.pop()

    def random(self) -> float:
        """Uniform float in [0, 1), 53 bits of precision."""
        return (self.next_word() >> 11) * _INV_2_53

    def randrange(self, n: int) -> int:
        """Uniform int in [0, n).  The modulo bias is below n / 2^64,
        which is far beyond measurable for the tag-sized ranges used
        here."""
        if n <= 0:
            raise ValueError(f"empty range for randrange({n})")
        return self.next_word() % n

    size = offset = tag = pin = randrange  # a runner's draw roles, served by detection._Run

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.next_word() % len(seq)]
