"""Small deterministic RNG for per-trial simulator instances.

The harness creates a fresh simulator for every Monte-Carlo trial.
Seeding the stdlib Mersenne Twister costs more than an entire trial
(its state is 2.5 KB), so simulator randomness comes from a splitmix64
stream instead: two machine words of state, constant-time seeding,
identical output on every platform, and ample quality for drawing tag
values.  Sequential seeds are fine by construction; splitmix64's
finalizer decorrelates them.
"""

from __future__ import annotations

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / (1 << 53)


def mix64(x: int) -> int:
    """The word a SplitMix64 whose state is x draws next; a cheap hash of x."""
    z = (x + _GAMMA) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int = 0):
        self._state = seed & _M64

    def next_word(self) -> int:
        state = self._state
        self._state = (state + _GAMMA) & _M64
        return mix64(state)

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

    def randint(self, a: int, b: int) -> int:
        """Uniform int in [a, b], both ends included."""
        if b < a:
            raise ValueError(f"empty range for randint({a}, {b})")
        return a + self.next_word() % (b - a + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.next_word() % len(seq)]
