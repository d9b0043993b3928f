"""Seeded synthetic allocation traces, shared by heap-churn and trace-overhead.

A trace ramps up to about ``live_target`` live allocations and then
churns around that level, freeing a uniformly chosen live allocation
or allocating a new one.  Sizes come from fixed bands that run from 0 B
through sub-granule sizes up to several 4 KiB pages.  Ids are never
reused, so every free names the one allocation with that id.

The same seed always gives the same trace.  The generator depends on
nothing in tagsim: the peaks it computes are an oracle for the trace
analyzer and the tagged heap.
"""

from __future__ import annotations

import random

# (share of allocations, smallest size, largest size)
SIZE_BANDS = (
    (0.08, 0, 15),        # empty and sub-granule
    (0.55, 16, 256),      # small objects
    (0.30, 257, 4096),    # up to one page
    (0.07, 4097, 20480),  # multi-page
)

_RAMP_ALLOC_SHARE = 0.95   # while below the live target
_STEADY_ALLOC_SHARE = 0.45  # at or above it


def events(seed: int, n_events: int, live_target: int):
    """Yield ``n_events`` events: ``(id, size)`` allocates, ``(id, None)`` frees."""
    rng = random.Random(seed)
    cumulative = []
    acc = 0.0
    for share, lo, hi in SIZE_BANDS:
        acc += share
        cumulative.append((acc, lo, hi))
    draw = rng.random
    live: list[int] = []
    next_id = 0
    for _ in range(n_events):
        share = _RAMP_ALLOC_SHARE if len(live) < live_target else _STEADY_ALLOC_SHARE
        if not live or draw() < share:
            u = draw()
            for bound, lo, hi in cumulative:
                if u < bound:
                    break
            next_id += 1
            live.append(next_id)
            yield next_id, lo + int(draw() * (hi - lo + 1))
        else:
            i = int(draw() * len(live))
            live[i], live[-1] = live[-1], live[i]
            yield live.pop(), None


def charge(size: int, alignment: int) -> int:
    """Bytes one live allocation occupies at ``alignment``: at least one unit."""
    return max(1, -(-size // alignment)) * alignment


class PeakTracker:
    """Peak of the summed live charges, per alignment, over an event stream."""

    def __init__(self, alignments):
        self.alignments = tuple(alignments)
        self._live: dict[int, tuple[int, ...]] = {}
        self._by_size: dict[int, tuple[int, ...]] = {}
        self._current = [0] * len(self.alignments)
        self.peaks = [0] * len(self.alignments)

    def add(self, aid: int, size: int | None) -> None:
        current = self._current
        if size is None:
            for i, c in enumerate(self._live.pop(aid)):
                current[i] -= c
            return
        charges = self._by_size.get(size)
        if charges is None:
            charges = self._by_size[size] = tuple(charge(size, a) for a in self.alignments)
        self._live[aid] = charges
        peaks = self.peaks
        for i, c in enumerate(charges):
            c += current[i]
            current[i] = c
            if c > peaks[i]:
                peaks[i] = c

    def peak(self, alignment: int) -> int:
        return self.peaks[self.alignments.index(alignment)]


def write_trace(path, seed: int, n_events: int, live_target: int, alignments) -> PeakTracker:
    """Write a trace file in the ``a <id> <size>`` / ``f <id>`` grammar and
    return the peaks it implies at each alignment."""
    tracker = PeakTracker(alignments)
    lines = [f"# tagsim benchmark trace seed={seed} events={n_events}\n"]
    with open(path, "w", encoding="ascii") as fh:
        for aid, size in events(seed, n_events, live_target):
            tracker.add(aid, size)
            lines.append(f"f {aid}\n" if size is None else f"a {aid} {size}\n")
            if len(lines) >= 65536:
                fh.writelines(lines)
                lines.clear()
        fh.writelines(lines)
    return tracker
