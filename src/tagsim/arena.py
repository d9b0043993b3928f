"""Tagging heap allocator over the simulated address space.

The allocation recipe is the classic one for tagged memory: round the
size up to whole granules, pick a tag under the configured policy, tag
(and optionally zero) the granules, and return a pointer carrying the
tag.  On free the chunk is immediately retagged with a fresh random tag
distinct from its live tag, which makes a dangling access deterministic
to catch until the memory is reused, and optionally parked in a FIFO
byte-budget quarantine that delays reuse further.

Placement is deliberately boring so runs are reproducible: first fit by
address among reusable extents, else bump allocation.  Chunk metadata
lives out of band (in Python objects), so consecutive bump allocations
are exactly address-adjacent, which is what the AdjacentDistinct policy
needs to guarantee overflow detection into a neighbor.

The heap's one record of its chunks is an index of live, quarantined
and freed chunks sorted by base address.  Indexed chunks never overlap:
live and quarantined memory is not on the free list, and placing a
chunk in reused memory first forgets every freed chunk it overlaps.  So
owner lookup, the free check and that recycling are each one bisect,
and the index never holds more chunks than the heap has granules.

Tag policies, one per heap, fixed when the heap is built:

* Random: uniform over the non-reserved tags.
* AdjacentDistinct: uniform, but never equal to the effective tag on
  either side of the new chunk, so linear overflow and underflow into a
  neighbor always mismatch.
* Sampled(rate): tag with probability ``rate``; a sampled-out chunk is
  left untagged and gets a tag-0 pointer, costing zero shadow writes on
  fresh memory.

Untagged chunks are not retagged on free: they were never protected,
and retagging them would plant false positives for a later untagged
reuse.  For the same reason an untagged allocation placed over
previously retagged memory clears those granules back to 0.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass, replace

from .errors import AllocationError, DoubleFreeError, InvalidFreeError, UsageError
from .faults import AccessKind, FaultKind, FaultReport
from .memory import SENTINEL
from .precision import META_BYTES, mark_partial, read_partial_meta
from .tagspace import MtConfig, unpack

HEAP_BASE = 0x1000_0000
DEFAULT_HEAP_CAPACITY = 1 << 30


def served_size(size: int) -> int:
    """The bytes malloc serves for a request of ``size``: size 0 is
    served as one byte, so every allocation owns at least one granule."""
    return size if size > 0 else 1


class PolicyKind(enum.Enum):
    RANDOM = "random"
    ADJACENT_DISTINCT = "adjacent-distinct"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class TagPolicy:
    """How malloc picks a tag.  ``rate`` only matters for SAMPLED."""

    kind: PolicyKind = PolicyKind.RANDOM
    rate: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise UsageError(f"sampling rate must be in [0, 1], got {self.rate!r}")

    @classmethod
    def random(cls) -> "TagPolicy":
        return cls(PolicyKind.RANDOM)

    @classmethod
    def adjacent_distinct(cls) -> "TagPolicy":
        return cls(PolicyKind.ADJACENT_DISTINCT)

    @classmethod
    def sampled(cls, rate: float) -> "TagPolicy":
        return cls(PolicyKind.SAMPLED, rate)


class ChunkState(enum.Enum):
    LIVE = "live"
    QUARANTINED = "quarantined"
    FREED = "freed"


class Chunk:
    """One heap allocation.

    base/aligned describe the granule span; user_off is nonzero only
    for right-aligned chunks, where the usable bytes end exactly at the
    last granule's end.  tag 0 means the chunk was sampled out and is
    unprotected.  The shadow store, not the chunk, holds its granules'
    current tags.
    """

    # plain __slots__ class: one Chunk is built per malloc and the
    # constructor sits on the Monte-Carlo hot path
    __slots__ = ("id", "base", "requested", "aligned", "tag", "state", "user_off")

    def __init__(self, id: int, base: int, requested: int, aligned: int, tag: int,
                 state: "ChunkState", user_off: int = 0):
        self.id = id
        self.base = base
        self.requested = requested
        self.aligned = aligned
        self.tag = tag
        self.state = state
        self.user_off = user_off

    @property
    def user_addr(self) -> int:
        return self.base + self.user_off

    @property
    def end(self) -> int:
        return self.base + self.aligned

    def __repr__(self) -> str:
        return (f"Chunk(id={self.id}, base=0x{self.base:x}, requested={self.requested},"
                f" aligned={self.aligned}, tag={self.tag}, state={self.state.value})")


# Reading an enum member costs a descriptor call on Python 3.11, about
# ten times a module global; malloc and free read these aliases.
_RANDOM = PolicyKind.RANDOM
_LIVE = ChunkState.LIVE


@dataclass(slots=True)
class AllocatorStats:
    allocations: int = 0
    frees: int = 0
    tagged_allocations: int = 0
    live_requested_bytes: int = 0
    live_aligned_bytes: int = 0
    peak_requested_bytes: int = 0
    peak_aligned_bytes: int = 0
    quarantine_bytes: int = 0  # filled in by ArenaAllocator.stats()
    quarantine_chunks: int = 0  # likewise
    partial_fallbacks: int = 0


class ArenaAllocator:
    __slots__ = ("memory", "shadow", "cfg", "rng", "policy", "limit", "_brk", "_free",
                 "_bases", "_by_base", "_quarantine", "_qbytes", "_next_id", "_stats")

    def __init__(self, memory, shadow, cfg: MtConfig, rng, policy: TagPolicy = TagPolicy(),
                 capacity: int = DEFAULT_HEAP_CAPACITY):
        self.memory = memory
        self.shadow = shadow
        self.cfg = cfg
        self.rng = rng
        self.policy = policy
        self.limit = HEAP_BASE + capacity
        self._brk = HEAP_BASE
        self._free: list[list[int]] = []  # [base, size] extents sorted by base
        # live + quarantined + freed-not-recycled chunks, pairwise disjoint
        self._bases: list[int] = []  # sorted chunk bases
        self._by_base: dict[int, Chunk] = {}
        self._quarantine: deque[Chunk] = deque()
        self._qbytes = 0
        self._next_id = 1
        self._stats = AllocatorStats()

    # ------------------------------------------------------------------
    # allocation

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes and return a tagged pointer word.

        size 0 is served as a single byte (served_size).
        """
        if size < 0:
            raise UsageError(f"allocation size must be >= 0, got {size}")
        cfg = self.cfg
        tg = cfg.tg
        eff = served_size(size)
        aligned = (eff + tg - 1) & -tg
        base = self._place(aligned) if self._free else None
        if base is None:  # nothing to reuse: bump
            base = self._brk
            if base + aligned > self.limit:
                raise AllocationError(f"arena exhausted: need {aligned} bytes")
            self._brk = base + aligned
        tag = self._choose_tag(base, aligned)

        self.memory.fill(base, aligned, 0x00 if tag and cfg.zero_on_tag else SENTINEL)

        remainder = eff & (tg - 1)
        if tag:
            if cfg.precision_ext and remainder:
                if remainder <= tg - META_BYTES:
                    if aligned > tg:
                        self.shadow.set_range(base, aligned - tg, tag)
                    mark_partial(self.memory, self.shadow, cfg, base + aligned - tg, remainder, tag)
                else:
                    # remainder tg-1 leaves no room for the in-granule
                    # metadata; fall back to whole-granule tagging
                    self.shadow.set_range(base, aligned, tag)
                    self._stats.partial_fallbacks += 1
            else:
                self.shadow.set_range(base, aligned, tag)
        else:
            self.shadow.set_range(base, aligned, 0)  # clears retags left by earlier chunks

        user_off = aligned - eff if cfg.right_align and remainder else 0
        chunk_id = self._next_id
        self._next_id = chunk_id + 1
        self._by_base[base] = Chunk(chunk_id, base, size, aligned, tag, _LIVE, user_off)
        bases = self._bases
        if not bases or base > bases[-1]:
            bases.append(base)
        else:
            insort(bases, base)

        st = self._stats
        st.allocations += 1
        if tag:
            st.tagged_allocations += 1
        live = st.live_requested_bytes + size
        st.live_requested_bytes = live
        if live > st.peak_requested_bytes:
            st.peak_requested_bytes = live
        live = st.live_aligned_bytes + aligned
        st.live_aligned_bytes = live
        if live > st.peak_aligned_bytes:
            st.peak_aligned_bytes = live

        # pack() inlined: tag and user address are in range by construction
        return (tag << cfg.tag_shift) | (base + user_off)

    def free(self, word: int) -> None:
        """Release the allocation that returned ``word``.

        The pointer must carry the exact address malloc returned and a
        tag equal to the chunk's tag; anything else faults instead of
        corrupting allocator state.
        """
        addr, ptag = unpack(word, self.cfg)
        chunk = self.find_owner(addr)
        if chunk is None or chunk.user_addr != addr:
            raise InvalidFreeError(self._free_report(FaultKind.INVALID_FREE, word, ptag, addr, chunk))
        if chunk.state is not _LIVE:
            raise DoubleFreeError(self._free_report(FaultKind.DOUBLE_FREE, word, ptag, addr, chunk))
        if ptag != chunk.tag:
            raise InvalidFreeError(self._free_report(FaultKind.INVALID_FREE, word, ptag, addr, chunk))

        if chunk.tag:
            self.shadow.set_range(chunk.base, chunk.aligned,
                                  self._draw_excluding(chunk.tag, chunk.tag))

        st = self._stats
        st.frees += 1
        st.live_requested_bytes -= chunk.requested
        st.live_aligned_bytes -= chunk.aligned

        if self.cfg.quarantine_capacity > 0:
            chunk.state = ChunkState.QUARANTINED
            self._quarantine.append(chunk)
            self._qbytes += chunk.aligned
            while self._qbytes > self.cfg.quarantine_capacity:
                self._evict_oldest()
        else:
            self._retire(chunk)

    def quarantine_flush(self) -> int:
        """Evict every quarantined chunk (FIFO order); returns the count."""
        n = len(self._quarantine)
        while self._quarantine:
            self._evict_oldest()
        return n

    def stats(self) -> AllocatorStats:
        """A snapshot of the counters, quarantine totals included."""
        return replace(self._stats, quarantine_bytes=self._qbytes,
                       quarantine_chunks=len(self._quarantine))

    def find_owner(self, addr: int) -> Chunk | None:
        """The chunk whose granule span covers addr, if any."""
        bases = self._bases
        i = bisect_right(bases, addr) - 1
        if i >= 0:
            chunk = self._by_base[bases[i]]
            if addr < chunk.end:
                return chunk
        return None

    def live_chunks(self) -> list[Chunk]:
        """Live chunks in malloc order."""
        # a chunk's base enters _by_base at malloc, after recycling has
        # removed any freed chunk there, so dict order is malloc order
        return [c for c in self._by_base.values() if c.state is ChunkState.LIVE]

    # ------------------------------------------------------------------
    # internals

    def _place(self, aligned: int) -> int | None:
        """First fit by address on the free list, or None when no
        extent fits and malloc bumps."""
        free = self._free
        for i, ext in enumerate(free):
            if ext[1] >= aligned:
                base = ext[0]
                if ext[1] == aligned:
                    del free[i]
                else:
                    ext[0] += aligned
                    ext[1] -= aligned
                self._recycle_overlaps(base, base + aligned)
                return base
        return None

    def _choose_tag(self, base: int, aligned: int) -> int:
        policy = self.policy
        rng = self.rng
        usable = self.cfg.usable_tags
        if policy.kind is _RANDOM:
            return rng.choice(usable)
        if policy.kind is PolicyKind.ADJACENT_DISTINCT:
            left = self.effective_tag(base - 1) if base > HEAP_BASE else 0
            return self._draw_excluding(left, self.effective_tag(base + aligned))
        if policy.kind is PolicyKind.SAMPLED:
            if rng.random() < policy.rate:
                return rng.choice(usable)
            return 0
        raise UsageError(f"unknown tag policy {policy.kind!r}")

    def _draw_excluding(self, a: int, b: int) -> int:
        """A usable tag other than a and b, drawn by rejection."""
        usable = self.cfg.usable_tags
        choice = self.rng.choice
        while True:
            tag = choice(usable)
            if tag != a and tag != b:
                return tag

    def effective_tag(self, addr: int) -> int:
        """Shadow tag at addr, resolving a PARTIAL marker to the real tag."""
        tag = self.shadow.get(addr)
        if tag and tag == self.cfg.partial_tag:
            gbase = (addr >> self.cfg.tg_shift) << self.cfg.tg_shift
            return read_partial_meta(self.memory, self.cfg, gbase)[1]
        return tag

    def _evict_oldest(self) -> None:
        chunk = self._quarantine.popleft()
        self._qbytes -= chunk.aligned
        self._retire(chunk)

    def _retire(self, chunk: Chunk) -> None:
        chunk.state = ChunkState.FREED
        self._free_insert(chunk.base, chunk.aligned)

    def _free_insert(self, base: int, size: int) -> None:
        free = self._free
        lo, hi = 0, len(free)
        while lo < hi:
            mid = (lo + hi) // 2
            if free[mid][0] < base:
                lo = mid + 1
            else:
                hi = mid
        # coalesce with the neighbors when the extents touch
        if lo > 0 and free[lo - 1][0] + free[lo - 1][1] == base:
            free[lo - 1][1] += size
            if lo < len(free) and free[lo - 1][0] + free[lo - 1][1] == free[lo][0]:
                free[lo - 1][1] += free[lo][1]
                del free[lo]
            return
        if lo < len(free) and base + size == free[lo][0]:
            free[lo][0] = base
            free[lo][1] += size
            return
        free.insert(lo, [base, size])

    def _recycle_overlaps(self, lo: int, hi: int) -> None:
        # Memory handed to a new chunk: forget freed chunks that lived
        # there so provenance never points at recycled ghosts.  [lo, hi)
        # came off the free list, so every indexed chunk it touches is a
        # freed one; only the first may start below lo.
        bases = self._bases
        i = bisect_right(bases, lo) - 1
        if i < 0 or self._by_base[bases[i]].end <= lo:
            i += 1
        j = bisect_left(bases, hi, i)
        if i < j:
            by_base = self._by_base
            for b in bases[i:j]:
                del by_base[b]
            del bases[i:j]

    def _free_report(self, kind: FaultKind, word: int, ptag: int, addr: int,
                     chunk: Chunk | None) -> FaultReport:
        gbase = (addr >> self.cfg.tg_shift) << self.cfg.tg_shift
        return FaultReport(
            kind=kind,
            access=AccessKind.FREE,
            word=word,
            ptr_tag=ptag,
            mem_tag=self.shadow.get(addr),
            granule_base=gbase,
            chunk_id=chunk.id if chunk else None,
            chunk_state=chunk.state.value if chunk else None,
        )
