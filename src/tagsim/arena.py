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
needs to guarantee overflow detection into a neighbor.  The free list
(FreeList) keeps its extents in address-ordered blocks that each know
their largest extent, so first fit skips whole blocks that cannot hold
the request and scans one block of at most 2 * FREE_BLOCK extents: its
cost grows with the number of blocks, not with the number of extents.

The heap's one record of its chunks is an index of live, quarantined
and freed chunks sorted by base address.  Indexed chunks never overlap:
live and quarantined memory is not on the free list, and placing a
chunk in reused memory first forgets every freed chunk it overlaps.  A
chunk's base is granule-aligned and malloc's pointer sits less than a
granule into it, so free finds its chunk by one dict probe at the
pointer's granule base, and a new chunk placed at a freed chunk's base
and inside it forgets that chunk by one dict delete.  Owner lookup of an
arbitrary address, and recycling over any other set of freed chunks,
are one bisect.  The index never holds more chunks than the heap has
granules.

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
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

from .errors import AllocationError, DoubleFreeError, InvalidFreeError, UsageError, require_int
from .faults import AccessKind, FaultKind, FaultReport
from .memory import SENTINEL
from .precision import META_BYTES, mark_partial, partial_meta
from .tagspace import ADDR_MASK, MtConfig

HEAP_BASE = 0x1000_0000
DEFAULT_HEAP_CAPACITY = 1 << 30


def placement(size: int, cfg: MtConfig) -> tuple[int, int, int]:
    """malloc's layout of ``size`` bytes as (served, aligned, user_off):
    size 0 is served as one byte, the chunk spans served rounded up to
    whole granules, and under right_align the served bytes start
    user_off bytes in, so that they end where the span ends."""
    served = size if size > 0 else 1
    tg = cfg.tg
    aligned = (served + tg - 1) & -tg
    return served, aligned, aligned - served if cfg.right_align else 0


class PolicyKind(enum.Enum):
    RANDOM = "random"
    ADJACENT_DISTINCT = "adjacent-distinct"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class TagPolicy:
    """How malloc picks a tag.  ``rate`` is SAMPLED's alone: any other
    kind refuses a rate other than 1.0."""

    kind: PolicyKind = PolicyKind.RANDOM
    rate: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, PolicyKind):
            raise UsageError(f"unknown tag policy {self.kind!r}")
        if not isinstance(self.rate, (int, float)) or isinstance(self.rate, bool):
            raise UsageError(f"sampling rate must be a number, got {self.rate!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise UsageError(f"sampling rate must be in [0, 1], got {self.rate!r}")
        if self.rate != 1.0 and self.kind is not PolicyKind.SAMPLED:
            raise UsageError(f"sampling rate {self.rate!r} requires the sampled policy,"
                             f" not {self.kind.value}")
        object.__setattr__(self, "rate", float(self.rate))  # as the CLI prints it

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


# Reading an enum member costs a descriptor call on Python 3.11, about
# ten times a module global; malloc, free, _retire and live_chunks read
# these aliases.
_RANDOM = PolicyKind.RANDOM
_LIVE = ChunkState.LIVE
_QUARANTINED = ChunkState.QUARANTINED
_FREED = ChunkState.FREED


@dataclass(slots=True)
class AllocatorStats:
    """A heap's counters at one moment, as ArenaAllocator.stats() copies
    them out of the heap.  The heap folds its live bytes into the two
    peaks at each free, before they fall, and stats() folds them in
    again at the snapshot, so malloc never touches a peak."""

    allocations: int = 0
    frees: int = 0
    tagged_allocations: int = 0
    live_requested_bytes: int = 0
    live_aligned_bytes: int = 0
    peak_requested_bytes: int = 0
    peak_aligned_bytes: int = 0
    quarantine_bytes: int = 0
    quarantine_chunks: int = 0
    partial_fallbacks: int = 0


# B: a block of the free list holds at most 2 * B extents, and a
# block that grows past that splits into two halves of about B.
FREE_BLOCK = 32


class FreeList:
    """Reusable extents, sorted by address, in blocks of at most
    2 * FREE_BLOCK.  Block k keeps parallel lists ``bases[k]`` and
    ``sizes[k]``, and ``firsts[k]``/``maxes[k]`` hold its first base and
    its largest size, so first fit walks the block maxima to the first
    block that fits and scans that block alone.  Extents never touch:
    ``add`` coalesces across block boundaries too.  ``maxes`` is empty
    exactly when no extent is free."""

    __slots__ = ("bases", "sizes", "firsts", "maxes")

    def __init__(self):
        self.bases: list[list[int]] = []
        self.sizes: list[list[int]] = []
        self.firsts: list[int] = []
        self.maxes: list[int] = []

    def take(self, size: int) -> int | None:
        """Cut ``size`` bytes from the front of the lowest-address
        extent that holds them and return their base, or None when no
        extent does."""
        maxes = self.maxes
        k = 0
        for top in maxes:
            if top >= size:
                break
            k += 1
        else:
            return None
        sizes = self.sizes[k]
        i = 0
        for have in sizes:
            if have >= size:
                break
            i += 1
        bases = self.bases[k]
        base = bases[i]
        if have == size:
            self._remove(k, i)
            return base
        bases[i] = base + size
        sizes[i] = have - size
        if i == 0:
            self.firsts[k] = base + size
        if have == top:
            maxes[k] = max(sizes)
        return base

    def add(self, base: int, size: int) -> None:
        """Free [base, base+size), which overlaps no free extent, and
        merge it with the extents it touches."""
        firsts = self.firsts
        if not firsts:
            self.bases.append([base])
            self.sizes.append([size])
            firsts.append(base)
            self.maxes.append(size)
            return
        # the block whose first base is the last at or below base; a
        # base below every block goes to the front of block 0
        k = bisect_right(firsts, base) - 1
        if k < 0:
            k = 0
        bases, sizes, maxes = self.bases[k], self.sizes[k], self.maxes
        i = bisect_left(bases, base)
        end = base + size
        # the right neighbour is the next extent of this block, else the
        # first of the next block
        rk, ri = (k, i) if i < len(bases) else (k + 1, 0)
        touches_right = rk < len(firsts) and self.bases[rk][ri] == end
        if i and bases[i - 1] + sizes[i - 1] == base:  # extends its left neighbour
            merged = sizes[i - 1] + size
            if touches_right:
                merged += self.sizes[rk][ri]
                self._remove(rk, ri)
            sizes[i - 1] = merged
            if merged > maxes[k]:
                maxes[k] = merged
            return
        if touches_right:  # extends its right neighbour downwards
            merged = self.sizes[rk][ri] + size
            self.bases[rk][ri] = base
            self.sizes[rk][ri] = merged
            if ri == 0:
                firsts[rk] = base
            if merged > maxes[rk]:
                maxes[rk] = merged
            return
        bases.insert(i, base)
        sizes.insert(i, size)
        if i == 0:
            firsts[k] = base
        if size > maxes[k]:
            maxes[k] = size
        if len(bases) > 2 * FREE_BLOCK:
            half = len(bases) // 2
            self.bases.insert(k + 1, bases[half:])
            self.sizes.insert(k + 1, sizes[half:])
            firsts.insert(k + 1, bases[half])
            maxes.insert(k + 1, max(sizes[half:]))
            del bases[half:], sizes[half:]
            maxes[k] = max(sizes)

    def _remove(self, k: int, i: int) -> None:
        """Drop extent i of block k, and the block once it is empty."""
        bases, sizes = self.bases[k], self.sizes[k]
        if len(bases) == 1:
            del self.bases[k], self.sizes[k], self.firsts[k], self.maxes[k]
            return
        size = sizes[i]
        del bases[i], sizes[i]
        if i == 0:
            self.firsts[k] = bases[0]
        if size == self.maxes[k]:
            self.maxes[k] = max(sizes)


class ArenaAllocator:
    __slots__ = ("memory", "shadow", "cfg", "rng", "policy", "limit", "_brk", "_free",
                 "_bases", "_by_base", "_quarantine", "_qbytes", "_next_id", "_frees",
                 "_tagged", "_live_requested", "_live_aligned", "_peak_requested",
                 "_peak_aligned", "_partial_fallbacks")

    def __init__(self, memory, shadow, cfg: MtConfig, rng, policy: TagPolicy = TagPolicy(),
                 capacity: int = DEFAULT_HEAP_CAPACITY):
        self.memory = memory
        self.shadow = shadow
        self.cfg = cfg
        self.rng = rng
        self.policy = policy
        self.limit = HEAP_BASE + capacity
        # live + quarantined + freed-not-recycled chunks, pairwise disjoint
        self._bases: list[int] = []  # sorted chunk bases
        self._by_base: dict[int, Chunk] = {}
        self._clear()

    def _clear(self) -> None:
        """An empty heap, the state __init__ and each Simulator._reset start in."""
        self._brk = HEAP_BASE
        # Most trials never free, so the containers only a free needs
        # come with their first use: the first retired chunk makes _free,
        # the first quarantined one makes _quarantine.
        self._free: FreeList | None = None
        self._quarantine: deque[Chunk] | None = None
        self._bases.clear()
        self._by_base.clear()
        self._qbytes = 0
        self._next_id = 1  # so allocations = _next_id - 1
        # the counters behind stats(), which copies them into an AllocatorStats
        self._frees = self._tagged = self._partial_fallbacks = 0
        self._live_requested = self._live_aligned = 0
        self._peak_requested = self._peak_aligned = 0  # as of the last free

    # ------------------------------------------------------------------
    # allocation

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes, laid out as placement() says, and
        return a tagged pointer word."""
        if type(size) is not int:  # as in free
            require_int("size", size)
        if size < 0:
            raise UsageError(f"allocation size must be >= 0, got {size}")
        cfg = self.cfg
        served, aligned, user_off = placement(size, cfg)
        free = self._free
        base = free.take(aligned) if free is not None and free.maxes else None
        if base is None:  # nothing to reuse: bump, above every indexed chunk
            base = self._brk
            if base + aligned > self.limit:
                raise AllocationError(f"arena exhausted: need {aligned} bytes")
            self._brk = base + aligned
            self._bases.append(base)
        else:
            self._recycle_overlaps(base, base + aligned)
        policy = self.policy
        tag = (self.rng.choice(cfg.usable_tags) if policy.kind is _RANDOM
               else self._choose_tag(policy, base, aligned))

        self.memory.fill(base, aligned, cfg.tag_fill if tag else SENTINEL)

        tg = cfg.tg
        remainder = served & (tg - 1)
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
                    self._partial_fallbacks += 1
            else:
                self.shadow.set_range(base, aligned, tag)
        else:
            self.shadow.set_range(base, aligned, 0)  # clears retags left by earlier chunks

        chunk_id = self._next_id
        self._next_id = chunk_id + 1
        self._by_base[base] = Chunk(chunk_id, base, size, aligned, tag, _LIVE, user_off)

        if tag:
            self._tagged += 1
        self._live_requested += size
        self._live_aligned += aligned

        # pack() inlined: tag and user address are in range by construction
        return (tag << cfg.tag_shift) | (base + user_off)

    def free(self, word: int) -> None:
        """Release the allocation that returned ``word``.

        The pointer must carry the exact address malloc returned and a
        tag equal to the chunk's tag; anything else faults instead of
        corrupting allocator state.
        """
        if type(word) is not int:  # as in AccessEngine.load
            require_int("word", word)
        cfg = self.cfg
        # unpack() inlined, as malloc inlines pack()
        addr = word & ADDR_MASK
        ptag = (word >> cfg.tag_shift) & (cfg.n_tags - 1)
        # the pointer malloc returned sits user_off < tg bytes into its
        # granule-aligned chunk, so its granule base is the chunk's base
        chunk = self._by_base.get(addr & -cfg.tg)
        if chunk is None or chunk.base + chunk.user_off != addr:
            raise InvalidFreeError(self._free_report(FaultKind.INVALID_FREE, word, ptag, addr,
                                                     self.find_owner(addr)))
        if chunk.state is not _LIVE:
            raise DoubleFreeError(self._free_report(FaultKind.DOUBLE_FREE, word, ptag, addr, chunk))
        tag = chunk.tag
        if ptag != tag:
            raise InvalidFreeError(self._free_report(FaultKind.INVALID_FREE, word, ptag, addr, chunk))

        aligned = chunk.aligned
        if tag:
            self.shadow.set_range(chunk.base, aligned, self._draw_excluding(tag, tag))

        # the live counts fall only here: fold them into the peaks first
        self._frees += 1
        live = self._live_requested
        if live > self._peak_requested:
            self._peak_requested = live
        self._live_requested = live - chunk.requested
        live = self._live_aligned
        if live > self._peak_aligned:
            self._peak_aligned = live
        self._live_aligned = live - aligned

        capacity = cfg.quarantine_capacity
        if capacity > 0:
            chunk.state = _QUARANTINED
            quarantine = self._quarantine
            if quarantine is None:
                quarantine = self._quarantine = deque()
            quarantine.append(chunk)
            qbytes = self._qbytes + aligned
            while qbytes > capacity:  # evict the oldest until the budget holds
                oldest = quarantine.popleft()
                qbytes -= oldest.aligned
                self._retire(oldest)
            self._qbytes = qbytes
        else:
            self._retire(chunk)

    def stats(self) -> AllocatorStats:
        """A snapshot of the counters, quarantine totals included.  A
        peak is the larger of the peak that free last folded in and the
        live count now, as the live counts rise only at malloc."""
        quarantine = self._quarantine
        live_requested, live_aligned = self._live_requested, self._live_aligned
        return AllocatorStats(
            allocations=self._next_id - 1,
            frees=self._frees,
            tagged_allocations=self._tagged,
            live_requested_bytes=live_requested,
            live_aligned_bytes=live_aligned,
            peak_requested_bytes=max(self._peak_requested, live_requested),
            peak_aligned_bytes=max(self._peak_aligned, live_aligned),
            quarantine_bytes=self._qbytes,
            quarantine_chunks=len(quarantine) if quarantine is not None else 0,
            partial_fallbacks=self._partial_fallbacks,
        )

    def find_owner(self, addr: int) -> Chunk | None:
        """The chunk whose granule span covers addr, if any."""
        bases = self._bases
        i = bisect_right(bases, addr) - 1
        if i >= 0:
            base = bases[i]
            chunk = self._by_base[base]
            if addr < base + chunk.aligned:
                return chunk
        return None

    def live_chunks(self) -> list[Chunk]:
        """Live chunks in malloc order."""
        # a chunk's base enters _by_base at malloc, after recycling has
        # removed any freed chunk there, so dict order is malloc order
        return [c for c in self._by_base.values() if c.state is _LIVE]

    # ------------------------------------------------------------------
    # internals

    def _choose_tag(self, policy: TagPolicy, base: int, aligned: int) -> int:
        """The tag of a new chunk under AdjacentDistinct or Sampled.
        malloc draws a Random tag itself, one call shallower: a trial's
        mallocs are mostly Random."""
        if policy.kind is PolicyKind.ADJACENT_DISTINCT:
            left = self.effective_tag(base - 1) if base > HEAP_BASE else 0
            return self._draw_excluding(left, self.effective_tag(base + aligned))
        rng = self.rng  # Sampled
        if rng.random() < policy.rate:
            return rng.choice(self.cfg.usable_tags)
        return 0

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
            return partial_meta(self.memory, self.cfg, addr & -self.cfg.tg)[1]
        return tag

    def _retire(self, chunk: Chunk) -> None:
        chunk.state = _FREED
        if self._free is None:
            self._free = FreeList()
        self._free.add(chunk.base, chunk.aligned)

    def _recycle_overlaps(self, lo: int, hi: int) -> None:
        # Memory handed to a new chunk at lo: index lo in place of the
        # freed chunks that lived there, so provenance never points at
        # recycled ghosts.  [lo, hi) came off the free list, so every
        # indexed chunk it touches is freed; only the first may start below lo.
        by_base = self._by_base
        chunk = by_base.get(lo)
        if chunk is not None and lo + chunk.aligned >= hi:
            # indexed chunks are disjoint, so this one is alone in [lo, hi),
            # and malloc indexes its successor under the same base
            del by_base[lo]
            return
        bases = self._bases
        i = bisect_right(bases, lo) - 1
        if i < 0 or bases[i] + by_base[bases[i]].aligned <= lo:
            i += 1
        j = bisect_left(bases, hi, i)
        for b in bases[i:j]:
            del by_base[b]
        bases[i:j] = (lo,)

    def _free_report(self, kind: FaultKind, word: int, ptag: int, addr: int,
                     chunk: Chunk | None) -> FaultReport:
        gbase = (addr >> self.cfg.tg_shift) << self.cfg.tg_shift
        return FaultReport.of(kind, AccessKind.FREE, word, ptag, self.shadow.get(addr), gbase, chunk)
