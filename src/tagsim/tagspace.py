"""Core configuration, tag arithmetic, pointer packing, and the granule tag store.

The simulated machine associates every aligned ``tg``-byte granule of a
flat 2^56-byte address space with a ``ts``-bit tag, and carries a tag of
the same width in the top bits of every 64-bit pointer word.  A load or
store is legal when the pointer tag matches the tag of every granule it
touches, or when a touched granule is untagged: memory tag 0 is the
match-all value, so untagged memory can be reached through tagged and
untagged pointers alike.

Tag value 0 is therefore reserved and is never handed out for live
allocations.  When the partial-granule precision extension is enabled,
the maximum tag value (2^ts - 1) is additionally reserved as the
PARTIAL marker; see precision.py.

Tags live in a paged side table of one byte per granule, made page by
page on the first nonzero write, which mirrors the storage of a real
scheme: a dense array of ts bits for every tg bytes of tagged memory.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from functools import cached_property

from .errors import UsageError, require_bool, require_int
from .memory import BYTE_OF, SENTINEL

ADDR_BITS = 56
ADDR_SPACE = 1 << ADDR_BITS
ADDR_MASK = ADDR_SPACE - 1  # a pointer word's address bits
WORD_BITS = 64

# The shadow store's page: TAG_PAGE granules, one tag byte each.
TAG_PAGE_SHIFT = 10
TAG_PAGE = 1 << TAG_PAGE_SHIFT
TAG_PAGE_MASK = TAG_PAGE - 1

_VALID_TG = (16, 32, 64)
_VALID_TS = (4, 8)


class StoreMode(enum.Enum):
    """Trap behaviour for mismatched stores.

    PRECISE faults at the offending instruction and never commits the
    write.  IMPRECISE_STORES lets execution continue: the write is
    suppressed and a deferred fault report is queued until the next
    sync().  Loads are always handled precisely in either mode.
    """

    PRECISE = "precise"
    IMPRECISE_STORES = "imprecise"


@dataclass(frozen=True)
class MtConfig:
    """Simulator-wide tagging parameters.

    tg: granule size in bytes (16, 32, or 64).
    ts: tag width in bits (4 or 8).
    zero_on_tag: zero a chunk's bytes while tagging it at allocation,
        instead of filling with the uninitialized-memory sentinel.
    precision_ext: enable byte-precise checking of a chunk's final,
        partially used granule (see precision.py).
    right_align: place the usable bytes of a granule-misaligned chunk
        at the end of its last granule, so linear overflow past the
        requested size crosses a granule boundary immediately.
    store_mode: trap behaviour for mismatched stores.
    quarantine_capacity: byte budget of the free-quarantine (0 disables).
    """

    tg: int = 16
    ts: int = 8
    zero_on_tag: bool = False
    precision_ext: bool = False
    right_align: bool = False
    store_mode: StoreMode = StoreMode.PRECISE
    quarantine_capacity: int = 0

    def __post_init__(self):
        for name in ("tg", "ts", "quarantine_capacity"):
            require_int(name, getattr(self, name))
        for name in ("zero_on_tag", "precision_ext", "right_align"):
            require_bool(name, getattr(self, name))
        if self.tg not in _VALID_TG:
            raise UsageError(f"tg must be one of {_VALID_TG}, got {self.tg!r}")
        if self.ts not in _VALID_TS:
            raise UsageError(f"ts must be one of {_VALID_TS}, got {self.ts!r}")
        if self.quarantine_capacity < 0:
            raise UsageError("quarantine_capacity must be >= 0")
        if not isinstance(self.store_mode, StoreMode):
            raise UsageError(f"store_mode must be a StoreMode, got {self.store_mode!r}")
        if self.precision_ext and self.right_align:
            raise UsageError("precision_ext and right_align are mutually exclusive")

    # Derived values are cached; the dataclass is frozen so they can
    # never go stale.

    @cached_property
    def n_tags(self) -> int:
        return 1 << self.ts

    @cached_property
    def tag_shift(self) -> int:
        return WORD_BITS - self.ts

    @cached_property
    def tg_shift(self) -> int:
        return self.tg.bit_length() - 1

    @cached_property
    def partial_tag(self) -> int | None:
        return self.n_tags - 1 if self.precision_ext else None

    @cached_property
    def reserved_tags(self) -> frozenset[int]:
        reserved = {0}
        if self.precision_ext:
            reserved.add(self.n_tags - 1)
        return frozenset(reserved)

    @cached_property
    def usable_tags(self) -> tuple[int, ...]:
        return tuple(t for t in range(self.n_tags) if t not in self.reserved_tags)

    @cached_property
    def tag_fill(self) -> int:
        """The byte that tagging memory fills it with: zero under
        zero_on_tag, else the uninitialized-memory sentinel."""
        return 0 if self.zero_on_tag else SENTINEL

    def to_dict(self) -> dict:
        return {**asdict(self), "store_mode": self.store_mode.value}


def pack(addr: int, tag: int, cfg: MtConfig) -> int:
    """Build a 64-bit pointer word: tag in the top ts bits, address in
    the low 56, intervening bits zero."""
    if not 0 <= addr < ADDR_SPACE:
        raise UsageError(f"address 0x{addr:x} outside the 2^{ADDR_BITS} byte space")
    if not 0 <= tag < cfg.n_tags:
        raise UsageError(f"tag {tag} does not fit in {cfg.ts} bits")
    return (tag << cfg.tag_shift) | addr


def unpack(word: int, cfg: MtConfig) -> tuple[int, int]:
    """Split a pointer word into (address, tag)."""
    return word & ADDR_MASK, (word >> cfg.tag_shift) & (cfg.n_tags - 1)


def offset_ptr(word: int, delta: int, cfg: MtConfig) -> int:
    """Pointer arithmetic that preserves the tag bits."""
    addr, tag = unpack(word, cfg)
    moved = addr + delta
    if not 0 <= moved < ADDR_SPACE:
        raise UsageError("pointer arithmetic left the address space")
    return pack(moved, tag, cfg)


class ShadowStore:
    """Granule tags, one byte per granule, in pages of TAG_PAGE granules.

    ``pages`` maps a page index (granule index >> TAG_PAGE_SHIFT) to a
    bytearray of its granules' tags.  A page is made on the first
    nonzero write into it; granules of a page that does not exist read
    as 0 (match-all), and a zero write never makes one.  ``writes``
    counts granule tag mutations: every granule a nonzero write names,
    and every granule a zero write clears from a nonzero tag.  It exists
    so tests can prove that untagged (sampled-out) allocations touch the
    table zero times.
    """

    __slots__ = ("cfg", "pages", "writes", "_tg", "_shift")

    def __init__(self, cfg: MtConfig):
        self.cfg = cfg
        self.pages: dict[int, bytearray] = {}
        self.writes = 0
        self._tg = cfg.tg
        self._shift = cfg.tg_shift

    def get(self, addr: int) -> int:
        g = addr >> self._shift
        page = self.pages.get(g >> TAG_PAGE_SHIFT)
        return page[g & TAG_PAGE_MASK] if page is not None else 0

    def set_range(self, addr: int, length: int, tag: int) -> None:
        """Tag every granule of [addr, addr+length).

        The range must be granule-aligned and a positive multiple of
        tg; anything else is a usage error, which is deliberately a
        different failure class from a tag fault.
        """
        tg = self._tg
        if addr & (tg - 1):
            raise UsageError(f"range start 0x{addr:x} is not {tg}-byte aligned")
        if length <= 0 or length % tg:
            raise UsageError(f"range length {length} is not a positive multiple of {tg}")
        if addr < 0 or addr + length > ADDR_SPACE:
            raise UsageError("range outside the address space")
        if not 0 <= tag < self.cfg.n_tags:
            raise UsageError(f"tag {tag} does not fit in {self.cfg.ts} bits")
        pages = self.pages
        g = addr >> self._shift
        key = g >> TAG_PAGE_SHIFT
        page = pages.get(key)
        if length == tg:  # one granule: most chunks and every PARTIAL mark
            if page is None:
                if not tag:
                    return
                page = pages[key] = bytearray(TAG_PAGE)
            g &= TAG_PAGE_MASK
            if tag or page[g]:
                page[g] = tag
                self.writes += 1
            return
        count = length >> self._shift
        off = g & TAG_PAGE_MASK
        if tag:
            self.writes += count
            run = BYTE_OF[tag]
        while True:  # one slice per page
            take = TAG_PAGE - off
            if take > count:
                take = count
            if tag:
                if page is None:
                    page = pages[key] = bytearray(TAG_PAGE)
                page[off : off + take] = run * take
            elif page is not None:  # a zero write clears, and counts, only nonzero tags
                cleared = take - page.count(0, off, off + take)
                if cleared:
                    self.writes += cleared
                    page[off : off + take] = bytes(take)
            count -= take
            if not count:
                return
            key += 1
            off = 0
            page = pages.get(key)
