"""Byte-precise checking for a chunk's partially used final granule.

Granule tagging alone cannot catch an overflow that stays inside the
chunk's own last granule: malloc(10) with tg=16 owns the whole 16-byte
granule, so an access at offset 12 matches even though it is out of
bounds.  The extension fixes that for the common case at zero extra
shadow cost.

A granule whose shadow tag equals the reserved PARTIAL value (2^ts - 1)
stores its real state in its own last two bytes:

    byte tg-2: n, the number of valid leading bytes (0 < n <= tg-2)
    byte tg-1: the real tag of the allocation

An access into such a granule is legal only when the pointer tag equals
the real tag AND the access ends at or before offset n.  The two
metadata bytes sit at offsets >= n by construction, so they can never
be read or written through a checked access: the scheme protects its
own bookkeeping.  partial_meta reads the two bytes in place from the
granule's memory page; the access check and the heap's effective_tag
both read them through it.

malloc decides which chunks get a PARTIAL granule, and its fit rule,
remainder <= tg - META_BYTES, is stated there alone.  A size whose
final-granule remainder is larger cannot host the metadata; the
allocator falls back to whole-granule tagging for it and counts the
fallback in its stats.
"""

from __future__ import annotations

from .memory import _PAGE_MASK, _PAGE_SHIFT

# A PARTIAL granule's last META_BYTES bytes hold (n, real tag), in order.
META_BYTES = 2


def mark_partial(memory, shadow, cfg, granule_base: int, n: int, real_tag: int) -> None:
    """Mark the granule at granule_base as PARTIAL with n valid bytes.

    It checks nothing: malloc, its only caller, passes a config with
    precision_ext, the base of the chunk's last granule, an n that fits
    (0 < n <= tg-2, so the last two bytes hold metadata and are never
    valid application bytes) and a tag drawn from the usable tags.
    """
    tg = cfg.tg
    shadow.set_range(granule_base, tg, cfg.partial_tag)
    memory.write(granule_base + tg - META_BYTES, bytes((n, real_tag)))


def partial_meta(memory, cfg, granule_base: int) -> tuple[int, int]:
    """(n, real_tag) of the PARTIAL granule at granule_base, read in
    place from its memory page; a page never written reads as zeros.
    The page size is a multiple of every tg, so the granule and its
    metadata bytes lie in one page."""
    page = memory._pages.get(granule_base >> _PAGE_SHIFT)
    if page is None:
        return 0, 0
    at = (granule_base & _PAGE_MASK) + cfg.tg - META_BYTES
    return page[at], page[at + 1]


def partial_access_ok(memory, cfg, granule_base: int, end: int, ptr_tag: int) -> bool:
    """Decide an access that ends at offset ``end`` of a PARTIAL granule."""
    n, real_tag = partial_meta(memory, cfg, granule_base)
    return ptr_tag == real_tag and end <= n
