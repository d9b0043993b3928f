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
own bookkeeping.

Sizes whose final-granule remainder exceeds tg-2 cannot host the
metadata; the allocator falls back to whole-granule tagging for them
and counts the fallback in its stats.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError

# A PARTIAL granule's last META_BYTES bytes hold (n, real tag), in order.
META_BYTES = 2


@dataclass(frozen=True)
class PartialGranuleMeta:
    """Decoded in-granule metadata: valid byte count and real tag."""

    n: int
    real_tag: int


def mark_partial(memory, shadow, cfg, granule_base: int, n: int, real_tag: int) -> None:
    """Mark the granule at granule_base as PARTIAL with n valid bytes.

    Requires precision_ext, a granule-aligned base, 0 < n <= tg-2 (the
    last two bytes hold metadata and are never valid application
    bytes), and a non-reserved real_tag.
    """
    if cfg.partial_tag is None:
        raise UsageError("precision_ext is not enabled in this config")
    if granule_base & (cfg.tg - 1):
        raise UsageError(f"0x{granule_base:x} is not the base of a {cfg.tg}-byte granule")
    if not 0 < n <= cfg.tg - META_BYTES:
        raise UsageError(f"valid byte count {n} outside 1..{cfg.tg - META_BYTES}")
    if not 0 <= real_tag < cfg.n_tags or real_tag in cfg.reserved_tags:
        raise UsageError(f"real tag {real_tag} is reserved or out of range")
    shadow.set_range(granule_base, cfg.tg, cfg.partial_tag)
    memory.write(granule_base + cfg.tg - META_BYTES, bytes((n, real_tag)))


def _meta(memory, cfg, granule_base: int) -> bytes:
    """The two bytes (n, real_tag) of the PARTIAL granule at granule_base."""
    return memory.read(granule_base + cfg.tg - META_BYTES, META_BYTES)


def read_partial_meta(memory, cfg, granule_base: int) -> PartialGranuleMeta:
    n, real_tag = _meta(memory, cfg, granule_base)
    return PartialGranuleMeta(n=n, real_tag=real_tag)


def partial_access_ok(memory, cfg, granule_base: int, offset: int, width: int, ptr_tag: int) -> bool:
    """Decide an access of [offset, offset+width) within a PARTIAL granule."""
    n, real_tag = _meta(memory, cfg, granule_base)
    return ptr_tag == real_tag and offset + width <= n
