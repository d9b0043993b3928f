"""Sparse byte store for the simulated address space.

The machine model is a flat 2^56-byte space.  Backing bytes are
materialized lazily in 16 KiB pages so that a simulator instance
costs almost nothing until something is actually written.  Reads of
never-touched memory return zero bytes, so a zero fill makes no page
where none exists, as a zero tag write makes no shadow page.

A page is a multiple of every granule size, so no granule straddles
two pages: precision.mark_partial writes, and partial_meta reads, a
PARTIAL granule's metadata in place in one page.  At 16 KiB most
chunks are filled within one page.
"""

from __future__ import annotations

SENTINEL = 0xAA  # fill for uninitialized heap and stack bytes when zero_on_tag is off
# each byte value as a one-byte bytes, so a fill (and a shadow tag run)
# builds its run by one repeat, with no bytes() call
BYTE_OF = tuple(bytes((b,)) for b in range(256))

_PAGE_SHIFT = 14
_PAGE_SIZE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE_SIZE - 1


class SparseMemory:
    __slots__ = ("_pages",)

    def __init__(self):
        self._pages: dict[int, bytearray] = {}

    def read(self, addr: int, n: int) -> bytes:
        """The n bytes at addr.  It checks nothing: every caller reads a
        checked load's width, a PARTIAL granule's metadata, or the bytes
        of a granule or chunk it placed, so n >= 0."""
        pages = self._pages
        off = addr & _PAGE_MASK
        if n <= _PAGE_SIZE - off:
            page = pages.get(addr >> _PAGE_SHIFT)
            if page is None:
                return bytes(n)
            return bytes(page[off : off + n])
        out = bytearray()
        while n:
            take = min(n, _PAGE_SIZE - off)
            page = pages.get(addr >> _PAGE_SHIFT)
            if page is None:
                out_extend = bytes(take)
            else:
                out_extend = page[off : off + take]
            out += out_extend
            addr += take
            n -= take
            off = 0
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        n = len(data)
        off = addr & _PAGE_MASK
        if 0 < n and off + n <= _PAGE_SIZE:  # one page: every checked store and PARTIAL mark
            pages = self._pages
            page = pages.get(addr >> _PAGE_SHIFT)
            if page is None:
                page = pages[addr >> _PAGE_SHIFT] = bytearray(_PAGE_SIZE)
            page[off : off + n] = data
            return
        pos = 0
        while pos < n:
            off = addr & _PAGE_MASK
            take = min(n - pos, _PAGE_SIZE - off)
            page = self._page(addr >> _PAGE_SHIFT)
            page[off : off + take] = data[pos : pos + take]
            addr += take
            pos += take

    def fill(self, addr: int, n: int, value: int) -> None:
        """Set the n bytes at addr to value.  It checks nothing: its
        callers, malloc and frame entry, pass the granule span they
        placed (n > 0) and a byte, tag_fill or the sentinel."""
        off = addr & _PAGE_MASK
        if 0 < n <= _PAGE_SIZE - off:  # one page: most chunks and stack frames
            pages = self._pages
            page = pages.get(addr >> _PAGE_SHIFT)
            if page is None:
                if not value:
                    return
                page = pages[addr >> _PAGE_SHIFT] = bytearray(_PAGE_SIZE)
            page[off : off + n] = BYTE_OF[value] * n
            return
        run = memoryview(BYTE_OF[value] * min(n, _PAGE_SIZE))  # built once, sliced per page
        pages = self._pages
        index = addr >> _PAGE_SHIFT
        take = _PAGE_SIZE - off  # the first page's share; every later page's is whole
        while n > 0:
            if take > n:
                take = n
            page = pages.get(index)
            if page is None and value:
                page = pages[index] = bytearray(_PAGE_SIZE)
            if page is not None:
                page[off : off + take] = run[:take]
            n -= take
            index += 1
            off, take = 0, _PAGE_SIZE

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[index] = page
        return page
