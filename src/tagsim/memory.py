"""Sparse byte store for the simulated address space.

The machine model is a flat 2^56-byte space.  Backing bytes are
materialized lazily in 16 KiB pages so that a simulator instance
costs almost nothing until something is actually written.  Reads of
never-touched memory return zero bytes, so a zero fill makes no page
where none exists, as a zero tag write makes no shadow page.

Each operation (read, write, fill) has one body, for a span inside one
page.  A span that crosses a page boundary is cut by ``pieces``, the
one place a span is cut at page boundaries, and each piece re-enters
the operation one level deep; the shadow store cuts its granule spans
the same way.  A page is a multiple of every granule size, so no
granule straddles two pages: precision.mark_partial writes, and
partial_meta reads, a PARTIAL granule's metadata in place in one page.
At 16 KiB most chunks are filled within one page.
"""

from __future__ import annotations

from collections.abc import Iterator

SENTINEL = 0xAA  # fill for uninitialized heap and stack bytes when zero_on_tag is off
# each byte value as a one-byte bytes, so a fill (and a shadow tag run)
# builds its run by one repeat, with no bytes() call
BYTE_OF = tuple(bytes((b,)) for b in range(256))

_PAGE_SHIFT = 14
_PAGE_SIZE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE_SIZE - 1


def pieces(start: int, n: int, page: int) -> Iterator[tuple[int, int]]:
    """The (start, length) of each piece of [start, start+n) that lies
    in one page of ``page`` units (a power of two), in address order."""
    end = start + n
    while start < end:
        stop = (start | (page - 1)) + 1  # the next page boundary
        if stop > end:
            stop = end
        yield start, stop - start
        start = stop


class SparseMemory:
    __slots__ = ("_pages",)

    def __init__(self):
        self._pages: dict[int, bytearray] = {}

    def read(self, addr: int, n: int) -> bytes:
        """The n bytes at addr.  It checks nothing: every caller reads a
        checked load's width, a PARTIAL granule's metadata, or the bytes
        of a granule or chunk it placed, so n >= 0."""
        off = addr & _PAGE_MASK
        if off + n > _PAGE_SIZE:
            return b"".join([self.read(at, k) for at, k in pieces(addr, n, _PAGE_SIZE)])
        page = self._pages.get(addr >> _PAGE_SHIFT)
        if page is None:
            return bytes(n)
        return bytes(page[off : off + n])

    def write(self, addr: int, data: bytes) -> None:
        n = len(data)
        off = addr & _PAGE_MASK
        if off + n > _PAGE_SIZE:
            data = memoryview(data)
            for at, k in pieces(addr, n, _PAGE_SIZE):
                self.write(at, data[at - addr : at - addr + k])
            return
        if n:  # an empty write makes no page
            page = self._pages.get(addr >> _PAGE_SHIFT)
            if page is None:
                page = self._pages[addr >> _PAGE_SHIFT] = bytearray(_PAGE_SIZE)
            page[off : off + n] = data

    def fill(self, addr: int, n: int, value: int) -> None:
        """Set the n bytes at addr to value.  It checks nothing: its
        callers, malloc and frame entry, pass the granule span they
        placed (n > 0) and a byte, tag_fill or the sentinel."""
        off = addr & _PAGE_MASK
        if off + n > _PAGE_SIZE:
            for at, k in pieces(addr, n, _PAGE_SIZE):
                self.fill(at, k, value)
            return
        page = self._pages.get(addr >> _PAGE_SHIFT)
        if page is None:
            if not (value and n):
                return
            page = self._pages[addr >> _PAGE_SHIFT] = bytearray(_PAGE_SIZE)
        page[off : off + n] = BYTE_OF[value] * n

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            page = self._pages[index] = bytearray(_PAGE_SIZE)
        return page
