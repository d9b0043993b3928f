"""Sparse byte store for the simulated address space.

The machine model is a flat 2^56-byte space.  Backing bytes are
materialized lazily in fixed-size pages so that a simulator instance
costs almost nothing until something is actually written.  Reads of
never-touched memory return zero bytes.
"""

from __future__ import annotations

SENTINEL = 0xAA  # fill for uninitialized heap and stack bytes when zero_on_tag is off

_PAGE_SHIFT = 12
_PAGE_SIZE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE_SIZE - 1


class SparseMemory:
    __slots__ = ("_pages",)

    def __init__(self):
        self._pages: dict[int, bytearray] = {}

    def read(self, addr: int, n: int) -> bytes:
        pages = self._pages
        off = addr & _PAGE_MASK
        if off + n <= _PAGE_SIZE:
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
        pos = 0
        while pos < n:
            off = addr & _PAGE_MASK
            take = min(n - pos, _PAGE_SIZE - off)
            page = self._page(addr >> _PAGE_SHIFT)
            page[off : off + take] = data[pos : pos + take]
            addr += take
            pos += take

    def fill(self, addr: int, n: int, value: int) -> None:
        off = addr & _PAGE_MASK
        if 0 < n and off + n <= _PAGE_SIZE:  # one page: most chunks and frame slots
            pages = self._pages
            page = pages.get(addr >> _PAGE_SHIFT)
            if page is None:
                page = pages[addr >> _PAGE_SHIFT] = bytearray(_PAGE_SIZE)
                if not value:
                    return  # a new page is all zeros already
            page[off : off + n] = bytes((value,)) * n
            return
        while n:
            off = addr & _PAGE_MASK
            take = min(n, _PAGE_SIZE - off)
            page = self._page(addr >> _PAGE_SHIFT)
            page[off : off + take] = bytes([value]) * take
            addr += take
            n -= take

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[index] = page
        return page
