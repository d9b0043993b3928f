"""Checked loads and stores, deferred store faults, and range checking.

Every access derives its tag from the pointer word itself and checks
each granule the access touches.  Loads are always precise: a mismatch
raises before any data moves.  Stores obey the configured StoreMode;
under IMPRECISE_STORES a mismatched store is suppressed (the write
never reaches memory, so deferral cannot hide corruption) and a
deferred FaultReport is queued until sync() drains it, in program
order.

check_user_range models the kernel side: a syscall fed a user range
must refuse it with an error code instead of trapping.  It never
raises and never mutates anything; its verdict is defined to equal a
one-byte-load loop over the range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TagMismatchError, UsageError
from .faults import AccessKind, FaultKind, FaultReport
from .precision import partial_access_ok
from .tagspace import ADDR_SPACE, MtConfig, StoreMode

EFAULT = 14  # classic errno for a bad user-space address

_WIDTHS = (1, 2, 4, 8)


@dataclass(frozen=True)
class RangeCheckError:
    """Refusal verdict from check_user_range: an errno plus the fault
    description identifying the first mismatching granule."""

    errno: int
    report: FaultReport


class AccessEngine:
    __slots__ = ("memory", "shadow", "cfg", "_owner", "_deferred",
                 "_tg_mask", "_shift", "_tag_shift", "_tag_mask", "_partial", "_precise")

    def __init__(self, memory, shadow, cfg: MtConfig, owner):
        self.memory = memory
        self.shadow = shadow
        self.cfg = cfg
        self._owner = owner  # callable addr -> Chunk | None, for provenance
        self._deferred: list[FaultReport] = []
        self._tg_mask = cfg.tg - 1
        self._shift = cfg.tg_shift
        self._tag_shift = cfg.tag_shift
        self._tag_mask = cfg.n_tags - 1
        self._partial = cfg.partial_tag
        self._precise = cfg.store_mode is StoreMode.PRECISE

    def load(self, word: int, width: int = 1) -> bytes:
        if width not in _WIDTHS:
            raise UsageError(f"load width must be one of {_WIDTHS}, got {width}")
        addr = word & (ADDR_SPACE - 1)
        if addr + width > ADDR_SPACE:
            raise UsageError("access wraps the address space")
        ptag = (word >> self._tag_shift) & self._tag_mask
        miss = self._first_mismatch(addr, width, ptag)
        if miss is None:
            return self.memory.read(addr, width)
        raise TagMismatchError(self._report(AccessKind.LOAD, word, ptag, addr, miss, False))

    def store(self, word: int, data: bytes) -> None:
        width = len(data)
        if width not in _WIDTHS:
            raise UsageError(f"store width must be one of {_WIDTHS}, got {width}")
        addr = word & (ADDR_SPACE - 1)
        if addr + width > ADDR_SPACE:
            raise UsageError("access wraps the address space")
        ptag = (word >> self._tag_shift) & self._tag_mask
        miss = self._first_mismatch(addr, width, ptag)
        if miss is None:
            self.memory.write(addr, bytes(data))
            return
        if self._precise:
            raise TagMismatchError(self._report(AccessKind.STORE, word, ptag, addr, miss, False))
        # imprecise mode: suppress the write, deliver the report later
        self._deferred.append(self._report(AccessKind.STORE, word, ptag, addr, miss, True))

    def sync(self) -> list[FaultReport]:
        """Drain deferred store faults in program order."""
        drained = self._deferred
        self._deferred = []
        return drained

    def check_user_range(self, word: int, length: int) -> RangeCheckError | None:
        """Syscall-style validation of [addr, addr+length); returns None
        when every byte is accessible, else an errno verdict.  Length 0
        is vacuously fine."""
        if length < 0:
            raise UsageError(f"range length must be >= 0, got {length}")
        if length == 0:
            return None
        addr = word & (ADDR_SPACE - 1)
        if addr + length > ADDR_SPACE:
            raise UsageError("range wraps the address space")
        ptag = (word >> self._tag_shift) & self._tag_mask
        miss = self._first_mismatch(addr, length, ptag)
        if miss is None:
            return None
        report = self._report(AccessKind.RANGE_CHECK, word, ptag, addr, miss, False)
        return RangeCheckError(errno=EFAULT, report=report)

    # ------------------------------------------------------------------

    def _first_mismatch(self, addr: int, length: int, ptag: int):
        """(granule base, mem tag, partial?) of the first failing
        granule in address order, or None when all checks pass."""
        shift = self._shift
        tags = self.shadow.tags
        partial = self._partial
        g = addr >> shift
        last = (addr + length - 1) >> shift
        tg = self._tg_mask + 1
        while g <= last:
            mtag = tags.get(g, 0)
            if mtag:
                gbase = g << shift
                if partial is not None and mtag == partial:
                    seg_start = addr if addr > gbase else gbase
                    seg_end = min(addr + length, gbase + tg)
                    if not partial_access_ok(self.memory, self.cfg, gbase,
                                             seg_start - gbase, seg_end - seg_start, ptag):
                        return gbase, mtag, True
                elif mtag != ptag:
                    return gbase, mtag, False
            g += 1
        return None

    def _report(self, access: AccessKind, word: int, ptag: int, addr: int,
                miss, deferred: bool) -> FaultReport:
        gbase, mtag, partial = miss
        fault_addr = addr if addr > gbase else gbase
        chunk = self._owner(fault_addr)
        return FaultReport(
            kind=FaultKind.TAG_MISMATCH,
            access=access,
            word=word,
            ptr_tag=ptag,
            mem_tag=mtag,
            granule_base=gbase,
            chunk_id=chunk.id if chunk else None,
            chunk_state=chunk.state.value if chunk else None,
            deferred=deferred,
            partial=partial,
        )
