"""Checked loads and stores, deferred store faults, and range checking.

Every access derives its tag from the pointer word itself and checks
each granule the access touches.  first_mismatch is that check: it
returns the verdict for the first failing granule, raises nothing and
changes nothing.  load, store and check_user_range wrap it and build a
FaultReport only when they refuse; a caller that needs only the verdict
(the exact theory, a scenario's bug access) calls it directly, and
run_scenario alone builds the report for that verdict.

Loads are always precise: a mismatch raises before any data moves.
Stores obey the configured StoreMode; under IMPRECISE_STORES a
mismatched store is suppressed (the write never reaches memory, so
deferral cannot hide corruption) and a deferred FaultReport, built at
store time so its provenance is that of the fault, is queued until
sync() drains it, in program order.

check_user_range models the kernel side: a syscall fed a user range
must refuse it with an error code instead of trapping.  It never
raises a fault and never mutates anything; its verdict is defined to
equal a one-byte-load loop over the range.  A negative length or a
range that wraps the address space is a UsageError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TagMismatchError, UsageError, require_int, require_type
from .faults import AccessKind, FaultKind, FaultReport
from .precision import partial_access_ok
from .tagspace import ADDR_MASK, ADDR_SPACE, TAG_PAGE_MASK, TAG_PAGE_SHIFT, MtConfig, StoreMode

EFAULT = 14  # classic errno for a bad user-space address

_WIDTHS = (1, 2, 4, 8)
_STORE = AccessKind.STORE
_IMPRECISE = StoreMode.IMPRECISE_STORES


@dataclass(frozen=True)
class RangeCheckError:
    """Refusal verdict from check_user_range: an errno plus the fault
    description identifying the first mismatching granule."""

    errno: int
    report: FaultReport


class AccessEngine:
    __slots__ = ("memory", "shadow", "cfg", "_owner", "_deferred", "_constants")

    def __init__(self, memory, shadow, cfg: MtConfig, owner):
        self.memory = memory
        self.shadow = shadow
        self.cfg = cfg
        self._owner = owner  # callable addr -> Chunk | None, for provenance
        self._deferred: list[FaultReport] = []
        self._constants = (cfg.tg_shift, cfg.tag_shift, cfg.n_tags - 1, cfg.partial_tag)

    # Each argument's type is tested inline and require_int or require_type
    # is called only for a wrong one, to name it: these run once per heap event.
    def load(self, word: int, width: int = 1) -> bytes:
        if type(word) is not int:
            require_int("word", word)
        if width not in _WIDTHS or type(width) is not int:  # 1.0 and True are in _WIDTHS
            raise UsageError(f"load width must be one of {_WIDTHS}, got {width!r}")
        addr = word & ADDR_MASK
        if addr + width > ADDR_SPACE:
            raise UsageError("access wraps the address space")
        miss = self.first_mismatch(word, width)
        if miss is None:
            return self.memory.read(addr, width)
        raise TagMismatchError(self.report(AccessKind.LOAD, word, miss))

    def store(self, word: int, data: bytes) -> None:
        if type(word) is not int:
            require_int("word", word)
        if type(data) is not bytes:
            require_type("data", data, bytes)
        width = len(data)
        if width not in _WIDTHS:
            raise UsageError(f"store width must be one of {_WIDTHS}, got {width!r}")
        addr = word & ADDR_MASK
        if addr + width > ADDR_SPACE:
            raise UsageError("access wraps the address space")
        miss = self.first_mismatch(word, width)
        if miss is None:
            self.memory.write(addr, data)
            return
        report = self.report(_STORE, word, miss)
        if not report.deferred:
            raise TagMismatchError(report)
        # imprecise mode: suppress the write, deliver the report later
        self._deferred.append(report)

    def sync(self) -> list[FaultReport]:
        """Drain deferred store faults in program order."""
        drained = self._deferred
        self._deferred = []
        return drained

    def check_user_range(self, word: int, length: int) -> RangeCheckError | None:
        """Syscall-style validation of [addr, addr+length); returns None
        when every byte is accessible, else an errno verdict.  Length 0
        is vacuously fine."""
        if type(word) is not int:
            require_int("word", word)
        if type(length) is not int:
            require_int("length", length)
        if length < 0:
            raise UsageError(f"range length must be >= 0, got {length}")
        if length == 0:
            return None
        if (word & ADDR_MASK) + length > ADDR_SPACE:
            raise UsageError("range wraps the address space")
        miss = self.first_mismatch(word, length)
        if miss is None:
            return None
        return RangeCheckError(errno=EFAULT, report=self.report(AccessKind.RANGE_CHECK, word, miss))

    def first_mismatch(self, word: int, length: int) -> tuple[int, int, bool] | None:
        """(granule base, mem tag, partial?) of the first granule in
        address order that refuses ``length`` bytes through ``word``, or
        None when every check passes.  The range must not wrap the
        address space and ``length`` must be positive; the wrappers
        check both."""
        shift, tag_shift, tag_mask, partial = self._constants
        addr = word & ADDR_MASK
        ptag = (word >> tag_shift) & tag_mask
        pages = self.shadow.pages
        g = addr >> shift
        last = (addr + length - 1) >> shift
        while g <= last:
            page = pages.get(g >> TAG_PAGE_SHIFT)
            mtag = page[g & TAG_PAGE_MASK] if page is not None else 0
            if mtag:
                gbase = g << shift
                if mtag == partial:
                    # an end past the granule is past its valid bytes too
                    if not partial_access_ok(self.memory, self.cfg, gbase,
                                             addr + length - gbase, ptag):
                        return gbase, mtag, True
                elif mtag != ptag:
                    return gbase, mtag, False
            g += 1
        return None

    def report(self, access: AccessKind, word: int, miss: tuple[int, int, bool]) -> FaultReport:
        """The FaultReport for a refused access of ``word`` whose
        first_mismatch verdict is ``miss``, deferred for a store under
        IMPRECISE_STORES.  Provenance is read from the heap now, so build
        it before anything else changes the heap."""
        gbase, mtag, partial = miss
        _, tag_shift, tag_mask, _ = self._constants
        addr = word & ADDR_MASK
        fault_addr = addr if addr > gbase else gbase
        deferred = access is _STORE and self.cfg.store_mode is _IMPRECISE
        return FaultReport.of(FaultKind.TAG_MISMATCH, access, word, (word >> tag_shift) & tag_mask,
                              mtag, gbase, self._owner(fault_addr), deferred, partial)
