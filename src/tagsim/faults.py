"""Fault descriptions and their stable wire format.

Every simulated trap is described by a FaultReport.  The plain-text
rendering and the JSON rendering are part of the package's contract:
tools diff them, so the key set and ordering below must not drift.
The plain line is built from the JSON record, so the two cannot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FaultKind(enum.Enum):
    TAG_MISMATCH = "tag-mismatch"
    INVALID_FREE = "invalid-free"
    DOUBLE_FREE = "double-free"


class AccessKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    RANGE_CHECK = "range-check"
    FREE = "free"


@dataclass(slots=True)
class FaultReport:
    """One simulated trap.

    word is the full 64-bit pointer involved; granule_base is the base
    address of the first granule whose check failed.  chunk_id and
    chunk_state carry heap provenance when the faulting address lies in
    a chunk the allocator still knows about (live, quarantined, or
    freed but not yet recycled); both are None otherwise.  deferred is
    True for mismatched stores queued under IMPRECISE_STORES.  partial
    marks mismatches decided by the partial-granule precision rule.
    """

    kind: FaultKind
    access: AccessKind
    word: int
    ptr_tag: int
    mem_tag: int
    granule_base: int
    chunk_id: int | None = None
    chunk_state: str | None = None
    deferred: bool = False
    partial: bool = False

    @classmethod
    def of(cls, kind: FaultKind, access: AccessKind, word: int, ptr_tag: int, mem_tag: int,
           granule_base: int, chunk, deferred: bool = False, partial: bool = False) -> FaultReport:
        """The report of a trap whose faulting address lies in the heap
        ``chunk`` (None if in none): the one place a report reads its
        provenance from a chunk."""
        provenance = (None, None) if chunk is None else (chunk.id, chunk.state.value)
        return cls(kind, access, word, ptr_tag, mem_tag, granule_base, *provenance, deferred, partial)

    def render(self) -> str:
        return "FAULT " + " ".join([f"{k}={v}" for k, v in self.to_json_dict().items()])

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "access": self.access.value,
            "ptr": f"0x{self.word:016x}",
            "ptag": f"0x{self.ptr_tag:x}",
            "mtag": f"0x{self.mem_tag:x}",
            "chunk": self.chunk_id if self.chunk_id is not None else "-",
            "state": self.chunk_state if self.chunk_state else "-",
            "deferred": 1 if self.deferred else 0,
        }
