"""Stack frame tagging.

Frames live in their own downward-growing region, far from the heap
arena.  A frame's base tag, the tag of its first slot, is a pure
function of (frame base, frame sequence number, instance seed),
mimicking the cheap prologue trick of deriving a semi-random tag from
the frame pointer: no per-frame state is needed to recompute it, yet
re-entering a function at the same depth yields a different tag
because the sequence number moved on.

Each declared local gets its own granule-rounded slot; slot tags step
through the non-reserved tags starting from the base tag, so sibling
locals always differ while the frame stays small.  Frame exit and
scope exit retag with a fresh tag distinct from the slots they cover,
making use-after-return and use-after-scope deterministic to catch.
Frame exits must be LIFO; breaking that is a usage error, not a fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AllocationError, UsageError
from .memory import SENTINEL
from .rng import mix64
from .tagspace import MtConfig, pack

STACK_BASE = 0x7000_0000_0000
DEFAULT_STACK_CAPACITY = 1 << 23


@dataclass(slots=True)
class LocalSlot:
    offset: int
    aligned: int
    tag: int
    ptr: int
    in_scope: bool = True


@dataclass(slots=True)
class Frame:
    base: int
    slots: list[LocalSlot]
    aligned_size: int
    live: bool = True

    def local_ptr(self, index: int) -> int:
        return self.slots[index].ptr


class StackTagger:
    def __init__(self, memory, shadow, cfg: MtConfig, rng, seed: int = 0,
                 capacity: int = DEFAULT_STACK_CAPACITY):
        self.memory = memory
        self.shadow = shadow
        self.cfg = cfg
        self.rng = rng
        self.seed = seed
        self.floor = STACK_BASE - capacity
        self._top = STACK_BASE
        self._frames: list[Frame] = []
        self._seq = 0

    def enter_frame(self, local_sizes: list[int]) -> Frame:
        """Push a frame with one slot per declared local size."""
        if not local_sizes:
            raise UsageError("a frame needs at least one local")
        cfg = self.cfg
        tg = cfg.tg
        aligned_sizes = []
        for size in local_sizes:
            if size < 0:
                raise UsageError(f"local size must be >= 0, got {size}")
            eff = size if size > 0 else 1
            aligned_sizes.append((eff + tg - 1) & ~(tg - 1))
        total = sum(aligned_sizes)
        fbase = self._top - total
        if fbase < self.floor:
            raise AllocationError(f"stack overflow: need {total} bytes")

        usable = cfg.usable_tags
        seq = self._seq
        self._seq += 1
        base_index = mix64(fbase ^ mix64(seq ^ self.seed)) % len(usable)

        slots = []
        offset = 0
        for i, aligned in enumerate(aligned_sizes):
            tag = usable[(base_index + i) % len(usable)]
            slot_base = fbase + offset
            self.shadow.set_range(slot_base, aligned, tag)
            if cfg.zero_on_tag:
                self.memory.fill(slot_base, aligned, 0x00)
            else:
                self.memory.fill(slot_base, aligned, SENTINEL)
            slots.append(LocalSlot(offset=offset, aligned=aligned, tag=tag,
                                   ptr=pack(slot_base, tag, cfg)))
            offset += aligned

        frame = Frame(base=fbase, slots=slots, aligned_size=total)
        self._top = fbase
        self._frames.append(frame)
        return frame

    def exit_frame(self, frame: Frame) -> None:
        """Pop the top frame, retagging its whole span with a fresh tag
        distinct from every slot tag so stale pointers always fault."""
        if not self._frames or self._frames[-1] is not frame:
            raise UsageError("frame exits must be LIFO; this frame is not on top")
        retag = self._draw_excluding({slot.tag for slot in frame.slots})
        self.shadow.set_range(frame.base, frame.aligned_size, retag)
        self._frames.pop()
        self._top = frame.base + frame.aligned_size
        frame.live = False

    def end_scope(self, frame: Frame, index: int) -> None:
        """Retag one slot when its lexical scope closes; sibling slots
        stay reachable."""
        if not frame.live:
            raise UsageError("frame already exited")
        if not 0 <= index < len(frame.slots):
            raise UsageError(f"no local slot {index} in this frame")
        slot = frame.slots[index]
        if not slot.in_scope:
            raise UsageError(f"slot {index} already went out of scope")
        retag = self._draw_excluding({slot.tag})
        self.shadow.set_range(frame.base + slot.offset, slot.aligned, retag)
        slot.in_scope = False

    def _draw_excluding(self, tags: set[int]) -> int:
        """One draw from the usable tags not in ``tags``."""
        candidates = [t for t in self.cfg.usable_tags if t not in tags]
        if not candidates:
            raise UsageError("frame uses every non-reserved tag; no distinct exit tag exists")
        return self.rng.choice(candidates)
