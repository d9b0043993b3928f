"""Stack frame tagging.

Frames live in their own downward-growing region, far from the heap
arena.  A frame's base tag, the tag of its first slot, is a pure
function of (frame base, frame sequence number, instance seed),
mimicking the cheap prologue trick of deriving a semi-random tag from
the frame pointer: no per-frame state is needed to recompute it, yet
re-entering a function at the same depth yields a different tag
because the sequence number moved on.

Each declared local gets its own slot, as many granules as malloc
gives its size (arena.placement), never right-aligned.  Slot tags step
through the non-reserved tags starting from the base tag, so sibling
locals always differ while the frame stays small.  Frame exit and
scope exit retag with a fresh tag distinct from the slots they cover,
making use-after-return and use-after-scope deterministic to catch.
Frame exits must be LIFO; breaking that is a usage error, not a fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arena import placement
from .errors import AllocationError, UsageError, require_int, require_type
from .rng import mix64
from .tagspace import MtConfig

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
        if type(index) is not int:  # a bool would pick slot 0 or 1
            require_int("index", index)
        if not 0 <= index < len(self.slots):
            raise UsageError(f"no local slot {index} in this frame")
        return self.slots[index].ptr


class StackTagger:
    __slots__ = ("memory", "shadow", "cfg", "rng", "seed", "floor", "_top", "_frames", "_seq")

    def __init__(self, memory, shadow, cfg: MtConfig, rng, seed: int = 0,
                 capacity: int = DEFAULT_STACK_CAPACITY):
        self.memory = memory
        self.shadow = shadow
        self.cfg = cfg
        self.rng = rng
        self.floor = STACK_BASE - capacity
        self._frames: list[Frame] = []
        self._clear(seed)

    def _clear(self, seed: int) -> None:
        """An empty stack, the state __init__ and each Simulator._reset start in."""
        self.seed = seed
        self._top = STACK_BASE
        self._frames.clear()
        self._seq = 0

    def enter_frame(self, local_sizes: list[int]) -> Frame:
        """Push a frame with one slot per declared local size."""
        if not isinstance(local_sizes, (list, tuple)):
            raise UsageError(f"local_sizes must be a list or tuple, got {local_sizes!r}")
        if not local_sizes:
            raise UsageError("a frame needs at least one local")
        cfg = self.cfg
        aligned_sizes = []
        total = 0
        for size in local_sizes:
            if type(size) is not int:  # as in ArenaAllocator.malloc
                require_int("local size", size)
            if size < 0:
                raise UsageError(f"local size must be >= 0, got {size}")
            aligned = placement(size, cfg)[1]
            aligned_sizes.append(aligned)
            total += aligned
        fbase = self._top - total
        if fbase < self.floor:
            raise AllocationError(f"stack overflow: need {total} bytes")

        usable = cfg.usable_tags
        n = len(usable)
        seq = self._seq
        self._seq += 1
        base_index = mix64(fbase ^ mix64(seq ^ self.seed)) % n

        set_range = self.shadow.set_range
        tag_shift = cfg.tag_shift
        slots = []
        offset = 0
        i = base_index
        for aligned in aligned_sizes:
            tag = usable[i % n]
            i += 1
            slot_base = fbase + offset
            set_range(slot_base, aligned, tag)
            # pack() inlined: tag and slot address are in range by construction
            slots.append(LocalSlot(offset, aligned, tag, (tag << tag_shift) | slot_base))
            offset += aligned
        # the slots tile the frame, so one fill covers them all
        self.memory.fill(fbase, total, cfg.tag_fill)

        frame = Frame(fbase, slots, total)
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
        if type(frame) is not Frame:
            require_type("frame", frame, Frame)
        if type(index) is not int:  # a bool would pick slot 0 or 1
            require_int("index", index)
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
        """One draw from the usable tags not in ``tags``: the tag that
        ``rng.choice`` of that list in ascending order would pick, found
        without building the list.  The usable tags are 1..n (only 0 and
        the top PARTIAL value are ever reserved), so the draw's k-th free
        tag is k + 1 stepped past every excluded tag at or below it."""
        n = len(self.cfg.usable_tags)
        skip = sorted(tags)
        if skip and (skip[0] <= 0 or skip[-1] > n):  # a reserved tag excludes nothing
            skip = [t for t in skip if 0 < t <= n]
        if len(skip) == n:
            raise UsageError("frame uses every non-reserved tag; no distinct exit tag exists")
        tag = self.rng.randrange(n - len(skip)) + 1
        for t in skip:
            if t > tag:
                break
            tag += 1
        return tag
