"""Simulator facade: one execution context wiring all subsystems together.

A Simulator owns the byte store, the granule tag table, the heap
allocator, the access engine, and the stack tagger, all sharing one
config and one seeded RNG.  Everything that draws randomness (tag
choices, retags, scenario parameters) pulls from that RNG in program
order, so a given (config, seed) pair replays bit-identically on any
platform.  The stack tagger is built on first use; most trials are
heap-only and simulator construction sits on the Monte-Carlo hot path.
"""

from __future__ import annotations

from .access import AccessEngine, RangeCheckError
from .arena import ArenaAllocator, TagPolicy, DEFAULT_HEAP_CAPACITY
from .faults import FaultReport
from .memory import SparseMemory
from .rng import SplitMix64
from .stack import StackTagger, DEFAULT_STACK_CAPACITY
from .tagspace import MtConfig, ShadowStore


class Simulator:
    __slots__ = ("cfg", "seed", "rng", "memory", "shadow", "heap", "engine",
                 "_stack", "_stack_capacity")

    def __init__(self, cfg: MtConfig | None = None, seed: int = 0,
                 policy: TagPolicy | None = None,
                 heap_capacity: int = DEFAULT_HEAP_CAPACITY,
                 stack_capacity: int = DEFAULT_STACK_CAPACITY):
        self.cfg = cfg if cfg is not None else MtConfig()
        self.seed = seed
        self.rng = SplitMix64(seed)
        self.memory = SparseMemory()
        self.shadow = ShadowStore(self.cfg)
        self.heap = ArenaAllocator(self.memory, self.shadow, self.cfg, self.rng,
                                   policy=policy, capacity=heap_capacity)
        self.engine = AccessEngine(self.memory, self.shadow, self.cfg,
                                   owner=self.heap.find_owner)
        self._stack = None
        self._stack_capacity = stack_capacity

    @property
    def stack(self) -> StackTagger:
        if self._stack is None:
            self._stack = StackTagger(self.memory, self.shadow, self.cfg, self.rng,
                                      seed=self.seed, capacity=self._stack_capacity)
        return self._stack

    # Convenience passthroughs; scenario and test code reads better
    # with sim.malloc(...) than sim.heap.malloc(...).

    def malloc(self, size: int, policy: TagPolicy | None = None) -> int:
        return self.heap.malloc(size, policy=policy)

    def free(self, word: int) -> None:
        self.heap.free(word)

    def load(self, word: int, width: int = 1) -> bytes:
        return self.engine.load(word, width)

    def store(self, word: int, data: bytes) -> None:
        self.engine.store(word, data)

    def sync(self) -> list[FaultReport]:
        return self.engine.sync()

    def check_user_range(self, word: int, length: int) -> RangeCheckError | None:
        return self.engine.check_user_range(word, length)
