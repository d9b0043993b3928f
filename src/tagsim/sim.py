"""Simulator facade: one execution context wiring all subsystems together.

A Simulator owns the byte store, the granule tag table, the heap
allocator, the access engine, and the stack tagger, all sharing one
config and one seeded RNG.  Everything that draws randomness (tag
choices, retags, scenario parameters) pulls from that RNG in program
order, so a given (config, seed) pair replays bit-identically on any
platform.  The stack tagger is built on first use; most trials are
heap-only and simulator construction sits on the Monte-Carlo hot path.

load and store raise a fault carrying its FaultReport at once.  A
scenario run asks the engine for the verdict alone (engine.first_mismatch)
and its ScenarioResult builds the report on first read, from this
simulator, which nothing changes after the bug access.
"""

from __future__ import annotations

from .access import AccessEngine, RangeCheckError
from .arena import ArenaAllocator, TagPolicy
from .faults import FaultReport
from .memory import SparseMemory
from .rng import SplitMix64
from .stack import StackTagger
from .tagspace import MtConfig, ShadowStore


class Simulator:
    __slots__ = ("cfg", "seed", "rng", "memory", "shadow", "heap", "engine", "_stack")

    def __init__(self, cfg: MtConfig | None = None, seed: int = 0,
                 policy: TagPolicy = TagPolicy()):
        if cfg is None:
            cfg = MtConfig()
        self.cfg = cfg
        self.seed = seed
        self.rng = rng = SplitMix64(seed)
        self.memory = memory = SparseMemory()
        self.shadow = shadow = ShadowStore(cfg)
        self.heap = heap = ArenaAllocator(memory, shadow, cfg, rng, policy)
        self.engine = AccessEngine(memory, shadow, cfg, heap.find_owner)
        self._stack = None

    @property
    def stack(self) -> StackTagger:
        if self._stack is None:
            self._stack = StackTagger(self.memory, self.shadow, self.cfg, self.rng,
                                      seed=self.seed)
        return self._stack

    # Convenience passthroughs; scenario and test code reads better
    # with sim.malloc(...) than sim.heap.malloc(...).

    def malloc(self, size: int) -> int:
        return self.heap.malloc(size)

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
