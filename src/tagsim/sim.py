"""Simulator facade: one execution context wiring all subsystems together.

A Simulator owns the byte store, the granule tag table, the heap
allocator, the access engine, and the stack tagger, all sharing one
config and one seeded RNG.  Everything that draws randomness (tag
choices, retags, scenario parameters) pulls from that RNG in program
order, so a given (config, seed) pair replays bit-identically on any
platform.  The stack tagger is built on first use, as most trials are
heap-only; a Monte-Carlo run resets one simulator for each trial.

sim.malloc, free, load, store, sync and check_user_range hand out the
bound methods of sim.heap and sim.engine themselves, looked up on each
read, so a call through the facade runs no frame of its own.

load and store raise a fault carrying its FaultReport at once.  A
scenario run asks the engine for the verdict alone (engine.first_mismatch)
and its ScenarioResult builds the report on first read, from this
simulator, which nothing changes after the bug access.
"""

from __future__ import annotations

from operator import attrgetter

from .access import AccessEngine
from .arena import ArenaAllocator, TagPolicy
from .errors import require_int
from .memory import SparseMemory
from .rng import SplitMix64
from .stack import StackTagger
from .tagspace import MtConfig, ShadowStore


class Simulator:
    __slots__ = ("cfg", "seed", "rng", "memory", "shadow", "heap", "engine", "_policy", "_stack")

    def __init__(self, cfg: MtConfig | None = None, seed: int = 0,
                 policy: TagPolicy = TagPolicy()):
        if cfg is None:
            cfg = MtConfig()
        self.cfg = cfg
        self._policy = policy
        self.memory = memory = SparseMemory()
        self.shadow = shadow = ShadowStore(cfg)
        self.engine = AccessEngine(memory, shadow, cfg, None)
        self._reset(require_int("seed", seed))

    def _reset(self, seed: int) -> None:
        """The state Simulator(cfg, seed, policy) starts in, defined here
        alone; shadow.writes keeps counting.  The caller checks ``seed``."""
        self.memory._pages.clear()
        self.shadow.pages.clear()
        self.seed = seed
        self.rng = rng = SplitMix64(seed)
        self.heap = heap = ArenaAllocator(self.memory, self.shadow, self.cfg, rng, self._policy)
        self.engine._owner = heap.find_owner
        self.engine._deferred = []
        self._stack = None

    @property
    def stack(self) -> StackTagger:
        if self._stack is None:
            self._stack = StackTagger(self.memory, self.shadow, self.cfg, self.rng,
                                      seed=self.seed)
        return self._stack

    malloc = property(attrgetter("heap.malloc"))
    free = property(attrgetter("heap.free"))
    load = property(attrgetter("engine.load"))
    store = property(attrgetter("engine.store"))
    sync = property(attrgetter("engine.sync"))
    check_user_range = property(attrgetter("engine.check_user_range"))
