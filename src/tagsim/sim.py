"""Simulator facade: one execution context wiring all subsystems together.

A Simulator owns the byte store, the granule tag table, the heap
allocator, the access engine, and the stack tagger, all sharing one
config and one seeded RNG.  Everything that draws randomness (tag
choices, retags, scenario parameters) pulls from that RNG in program
order, so a given (config, seed) pair replays bit-identically on any
platform.  The stack tagger is built on first use, as most trials are
heap-only; a Monte-Carlo run rewinds one simulator's parts for each trial.

sim.malloc, free, load, store, sync and check_user_range hand out the
bound methods of sim.heap and sim.engine themselves, looked up on each
read, so a call through the facade runs no frame of its own.

load and a precise store raise a fault carrying its FaultReport.  A
scenario's bug access asks the engine for the verdict alone
(engine.first_mismatch); run_scenario builds the report from that
verdict, and a Monte-Carlo trial, which reads only the verdict, never
builds it.
"""

from __future__ import annotations

from operator import attrgetter

from .access import AccessEngine
from .arena import ArenaAllocator, TagPolicy
from .errors import require_int, require_type
from .memory import SparseMemory
from .rng import SplitMix64
from .stack import StackTagger
from .tagspace import MtConfig, ShadowStore


class Simulator:
    __slots__ = ("cfg", "seed", "rng", "memory", "shadow", "heap", "engine", "_stack")

    def __init__(self, cfg: MtConfig = MtConfig(), seed: int = 0,
                 policy: TagPolicy = TagPolicy()):
        self.cfg = cfg = require_type("cfg", cfg, MtConfig)
        self.memory = memory = SparseMemory()
        self.shadow = shadow = ShadowStore(cfg)
        self.heap = heap = ArenaAllocator(memory, shadow, cfg, SplitMix64(),
                                          require_type("policy", policy, TagPolicy))
        self.engine = AccessEngine(memory, shadow, cfg, heap.find_owner)
        self._stack = None
        self._reset(require_int("seed", seed))

    def _reset(self, seed: int, words=()) -> None:
        """The state Simulator(cfg, seed, policy) starts in, each part rewound in
        place; the stream serves ``words`` first (SplitMix64.reseed) and
        shadow.writes keeps counting.  The caller checks ``seed``."""
        self.memory._pages.clear()
        self.shadow.pages.clear()
        self.seed = seed
        self.rng = rng = self.heap.rng  # not self.rng, which _derive may swap
        rng.reseed(seed, words)
        self.heap._clear()
        self.engine._deferred.clear()
        if self._stack is not None:
            self._stack._clear(seed)

    @property
    def stack(self) -> StackTagger:
        if self._stack is None:
            self._stack = StackTagger(self.memory, self.shadow, self.cfg, self.heap.rng,
                                      seed=self.seed)
        return self._stack

    malloc = property(attrgetter("heap.malloc"))
    free = property(attrgetter("heap.free"))
    load = property(attrgetter("engine.load"))
    store = property(attrgetter("engine.store"))
    sync = property(attrgetter("engine.sync"))
    check_user_range = property(attrgetter("engine.check_user_range"))
