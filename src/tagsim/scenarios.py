"""Seeded single-bug scenarios for measuring detection.

Each scenario runs on a fresh Simulator, or one rewound to that state,
performs benign setup, then performs exactly one injected bug access.
The scenario is "detected" exactly when the engine refuses that access,
at once or, for a store under IMPRECISE_STORES, as the deferred report
it would queue.

Setup makes no checked access, so it can fault nowhere and queues no
deferred report.  malloc raises only UsageError or AllocationError,
freeing the pointer malloc just returned always succeeds, and the tags
and fill of a fresh chunk or slot are the heap's and the stack's
guarantees, tested once rather than re-checked in every trial.

Parameter distributions (sizes, offsets) are drawn from the trial's
seeded RNG and are documented per scenario below.  Two scenarios are
probabilistic by construction:

* heap-use-after-free with reuse_depth >= 1: the victim memory is
  freed and reallocated (same size, so first fit brings the new chunk
  back to the same granules), then probed through a dangling reference.
  The dangling reference's tag is drawn uniformly from ALL 2^ts tag
  values, modelling a stale pointer of arbitrary provenance: in a long
  running program dangling references survive many reuse generations,
  and untagged (sampled-out) allocations mint pointers with tag 0.
  Against a live tag drawn uniformly from the non-reserved values this
  makes the per-trial detection probability exactly (2^ts - 1) / 2^ts,
  the nominal strength of the tag width.

* non-linear-overflow: a wild pointer (index far out of bounds, so its
  landing granule is unrelated to its origin) probes one granule of a
  random tagged victim allocation.  The wild pointer's tag is likewise
  uniform over all 2^ts values, same rationale, same exact rate.

Untagged memory would match any probe, which is why both scenarios
probe allocated (tagged) victims.

The other scenarios are deterministic given the config: retag-on-free,
adjacent-distinct neighbors, and frame-exit retagging each guarantee a
mismatch, and the intra-granule and uninitialized-read scenarios are
decided by precision_ext and zero_on_tag respectively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arena import TagPolicy, placement
from .errors import UsageError, require_int, require_type
from .faults import AccessKind, FaultReport
from .sim import Simulator
from .tagspace import ADDR_MASK, MtConfig

# Geometry a runner draws when its Scenario leaves size and offset unset.
LINEAR_MAX_GRANULES = 4  # each linear neighbour's size is uniform in [1, 4 * tg]
INTRA_FULL_GRANULES = 2  # intra-granule: 0 or 1 full granules, then 1..tg-2 bytes
STACK_LOCAL_SIZE = 10  # bytes in each use-after-return / use-after-scope local


class ScenarioKind(enum.Enum):
    HEAP_USE_AFTER_FREE = "heap-use-after-free"
    LINEAR_OVERFLOW = "linear-overflow"
    LINEAR_UNDERFLOW = "linear-underflow"
    NON_LINEAR_OVERFLOW = "non-linear-overflow"
    INTRA_GRANULE_OVERFLOW = "intra-granule-overflow"
    USE_AFTER_RETURN = "use-after-return"
    USE_AFTER_SCOPE = "use-after-scope"
    UNINITIALIZED_READ = "uninitialized-read"


@dataclass(frozen=True)
class Scenario:
    """One seeded bug instance.

    A size of None is drawn from the trial RNG only by the linear and
    intra-granule kinds; the other heap kinds use tg, and the stack
    kinds STACK_LOCAL_SIZE.  An offset of None is drawn by each kind
    that reads one.  reuse_depth > 0 turns heap-use-after-free into its
    probabilistic reuse variant.  policy is the heap's tag policy, which
    run_scenario builds the Simulator with.  A bad kind, size, offset,
    reuse_depth or policy raises a UsageError naming the field, kind's
    through scenario_runner; seed is checked by Simulator."""

    kind: ScenarioKind
    size: int | None = None
    offset: int | None = None
    reuse_depth: int = 0
    seed: int = 0
    policy: TagPolicy = TagPolicy()

    def __post_init__(self):
        scenario_runner(self.kind)
        for name in ("size", "offset"):
            if getattr(self, name) is not None:
                require_int(name, getattr(self, name))
        if require_int("reuse_depth", self.reuse_depth) < 0:
            raise UsageError(f"reuse_depth must be >= 0, got {self.reuse_depth}")
        require_type("policy", self.policy, TagPolicy)


@dataclass(slots=True)
class ScenarioResult:
    """What one scenario run saw: the verdict; the bug access's pointer
    ``word``, its ``access`` kind and the engine's first_mismatch verdict
    ``miss`` (None when the access passed; all three None for
    uninitialized-read); and, for uninitialized-read, the bytes the
    read returned.  run_scenario sets ``report``, the FaultReport of a
    refused bug access, from its simulator; a runner leaves it None."""

    detected: bool
    word: int | None = None
    access: AccessKind | None = None
    miss: tuple[int, int, bool] | None = None
    observed: bytes | None = None
    report: FaultReport | None = None


def scenario_runner(kind: ScenarioKind):
    """Resolve the executor for ``kind``.

    Estimation loops hold the runner and a single Scenario prototype,
    resetting one Simulator to each trial's seed themselves; runners read
    randomness only through sim.rng, never through scenario.seed.
    """
    if isinstance(kind, ScenarioKind):
        return _RUNNERS[kind]
    if not isinstance(kind, str):  # a str is a name, perhaps a misspelt one
        require_type("kind", kind, ScenarioKind)
    raise UsageError(f"unknown scenario kind {kind!r}")


def run_scenario(scenario: Scenario, cfg: MtConfig) -> ScenarioResult:
    """Run ``scenario`` on a new Simulator, with the report of a refused
    bug access, which is built from that simulator before it is let go."""
    require_type("scenario", scenario, Scenario)
    runner = scenario_runner(scenario.kind)
    sim = Simulator(require_type("cfg", cfg, MtConfig), scenario.seed, scenario.policy)
    result = runner(sim, scenario)
    if result.miss is not None:
        result.report = sim.engine.report(result.access, result.word, result.miss)
    return result


# enum members read as module globals: on Python 3.11 a member lookup
# costs a descriptor call, and the bug access runs once per trial
_LOAD, _STORE = AccessKind.LOAD, AccessKind.STORE
_OVERFLOW = ScenarioKind.LINEAR_OVERFLOW


def _bug_access(sim: Simulator, word: int, store: bool) -> ScenarioResult:
    """The single injected bug access: the engine's verdict on one byte
    through ``word``.  Nothing runs after it, so a passing access moves
    no data, and a refused one is detected whether the engine would
    trap it at once or defer it as an imprecise store."""
    miss = sim.engine.first_mismatch(word, 1)
    return ScenarioResult(miss is not None, word, _STORE if store else _LOAD, miss)


# The runners build probe words as malloc does, with shifts and
# ADDR_MASK: each part is a malloc word, or a draw or offset already
# range-checked.
def _heap_use_after_free(sim: Simulator, s: Scenario) -> ScenarioResult:
    # size: one granule unless given, keeping reuse an exact fit
    size = s.size if s.size is not None else sim.cfg.tg
    heap = sim.heap
    ptr = heap.malloc(size)
    heap.free(ptr)
    if s.reuse_depth > 0:
        # churn the dead extent through reuse_depth fresh allocations;
        # exact-fit first fit brings every generation back to ptr's address
        reused = heap.malloc(size)
        for _ in range(s.reuse_depth - 1):
            heap.free(reused)
            reused = heap.malloc(size)
        probe_tag = sim.rng.randrange(sim.cfg.n_tags)
        probe = (probe_tag << sim.cfg.tag_shift) | (ptr & ADDR_MASK)
    else:
        probe = ptr  # the honest stale pointer; retag-on-free decides
    return _bug_access(sim, probe, store=False)


def _linear_neighbour(sim: Simulator, s: Scenario) -> ScenarioResult:
    """Two address-adjacent chunks, a below b.  linear-overflow stores
    off the end of a into b's first granule through a's pointer;
    linear-underflow stores off the front of b into a's last granule
    through b's pointer.  The bug's own chunk takes s.size when given;
    the other's size is always drawn."""
    tg = sim.cfg.tg
    overflow = s.kind is _OVERFLOW
    largest = LINEAR_MAX_GRANULES * tg
    size_a = 1 + sim.rng.randrange(largest) if s.size is None or not overflow else s.size
    size_b = 1 + sim.rng.randrange(largest) if s.size is None or overflow else s.size
    ptr_a = sim.heap.malloc(size_a)
    ptr_b = sim.heap.malloc(size_b)
    delta = s.offset if s.offset is not None else sim.rng.randrange(tg)
    if not 0 <= delta < tg:
        side = "first" if overflow else "last"
        raise UsageError(f"{s.kind.value} offset must stay in the neighbor's {side} granule")
    # b's tag over b's first granule base; a lies below b, so the
    # underflow's borrow never reaches the tag bits
    granule_b = ptr_b & -tg
    if overflow:
        probe = (ptr_a & ~ADDR_MASK) | ((granule_b & ADDR_MASK) + delta)
    else:
        probe = granule_b - 1 - delta
    return _bug_access(sim, probe, store=True)


def _non_linear_overflow(sim: Simulator, s: Scenario) -> ScenarioResult:
    # wild pointer with an arbitrary tag lands in a tagged victim granule
    size = s.size if s.size is not None else sim.cfg.tg
    victim = sim.heap.malloc(size)
    span = min(placement(size, sim.cfg)[0], sim.cfg.tg)  # stay in the victim's first granule
    delta = s.offset if s.offset is not None else sim.rng.randrange(span)
    if not 0 <= delta < span:
        raise UsageError(f"non-linear-overflow offset must lie in [0, {span})")
    probe_tag = sim.rng.randrange(sim.cfg.n_tags)
    probe = (probe_tag << sim.cfg.tag_shift) | ((victim & ADDR_MASK) + delta)
    return _bug_access(sim, probe, store=False)


def _intra_granule_overflow(sim: Simulator, s: Scenario) -> ScenarioResult:
    """Overflow that stays inside the chunk's own final granule.

    Sizes are drawn so the final granule has 1..tg-2 valid bytes and
    the bug offset lands past them but before the granule ends; only
    precision_ext can catch that.  A right-aligned chunk ends at its
    granule's end, so right_align leaves no such byte and is refused.
    """
    tg = sim.cfg.tg
    if s.size is not None:
        size = s.size
    else:
        size = sim.rng.randrange(INTRA_FULL_GRANULES) * tg + 1 + sim.rng.randrange(tg - 2)
    served, aligned, user_off = placement(size, sim.cfg)
    if user_off:
        raise UsageError("intra-granule scenario needs bytes past the chunk's end in its"
                         " last granule; right_align leaves none")
    if served == aligned:
        raise UsageError("intra-granule scenario needs a size that is not a granule multiple")
    offset = s.offset if s.offset is not None else served + sim.rng.randrange(aligned - served)
    if not served <= offset < aligned:
        raise UsageError(f"intra-granule offset must lie in [{served}, {aligned})")
    probe = sim.heap.malloc(size) + offset  # the heap ends far below 2^56
    return _bug_access(sim, probe, store=True)


def _use_after_return(sim: Simulator, s: Scenario) -> ScenarioResult:
    size = s.size if s.size is not None else STACK_LOCAL_SIZE
    stack = sim.stack
    frame = stack.enter_frame([size])
    stale = frame.local_ptr(0)
    stack.exit_frame(frame)
    return _bug_access(sim, stale, store=False)


def _use_after_scope(sim: Simulator, s: Scenario) -> ScenarioResult:
    size = s.size if s.size is not None else STACK_LOCAL_SIZE
    stack = sim.stack
    frame = stack.enter_frame([size, size])
    stale = frame.local_ptr(0)
    stack.end_scope(frame, 0)
    return _bug_access(sim, stale, store=False)


def _uninitialized_read(sim: Simulator, s: Scenario) -> ScenarioResult:
    """Read a fresh allocation before any write.

    "Detected" is defined as the read coming back all zeros, which is
    what zero_on_tag provides for free while tagging; without it the
    simulator's uninitialized-fill sentinel shows through.
    """
    size = s.size if s.size is not None else sim.cfg.tg
    served = placement(size, sim.cfg)[0]
    ptr = sim.heap.malloc(size)
    observed = sim.memory.read(ptr & ADDR_MASK, served)
    return ScenarioResult(detected=observed == bytes(served), observed=observed)


_RUNNERS = {
    ScenarioKind.HEAP_USE_AFTER_FREE: _heap_use_after_free,
    ScenarioKind.LINEAR_OVERFLOW: _linear_neighbour,
    ScenarioKind.LINEAR_UNDERFLOW: _linear_neighbour,
    ScenarioKind.NON_LINEAR_OVERFLOW: _non_linear_overflow,
    ScenarioKind.INTRA_GRANULE_OVERFLOW: _intra_granule_overflow,
    ScenarioKind.USE_AFTER_RETURN: _use_after_return,
    ScenarioKind.USE_AFTER_SCOPE: _use_after_scope,
    ScenarioKind.UNINITIALIZED_READ: _uninitialized_read,
}

# The roles of each runner's sim.rng draws, in order, for the exact theory
# (detection._Run); a kind not listed draws nothing from sim.rng.
DRAW_PLANS = {
    ScenarioKind.HEAP_USE_AFTER_FREE: ("tag",),
    ScenarioKind.LINEAR_OVERFLOW: ("pin", "size", "offset"),
    ScenarioKind.LINEAR_UNDERFLOW: ("size", "pin", "offset"),
    ScenarioKind.NON_LINEAR_OVERFLOW: ("offset", "tag"),
    ScenarioKind.INTRA_GRANULE_OVERFLOW: ("size", "size", "offset"),
}
