"""Seeded single-bug scenarios for measuring detection.

Each scenario builds a fresh Simulator, performs benign setup, then
performs exactly one injected bug access.  The verdict is strict: the
scenario is "detected" only if a fault fires at that bug access,
either immediately or as a deferred store report drained at scenario
end.  A fault anywhere else is a harness defect and raises
ScenarioError instead of polluting the measurement.

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

from .arena import TagPolicy
from .errors import FaultError, ScenarioError, TagMismatchError, UsageError
from .faults import FaultReport
from .memory import SENTINEL
from .sim import Simulator
from .tagspace import MtConfig, offset_ptr, pack, unpack

# Geometry a runner draws when its Scenario leaves size and offset
# unset.  theoretical_detection enumerates exactly these ranges.
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
    """One seeded bug instance.  size/offset of None mean "draw from
    the trial RNG"; reuse_depth > 0 turns heap-use-after-free into its
    probabilistic reuse variant."""

    kind: ScenarioKind
    size: int | None = None
    offset: int | None = None
    reuse_depth: int = 0
    seed: int = 0
    policy: TagPolicy = TagPolicy()


@dataclass(slots=True)
class ScenarioResult:
    detected: bool
    report: FaultReport | None = None
    observed: bytes | None = None


def scenario_runner(kind: ScenarioKind):
    """Resolve the executor for ``kind``.

    Estimation loops hold the runner and a single Scenario prototype,
    seeding a fresh Simulator per trial themselves; runners read
    randomness only through sim.rng, never through scenario.seed.
    """
    runner = _RUNNERS.get(kind)
    if runner is None:
        raise UsageError(f"unknown scenario kind {kind!r}")
    return runner


def run_scenario(scenario: Scenario, cfg: MtConfig) -> ScenarioResult:
    runner = scenario_runner(scenario.kind)
    sim = Simulator(cfg, seed=scenario.seed)
    return runner(sim, scenario)


def _bug_access(sim: Simulator, word: int, store: bool) -> tuple[bool, FaultReport | None]:
    """The single injected bug access, plus end-of-scenario drain.

    Deferred reports are attributed by pointer word; any report that is
    not ours means setup misbehaved.
    """
    try:
        if store:
            sim.store(word, b"\x00")
        else:
            sim.load(word, 1)
    except TagMismatchError as err:
        return True, err.report
    drained = sim.sync()
    mine = None
    for report in drained:
        if report.word != word:
            raise ScenarioError(f"fault outside the injected bug access: {report.render()}")
        if mine is None:
            mine = report
    return mine is not None, mine


def _setup_guard(err: FaultError) -> ScenarioError:
    return ScenarioError(f"scenario setup faulted: {err.report.render()}")


def _heap_use_after_free(sim: Simulator, s: Scenario) -> ScenarioResult:
    # size: one granule unless given, keeping reuse an exact fit
    size = s.size if s.size is not None else sim.cfg.tg
    try:
        ptr = sim.malloc(size, policy=s.policy)
        sim.free(ptr)
    except FaultError as err:
        raise _setup_guard(err) from err
    addr, _ = unpack(ptr, sim.cfg)
    if s.reuse_depth > 0:
        # churn the dead extent through reuse_depth fresh allocations;
        # exact-fit first fit brings every generation back to addr
        try:
            reused = None
            for _ in range(s.reuse_depth):
                if reused is not None:
                    sim.free(reused)
                reused = sim.malloc(size, policy=s.policy)
        except FaultError as err:
            raise _setup_guard(err) from err
        probe_tag = sim.rng.randrange(sim.cfg.n_tags)
        probe = pack(addr, probe_tag, sim.cfg)
    else:
        probe = ptr  # the honest stale pointer; retag-on-free decides
    detected, report = _bug_access(sim, probe, store=False)
    return ScenarioResult(detected=detected, report=report)


def _linear_overflow(sim: Simulator, s: Scenario) -> ScenarioResult:
    # two address-adjacent chunks; overflow off the end of the first
    tg = sim.cfg.tg
    size_a = s.size if s.size is not None else sim.rng.randint(1, LINEAR_MAX_GRANULES * tg)
    size_b = sim.rng.randint(1, LINEAR_MAX_GRANULES * tg)
    try:
        ptr_a = sim.malloc(size_a, policy=s.policy)
        sim.malloc(size_b, policy=s.policy)
    except FaultError as err:
        raise _setup_guard(err) from err
    user_a, _ = unpack(ptr_a, sim.cfg)
    # malloc serves size 0 as one byte
    chunk_end = (user_a + max(size_a, 1) + tg - 1) & ~(tg - 1)
    delta = s.offset if s.offset is not None else sim.rng.randrange(tg)
    if not 0 <= delta < tg:
        raise UsageError("linear-overflow offset must stay in the neighbor's first granule")
    probe = offset_ptr(ptr_a, (chunk_end + delta) - user_a, sim.cfg)
    detected, report = _bug_access(sim, probe, store=True)
    return ScenarioResult(detected=detected, report=report)


def _linear_underflow(sim: Simulator, s: Scenario) -> ScenarioResult:
    # two address-adjacent chunks; underflow off the front of the second
    tg = sim.cfg.tg
    size_a = sim.rng.randint(1, LINEAR_MAX_GRANULES * tg)
    size_b = s.size if s.size is not None else sim.rng.randint(1, LINEAR_MAX_GRANULES * tg)
    try:
        sim.malloc(size_a, policy=s.policy)
        ptr_b = sim.malloc(size_b, policy=s.policy)
    except FaultError as err:
        raise _setup_guard(err) from err
    user_b, _ = unpack(ptr_b, sim.cfg)
    chunk_base = user_b & ~(tg - 1)
    delta = s.offset if s.offset is not None else sim.rng.randrange(tg)
    if not 0 <= delta < tg:
        raise UsageError("linear-underflow offset must stay in the neighbor's last granule")
    probe = offset_ptr(ptr_b, (chunk_base - 1 - delta) - user_b, sim.cfg)
    detected, report = _bug_access(sim, probe, store=True)
    return ScenarioResult(detected=detected, report=report)


def _non_linear_overflow(sim: Simulator, s: Scenario) -> ScenarioResult:
    # wild pointer with an arbitrary tag lands in a tagged victim granule
    size = s.size if s.size is not None else sim.cfg.tg
    try:
        victim = sim.malloc(size, policy=s.policy)
    except FaultError as err:
        raise _setup_guard(err) from err
    vaddr, _ = unpack(victim, sim.cfg)
    # stay in the victim's first granule; malloc serves size 0 as one byte
    span = min(max(size, 1), sim.cfg.tg)
    delta = s.offset if s.offset is not None else sim.rng.randrange(span)
    if not 0 <= delta < span:
        raise UsageError(f"non-linear-overflow offset must lie in [0, {span})")
    probe_tag = sim.rng.randrange(sim.cfg.n_tags)
    probe = pack(vaddr + delta, probe_tag, sim.cfg)
    detected, report = _bug_access(sim, probe, store=False)
    return ScenarioResult(detected=detected, report=report)


def _intra_granule_overflow(sim: Simulator, s: Scenario) -> ScenarioResult:
    """Overflow that stays inside the chunk's own final granule.

    Sizes are drawn so the final granule has 1..tg-2 valid bytes and
    the bug offset lands past them but before the granule ends; only
    precision_ext can catch that.
    """
    tg = sim.cfg.tg
    if s.size is not None:
        size = s.size
    else:
        size = sim.rng.randrange(INTRA_FULL_GRANULES) * tg + sim.rng.randint(1, tg - 2)
    tail = size & (tg - 1)
    if tail == 0:
        raise UsageError("intra-granule scenario needs a size that is not a granule multiple")
    granule_end = (size + tg - 1) & ~(tg - 1)
    offset = s.offset if s.offset is not None else size + sim.rng.randrange(granule_end - size)
    if not size <= offset < granule_end:
        raise UsageError(f"intra-granule offset must lie in [{size}, {granule_end})")
    try:
        ptr = sim.malloc(size, policy=s.policy)
    except FaultError as err:
        raise _setup_guard(err) from err
    probe = offset_ptr(ptr, offset, sim.cfg)
    detected, report = _bug_access(sim, probe, store=True)
    return ScenarioResult(detected=detected, report=report)


def _use_after_return(sim: Simulator, s: Scenario) -> ScenarioResult:
    size = s.size if s.size is not None else STACK_LOCAL_SIZE
    frame = sim.stack.enter_frame([size])
    stale = frame.local_ptr(0)
    sim.stack.exit_frame(frame)
    detected, report = _bug_access(sim, stale, store=False)
    return ScenarioResult(detected=detected, report=report)


def _use_after_scope(sim: Simulator, s: Scenario) -> ScenarioResult:
    size = s.size if s.size is not None else STACK_LOCAL_SIZE
    frame = sim.stack.enter_frame([size, size])
    stale = frame.local_ptr(0)
    sim.stack.end_scope(frame, 0)
    try:
        sim.load(frame.local_ptr(1), 1)  # sibling must stay reachable
    except FaultError as err:
        raise _setup_guard(err) from err
    detected, report = _bug_access(sim, stale, store=False)
    return ScenarioResult(detected=detected, report=report)


def _uninitialized_read(sim: Simulator, s: Scenario) -> ScenarioResult:
    """Read a fresh allocation before any write.

    "Detected" is defined as the read coming back all zeros, which is
    what zero_on_tag provides for free while tagging; without it the
    simulator's uninitialized-fill sentinel shows through.
    """
    size = s.size if s.size is not None else sim.cfg.tg
    try:
        ptr = sim.malloc(size, policy=s.policy)
        chunks = []
        done = 0
        while done < size:
            width = 8 if size - done >= 8 else 1
            chunks.append(sim.load(offset_ptr(ptr, done, sim.cfg), width))
            done += width
    except FaultError as err:
        raise _setup_guard(err) from err
    observed = b"".join(chunks)
    if any(b not in (0, SENTINEL) for b in observed):
        raise ScenarioError("uninitialized read saw bytes that are neither zero nor sentinel")
    detected = observed == bytes(len(observed))
    return ScenarioResult(detected=detected, report=None, observed=observed)


_RUNNERS = {
    ScenarioKind.HEAP_USE_AFTER_FREE: _heap_use_after_free,
    ScenarioKind.LINEAR_OVERFLOW: _linear_overflow,
    ScenarioKind.LINEAR_UNDERFLOW: _linear_underflow,
    ScenarioKind.NON_LINEAR_OVERFLOW: _non_linear_overflow,
    ScenarioKind.INTRA_GRANULE_OVERFLOW: _intra_granule_overflow,
    ScenarioKind.USE_AFTER_RETURN: _use_after_return,
    ScenarioKind.USE_AFTER_SCOPE: _use_after_scope,
    ScenarioKind.UNINITIALIZED_READ: _uninitialized_read,
}
