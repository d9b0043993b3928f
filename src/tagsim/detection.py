"""Monte-Carlo detection estimation and its exact cross-check.

estimate_detection runs independent seeded scenario trials (trial i
uses seed base_seed + i, so any subset of trials can be replayed in
any order) on one simulator, reset to each trial's seed, and reports
the empirical detection rate next to the exact per-trial probability.

The exact probability is derived from the engine, not from a formula
or a second copy of the match rule or of a bug: the kind's own runner
builds each bug site on a scratch Simulator and the engine decides every
probe.  Only the draws that DRAW_PLANS names are modelled: sizes, offsets
and the pointer tag, grouped by its relation to the memory tag.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import prod

from .arena import PolicyKind, TagPolicy
from .errors import ScenarioError, UsageError, require_int, require_type
from .rng import PREMIX_STREAMS, premixed_rows
from .scenarios import DRAW_PLANS, Scenario, ScenarioKind, scenario_runner
from .sim import Simulator
from .tagspace import MtConfig, unpack


@dataclass(frozen=True)
class DetectionReport:
    kind: str
    trials: int
    detections: int
    rate: float
    theoretical: float | None
    config: dict

    def to_json_dict(self) -> dict:
        return asdict(self)  # the fields are the JSON key set

    def render(self) -> str:
        theo = "-" if self.theoretical is None else f"{self.theoretical:.6f}"
        return (f"kind={self.kind} trials={self.trials} detections={self.detections}"
                f" rate={self.rate:.6f} theoretical={theo}")


def _reuse_depth(kind: ScenarioKind, cfg: MtConfig) -> int:
    """Heap-use-after-free reuses the dead chunk, and so turns
    probabilistic, exactly when no quarantine holds the chunk back."""
    return int(kind is ScenarioKind.HEAP_USE_AFTER_FREE and cfg.quarantine_capacity == 0)


def theoretical_detection(kind: ScenarioKind, cfg: MtConfig,
                          policy: TagPolicy = TagPolicy()) -> Fraction | None:
    """Exact per-trial detection probability, decided by the engine.

    Returns None where no closed verdict applies (Sampled policies mix
    protected and unprotected allocations).

    Each (kind, cfg, policy) is derived once per process and then read
    from a least-recently-used memo of at most 1,024 entries; a one-shot
    CLI run asks for each once.
    """
    if not isinstance(kind, ScenarioKind):
        scenario_runner(kind)  # refuses it by name before the memo hashes it
    return _derive(kind, require_type("cfg", cfg, MtConfig),
                   require_type("policy", policy, TagPolicy))


@functools.lru_cache(maxsize=1024)
def _derive(kind: ScenarioKind, cfg: MtConfig, policy: TagPolicy) -> Fraction | None:
    """theoretical_detection's derivation (``__wrapped__`` skips the memo):
    the kind's runner builds each bug site on one scratch simulator, reset
    per site, whose rng is a _Run (the heap keeps its real stream); the
    engine then judges every probe at the result's word.  A kind without
    a plan takes the empty one, and its one run's verdict decides it."""
    if policy.kind is PolicyKind.SAMPLED:
        return None
    plan = DRAW_PLANS.get(kind, ())
    runner = scenario_runner(kind)
    proto = Scenario(kind, reuse_depth=_reuse_depth(kind, cfg), policy=policy)
    sim = Simulator(cfg, policy=policy)
    theory, memo, picks = Fraction(0), {}, []
    while True:
        sim._reset(0)
        sim.rng = run = _Run(kind, plan, picks)
        result = runner(sim, proto)
        if not plan:
            return Fraction(result.detected)
        addr, tag = unpack(result.word, cfg)
        # a drawn tag, or the one a pinned Random neighbour lends the probe
        uniform = "tag" in run.drawn or "pin" in run.drawn and policy.kind is PolicyKind.RANDOM
        probes = _uniform_tag(sim, addr, "tag" in run.drawn) if uniform else [(tag, 1)]
        # the span bytes the offset picks run up from the word's address, kept
        # in its granule (linear-underflow's count down from its last byte)
        start = min(addr, (addr & -cfg.tg) + cfg.tg - run.span)
        theory += _rate(sim, range(start, start + run.span), tuple(probes), memo) / prod(run.ranges)
        while picks and picks[-1] + 1 == run.ranges[len(picks) - 1]:  # the next site
            picks.pop()
        if not picks:
            return theory
        picks[-1] += 1


class _Run:
    """sim.rng for one runner call in _derive: serves the draws its plan
    names, in order (size i serves picks[i], appending 0 past their end,
    any other role 0), refuses any more, and records the sizes' ranges
    and the offset's as ``span``."""

    def __init__(self, kind: ScenarioKind, plan: tuple, picks: list[int]):
        self.kind, self.plan, self.picks = kind, plan, picks
        self.ranges, self.span, self.drawn = [], 1, ()

    def randrange(self, n: int) -> int:
        if len(self.drawn) == len(self.plan):
            raise ScenarioError(f"{self.kind.value} draws more than its plan {self.plan} names")
        role = self.plan[len(self.drawn)]
        self.drawn += (role,)
        if role == "size":
            if len(self.ranges) == len(self.picks):
                self.picks.append(0)
            self.ranges.append(n)
            return self.picks[len(self.ranges) - 1]
        if role == "offset":
            self.span = n
        return 0


def _uniform_tag(sim: Simulator, addr: int, reserved: bool) -> list[tuple[int, int]]:
    """A pointer tag uniform over the usable (and, if ``reserved``, the
    reserved) tags as (representative, weight) classes of its relation to
    the memory tag at addr; the engine treats all usable tags alike."""
    cfg = sim.cfg
    usable = cfg.usable_tags
    mem = sim.heap.effective_tag(addr)
    probes = [(mem, 1), (usable[usable.index(mem) - 1], len(usable) - 1)]
    if reserved:
        probes.extend((tag, 1) for tag in sorted(cfg.reserved_tags))
    return probes


def _rate(sim: Simulator, addrs: range, probes: tuple, memo: dict) -> Fraction:
    """Weighted share of one-byte probes at addrs that the engine's
    first_mismatch refuses, the check behind load, store and
    check_user_range.  The verdict depends only on the pointer tag and
    the granule's shadow tag and bytes, so equal granule states share it."""
    cfg = sim.cfg
    gbase = addrs.start & -cfg.tg
    state = (sim.shadow.get(gbase), sim.memory.read(gbase, cfg.tg), probes)
    verdicts = memo.get(state)
    if verdicts is None:
        # pack() inlined: the site's addresses and tags are in range
        first_mismatch, shift = sim.engine.first_mismatch, cfg.tag_shift
        verdicts = memo[state] = [
            sum(w for tag, w in probes
                if first_mismatch((tag << shift) | addr, 1) is not None)
            for addr in range(gbase, gbase + cfg.tg)]
    caught = sum(verdicts[addrs.start - gbase:addrs.stop - gbase])
    return Fraction(caught, len(addrs) * sum(w for _, w in probes))


# k is read off one trial; this bounds the lane constants it can ask for
_PREMIX_MAX_WORDS = 8


def estimate_detection(kind: ScenarioKind, cfg: MtConfig, trials: int, seed: int = 0,
                       policy: TagPolicy = TagPolicy()) -> DetectionReport:
    """Empirical detection rate over ``trials`` independent instances.

    Heap-use-after-free takes its probabilistic reuse variant whenever
    the quarantine is off, and its deterministic plain variant otherwise,
    exactly as theoretical_detection assumes.
    """
    if require_int("trials", trials) < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    require_int("seed", seed)
    require_type("cfg", cfg, MtConfig)
    # trial i is exactly run_scenario(Scenario(..., seed=seed + i)): runners
    # draw only from sim.rng, and _reset rewinds sim to a new one's state at seed + i
    runner = scenario_runner(kind)
    proto = Scenario(kind=kind, reuse_depth=_reuse_depth(kind, cfg), policy=policy)
    # Trial 0 draws one word at a time, and the words it drew, k, are
    # premixed for each later batch of up to PREMIX_STREAMS trials; a
    # trial that draws more mixes the rest itself.
    sim = Simulator(cfg, seed, policy)
    detections = 1 if runner(sim, proto).detected else 0
    k = min(sim.rng.words_since(seed), _PREMIX_MAX_WORDS)
    for start in range(seed + 1, seed + trials, PREMIX_STREAMS):
        count = min(PREMIX_STREAMS, seed + trials - start)
        rows = premixed_rows(start, k, count) if k else [()] * count
        for trial_seed, row in zip(range(start, start + count), rows):
            sim._reset(trial_seed, row)
            if runner(sim, proto).detected:
                detections += 1
    theo = theoretical_detection(kind, cfg, policy=policy)
    config = {**cfg.to_dict(), "sampling_rate": policy.rate,
              "policy": policy.kind.value, "seed": seed}
    return DetectionReport(
        kind=kind.value,
        trials=trials,
        detections=detections,
        rate=detections / trials,
        theoretical=None if theo is None else float(theo),
        config=config,
    )
