"""Monte-Carlo detection estimation and its exact cross-check.

estimate_detection runs independent seeded scenario trials (trial i
uses seed base_seed + i, so any subset of trials can be replayed in
any order) and reports the empirical detection rate next to the exact
per-trial probability.

The exact probability is derived from the engine, not from a formula
or a second copy of the match rule: each bug site is built in a
scratch Simulator by the real allocator and stack code, and the engine
decides every probe.  Only the draws are modelled: the runners' size
and offset ranges, and the probe's pointer tag, grouped by its
relation to the memory tag.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from .arena import PolicyKind, TagPolicy
from .errors import UsageError
from .scenarios import (INTRA_FULL_GRANULES, LINEAR_MAX_GRANULES, Scenario, ScenarioKind,
                        run_scenario, scenario_runner)
from .sim import Simulator
from .tagspace import MtConfig, pack, unpack


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


# One run of the scenario decides these: no draw changes their verdict,
# as each retag is chosen to differ and the fill follows the config.
_DRAW_FREE = (ScenarioKind.USE_AFTER_RETURN, ScenarioKind.USE_AFTER_SCOPE,
              ScenarioKind.UNINITIALIZED_READ)


def _reuse_depth(kind: ScenarioKind, cfg: MtConfig) -> int:
    """Heap-use-after-free reuses the dead chunk, and so turns
    probabilistic, exactly when no quarantine holds the chunk back."""
    return int(kind is ScenarioKind.HEAP_USE_AFTER_FREE and cfg.quarantine_capacity == 0)


def theoretical_detection(kind: ScenarioKind, cfg: MtConfig,
                          policy: TagPolicy = TagPolicy()) -> Fraction | None:
    """Exact per-trial detection probability, decided by the engine.

    Returns None where no closed verdict applies (Sampled policies mix
    protected and unprotected allocations).
    """
    if policy.kind is PolicyKind.SAMPLED:
        return None
    if kind in _DRAW_FREE or (kind is ScenarioKind.HEAP_USE_AFTER_FREE
                              and not _reuse_depth(kind, cfg)):
        return Fraction(run_scenario(Scenario(kind, policy=policy), cfg).detected)
    memo: dict = {}
    rates = [_rate(sim, addrs, tuple(probes), memo)
             for sim, addrs, probes in _sites(kind, cfg, policy)]
    return sum(rates) / len(rates)


def _sites(kind, cfg, policy):
    """The kind's equally likely bug sites: (scratch simulator, equally
    likely probe addresses in one granule, (pointer tag, weight) pairs)."""
    tg = cfg.tg
    if kind is ScenarioKind.HEAP_USE_AFTER_FREE:
        sim = Simulator(cfg, policy=policy)
        ptr = sim.malloc(tg)
        sim.free(ptr)
        sim.malloc(tg)
        addr = unpack(ptr, cfg)[0]
        yield sim, range(addr, addr + 1), _uniform_tag(sim, addr, reserved=True)
    elif kind is ScenarioKind.NON_LINEAR_OVERFLOW:
        sim = Simulator(cfg, policy=policy)
        addr = unpack(sim.malloc(tg), cfg)[0]
        yield sim, range(addr, addr + tg), _uniform_tag(sim, addr, reserved=True)
    elif kind in (ScenarioKind.LINEAR_OVERFLOW, ScenarioKind.LINEAR_UNDERFLOW):
        # overflow probes the second chunk's first granule, underflow the
        # first chunk's last; only the probed chunk's size shapes it
        overflow = kind is ScenarioKind.LINEAR_OVERFLOW
        for size in range(1, LINEAR_MAX_GRANULES * tg + 1):
            sim = Simulator(cfg, policy=policy)
            ptr_a = sim.malloc(tg if overflow else size)
            ptr_b = sim.malloc(size if overflow else tg)
            addr = (unpack(ptr_b, cfg)[0] & -tg) - (0 if overflow else tg)
            if policy.kind is PolicyKind.RANDOM:  # two independent usable tags
                probes = _uniform_tag(sim, addr, reserved=False)
            else:  # adjacent-distinct chose the two tags to differ
                probes = [(unpack(ptr_a if overflow else ptr_b, cfg)[1], 1)]
            yield sim, range(addr, addr + tg), probes
    elif kind is ScenarioKind.INTRA_GRANULE_OVERFLOW:
        for full in range(INTRA_FULL_GRANULES):
            for size in range(full * tg + 1, full * tg + tg - 1):
                sim = Simulator(cfg, policy=policy)
                addr, tag = unpack(sim.malloc(size), cfg)
                yield sim, range(addr + size, addr + ((size + tg - 1) & -tg)), [(tag, 1)]
    else:
        raise UsageError(f"unknown scenario kind {kind!r}")


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
    """Weighted share of one-byte probes at addrs that check_user_range
    refuses.  The verdict depends only on the pointer tag and the
    granule's shadow tag and bytes, so equal granule states share it."""
    cfg = sim.cfg
    gbase = addrs.start & -cfg.tg
    state = (sim.shadow.get(gbase), sim.memory.read(gbase, cfg.tg), probes)
    verdicts = memo.get(state)
    if verdicts is None:
        verdicts = memo[state] = [
            sum(w for tag, w in probes
                if sim.check_user_range(pack(addr, tag, cfg), 1) is not None)
            for addr in range(gbase, gbase + cfg.tg)]
    caught = sum(verdicts[addrs.start - gbase:addrs.stop - gbase])
    return Fraction(caught, len(addrs) * sum(w for _, w in probes))


def estimate_detection(kind: ScenarioKind, cfg: MtConfig, trials: int, seed: int = 0,
                       policy: TagPolicy = TagPolicy()) -> DetectionReport:
    """Empirical detection rate over ``trials`` independent instances.

    Heap-use-after-free takes its probabilistic reuse variant whenever
    the quarantine is off, and its deterministic plain variant otherwise,
    exactly as theoretical_detection assumes.
    """
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    # trial i is exactly run_scenario(Scenario(..., seed=seed + i)); the
    # prototype is reusable because runners draw only from sim.rng
    runner = scenario_runner(kind)
    proto = Scenario(kind=kind, reuse_depth=_reuse_depth(kind, cfg), policy=policy)
    detections = 0
    for i in range(trials):
        if runner(Simulator(cfg, seed=seed + i, policy=policy), proto).detected:
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
