"""Bug-scenario corpus, Monte-Carlo estimation, theoretical rates, and
the allocation-trace overhead analyzer."""

import contextlib
import functools
import gc
import io
import itertools
import json
import os
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tagsim import (
    FaultError,
    MtConfig,
    PolicyKind,
    Scenario,
    ScenarioKind,
    Simulator,
    StoreMode,
    TagPolicy,
    TraceError,
    UsageError,
    estimate_detection,
    run_scenario,
    theoretical_detection,
)
import tagsim.arena
import tagsim.stack
import tagsim.traces
from tagsim import detection, scenarios
from tagsim.arena import ArenaAllocator
from tagsim.cli import main
from tagsim.faults import AccessKind
from tagsim.rng import SplitMix64
from tagsim.scenarios import (INTRA_FULL_GRANULES, LINEAR_MAX_GRANULES, STACK_LOCAL_SIZE,
                              scenario_runner)
from tagsim.stack import StackTagger
from tagsim.tagspace import pack, unpack
from tagsim.traces import Alloc, Free, _blocks, _scan, analyze_trace, load_trace
import grid_agreement
from test_cli import _write_churn_trace

CFG64 = MtConfig(tg=64, ts=4)
CFG16 = MtConfig(tg=16, ts=8)
# the benchmark's config B: every precision and trap-mode option on
CFG_B = MtConfig(tg=16, ts=8, precision_ext=True, zero_on_tag=True,
                 store_mode=StoreMode.IMPRECISE_STORES, quarantine_capacity=4096)
CFG64_PREC = MtConfig(tg=64, ts=4, precision_ext=True)


# ----------------------------------------------------------------------
# scenario corpus sanity


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_every_scenario_runs_clean(kind):
    """No scenario may fault anywhere except at its own injected bug."""
    for seed in range(25):
        result = run_scenario(Scenario(kind=kind, seed=seed), CFG64)
        assert result.detected in (True, False)


def test_uaf_without_reuse_is_deterministic():
    for seed in range(100):
        result = run_scenario(
            Scenario(kind=ScenarioKind.HEAP_USE_AFTER_FREE, seed=seed), CFG64
        )
        assert result.detected
        assert result.report.chunk_state == "freed"


def test_uaf_with_quarantine_is_deterministic():
    cfg = MtConfig(tg=64, ts=4, quarantine_capacity=4096)
    for seed in range(100):
        result = run_scenario(
            Scenario(kind=ScenarioKind.HEAP_USE_AFTER_FREE, seed=seed), cfg
        )
        assert result.detected
        assert result.report.chunk_state == "quarantined"


def test_uaf_with_reuse_sometimes_misses():
    outcomes = {
        run_scenario(
            Scenario(kind=ScenarioKind.HEAP_USE_AFTER_FREE, reuse_depth=1, seed=seed),
            CFG64,
        ).detected
        for seed in range(200)
    }
    assert outcomes == {True, False}


def test_linear_overflow_adjacent_distinct_never_misses():
    policy = TagPolicy.adjacent_distinct()
    for seed in range(100):
        result = run_scenario(
            Scenario(kind=ScenarioKind.LINEAR_OVERFLOW, seed=seed, policy=policy), CFG64
        )
        assert result.detected
        assert result.report.access is AccessKind.STORE


def test_linear_underflow_adjacent_distinct_never_misses():
    policy = TagPolicy.adjacent_distinct()
    for seed in range(100):
        result = run_scenario(
            Scenario(kind=ScenarioKind.LINEAR_UNDERFLOW, seed=seed, policy=policy), CFG64
        )
        assert result.detected


def test_intra_granule_needs_the_precision_extension():
    plain = sum(
        run_scenario(
            Scenario(kind=ScenarioKind.INTRA_GRANULE_OVERFLOW, seed=s), CFG16
        ).detected
        for s in range(50)
    )
    assert plain == 0
    prec = MtConfig(tg=16, ts=8, precision_ext=True)
    caught = sum(
        run_scenario(
            Scenario(kind=ScenarioKind.INTRA_GRANULE_OVERFLOW, seed=s), prec
        ).detected
        for s in range(50)
    )
    assert caught == 50


def test_intra_granule_report_marks_partial_rule():
    prec = MtConfig(tg=16, ts=8, precision_ext=True)
    result = run_scenario(Scenario(kind=ScenarioKind.INTRA_GRANULE_OVERFLOW, seed=1), prec)
    assert result.report.partial is True


def test_use_after_return_always_detected():
    for seed in range(100):
        assert run_scenario(
            Scenario(kind=ScenarioKind.USE_AFTER_RETURN, seed=seed), CFG64
        ).detected


def test_use_after_scope_always_detected():
    for seed in range(100):
        assert run_scenario(
            Scenario(kind=ScenarioKind.USE_AFTER_SCOPE, seed=seed), CFG64
        ).detected


def test_uninitialized_read_zeroing():
    zeroing = MtConfig(tg=16, ts=8, zero_on_tag=True)
    for seed in range(30):
        result = run_scenario(
            Scenario(kind=ScenarioKind.UNINITIALIZED_READ, seed=seed), zeroing
        )
        assert result.detected
        assert set(result.observed) == {0}
    for seed in range(30):
        result = run_scenario(
            Scenario(kind=ScenarioKind.UNINITIALIZED_READ, seed=seed), CFG16
        )
        assert not result.detected
        assert set(result.observed) == {0xAA}


def test_scenario_honours_explicit_geometry():
    prec = MtConfig(tg=16, ts=8, precision_ext=True)
    hit = run_scenario(
        Scenario(kind=ScenarioKind.INTRA_GRANULE_OVERFLOW, size=10, offset=12, seed=0),
        prec,
    )
    assert hit.detected
    plain = run_scenario(
        Scenario(kind=ScenarioKind.INTRA_GRANULE_OVERFLOW, size=10, offset=12, seed=0),
        CFG16,
    )
    assert not plain.detected


def test_run_scenario_is_deterministic():
    scenario = Scenario(kind=ScenarioKind.NON_LINEAR_OVERFLOW, seed=77)
    a = run_scenario(scenario, CFG64)
    b = run_scenario(scenario, CFG64)
    assert a.detected == b.detected
    if a.report is not None:
        assert a.report.render() == b.report.render()


# ----------------------------------------------------------------------
# theoretical rates


def test_theoretical_rates_are_exact_fractions():
    # no quarantine, so the freed chunk is reused
    assert theoretical_detection(ScenarioKind.HEAP_USE_AFTER_FREE, CFG64) == Fraction(15, 16)
    assert theoretical_detection(ScenarioKind.HEAP_USE_AFTER_FREE, CFG16) == Fraction(255, 256)
    assert theoretical_detection(ScenarioKind.NON_LINEAR_OVERFLOW, CFG64) == Fraction(15, 16)
    assert theoretical_detection(ScenarioKind.NON_LINEAR_OVERFLOW, CFG16) == Fraction(255, 256)


def test_theoretical_rate_without_reuse_is_certainty():
    quarantined = MtConfig(tg=64, ts=4, quarantine_capacity=4096)
    assert theoretical_detection(ScenarioKind.HEAP_USE_AFTER_FREE, quarantined) == 1


def test_theoretical_adjacent_distinct_linear_is_certainty():
    policy = TagPolicy.adjacent_distinct()
    assert theoretical_detection(ScenarioKind.LINEAR_OVERFLOW, CFG64, policy=policy) == 1
    assert theoretical_detection(ScenarioKind.LINEAR_UNDERFLOW, CFG64, policy=policy) == 1


def test_theoretical_linear_random_allows_collisions():
    rate = theoretical_detection(ScenarioKind.LINEAR_OVERFLOW, CFG64,
                                 policy=TagPolicy.random())
    assert rate == Fraction(14, 15)


def test_theoretical_linear_honours_partial_granules():
    """A chunk's PARTIAL last granule lets a same-tag access through up
    to its valid bytes and refuses the rest."""
    assert theoretical_detection(ScenarioKind.LINEAR_UNDERFLOW, CFG_B) == Fraction(64887, 65024)
    assert theoretical_detection(ScenarioKind.LINEAR_OVERFLOW, CFG_B) == Fraction(259191, 260096)
    assert theoretical_detection(ScenarioKind.LINEAR_UNDERFLOW, CFG64_PREC) == Fraction(55263, 57344)
    assert theoretical_detection(ScenarioKind.LINEAR_OVERFLOW, CFG64_PREC) == Fraction(215007, 229376)


def test_theoretical_rate_none_under_sampling():
    assert theoretical_detection(ScenarioKind.HEAP_USE_AFTER_FREE, CFG64,
                                 policy=TagPolicy.sampled(0.5)) is None


def test_theoretical_mode_switches():
    prec = MtConfig(tg=16, ts=8, precision_ext=True)
    assert theoretical_detection(ScenarioKind.INTRA_GRANULE_OVERFLOW, prec) == 1
    assert theoretical_detection(ScenarioKind.INTRA_GRANULE_OVERFLOW, CFG16) == 0
    zeroing = MtConfig(tg=16, ts=8, zero_on_tag=True)
    assert theoretical_detection(ScenarioKind.UNINITIALIZED_READ, zeroing) == 1
    assert theoretical_detection(ScenarioKind.UNINITIALIZED_READ, CFG16) == 0


# ----------------------------------------------------------------------
# theory against the full product through the engine


class _ScriptedTags(SplitMix64):
    """The simulator's RNG, except that each tag draw comes from a
    script, so a bug site can be built with any memory tag its policy
    allows.  The script holds the tag itself for a choice (malloc, the
    retag on free) and the index among the free tags for frame and
    scope exit, which draw one with randrange."""

    def __init__(self, tags):
        super().__init__(0)
        self.tags = list(tags)

    def choice(self, seq):
        tag = self.tags.pop(0)
        assert tag in seq, (tag, seq)
        return tag

    def randrange(self, n):
        index = self.tags.pop(0)
        assert 0 <= index < n, (index, n)
        return index


def _scripted(cfg, policy, tags, seed=0):
    sim = Simulator(cfg, seed=seed, policy=policy)
    sim.rng = sim.heap.rng = _ScriptedTags(tags)
    return sim


def _full_product_blocks(kind, cfg, policy):
    """Equally likely (sim, addresses, pointer tags) blocks, each probed
    at every address with every pointer tag, all equally likely: every
    geometry the runner draws for the probed chunk crossed with every
    memory tag, and every pointer tag the scenario pairs with it.  The
    other linear neighbour is one byte long."""
    tg = cfg.tg
    usable = cfg.usable_tags
    if kind is ScenarioKind.HEAP_USE_AFTER_FREE and cfg.quarantine_capacity == 0:
        for mem in usable:  # the reused chunk's tag; the dangling tag is anything
            sim = _scripted(cfg, policy, [usable[0], usable[1], mem])
            ptr = sim.malloc(tg)
            sim.free(ptr)
            sim.malloc(tg)
            yield sim, [unpack(ptr, cfg)[0]], range(cfg.n_tags)
    elif kind is ScenarioKind.HEAP_USE_AFTER_FREE:
        for live in usable:
            for retag in usable:
                if retag != live:
                    sim = _scripted(cfg, policy, [live, retag])
                    ptr = sim.malloc(tg)
                    sim.free(ptr)
                    yield sim, [unpack(ptr, cfg)[0]], [live]
    elif kind is ScenarioKind.NON_LINEAR_OVERFLOW:
        for mem in usable:
            sim = _scripted(cfg, policy, [mem])
            victim = unpack(sim.malloc(tg), cfg)[0]
            yield sim, range(victim, victim + tg), range(cfg.n_tags)
    elif kind in (ScenarioKind.LINEAR_OVERFLOW, ScenarioKind.LINEAR_UNDERFLOW):
        overflow = kind is ScenarioKind.LINEAR_OVERFLOW
        for size in range(1, LINEAR_MAX_GRANULES * tg + 1):
            for mem in usable:
                other = usable[usable.index(mem) - 1]
                sim = _scripted(cfg, policy, [other, mem] if overflow else [mem, other])
                size_a, size_b = (1, size) if overflow else (size, 1)
                ptr_a, ptr_b = sim.malloc(size_a), sim.malloc(size_b)
                if overflow:  # the runner's chunk end, then the neighbour's first granule
                    first = (unpack(ptr_a, cfg)[0] + size_a + tg - 1) & -tg
                else:  # the granule below the second chunk's base
                    first = (unpack(ptr_b, cfg)[0] & -tg) - tg
                ptags = usable
                if policy.kind is PolicyKind.ADJACENT_DISTINCT:
                    ptags = [t for t in usable if t != mem]
                yield sim, range(first, first + tg), ptags
    elif kind is ScenarioKind.INTRA_GRANULE_OVERFLOW:
        for full in range(INTRA_FULL_GRANULES):
            for tail in range(1, tg - 1):
                size = full * tg + tail
                for mem in usable:
                    sim = _scripted(cfg, policy, [mem])
                    addr = unpack(sim.malloc(size), cfg)[0]
                    yield sim, range(addr + size, addr + ((size + tg - 1) & -tg)), [mem]
    else:
        scope = kind is ScenarioKind.USE_AFTER_SCOPE
        local_sizes = [STACK_LOCAL_SIZE] * (2 if scope else 1)
        seed_for_tag = {}  # slot tags derive from the seed, not from the RNG
        for seed in range(200):
            frame = Simulator(cfg, seed=seed).stack.enter_frame(local_sizes)
            seed_for_tag.setdefault(frame.slots[0].tag, seed)
        assert sorted(seed_for_tag) == list(usable)
        for tag, seed in seed_for_tag.items():
            # frame and scope exit draw among the usable tags but the slot's
            for index in range(len(usable) - 1):
                sim = _scripted(cfg, policy, [index], seed=seed)
                frame = sim.stack.enter_frame(local_sizes)
                if scope:
                    sim.stack.end_scope(frame, 0)
                else:
                    sim.stack.exit_frame(frame)
                yield sim, [unpack(frame.local_ptr(0), cfg)[0]], [tag]


def _full_product(kind, cfg, policy):
    if kind is ScenarioKind.UNINITIALIZED_READ:  # no tag check: the runner decides
        runner = scenario_runner(kind)
        verdicts = [runner(_scripted(cfg, policy, [mem]), Scenario(kind, policy=policy)).detected
                    for mem in cfg.usable_tags]
        return Fraction(sum(verdicts), len(verdicts))
    total, blocks = Fraction(0), 0
    for sim, addrs, ptags in _full_product_blocks(kind, cfg, policy):
        # the engine's verdict behind load, store and check_user_range
        first_mismatch = sim.engine.first_mismatch
        caught = sum(first_mismatch(pack(addr, ptag, cfg), 1) is not None
                     for addr in addrs for ptag in ptags)
        total += Fraction(caught, len(addrs) * len(ptags))
        blocks += 1
    return total / blocks


# every (mode, policy) pair once; each mode and each policy meets both
# quarantine settings, so heap-use-after-free takes both of its paths
_CROSS_CHECK = (
    ({}, TagPolicy.random(), 0),
    ({}, TagPolicy.adjacent_distinct(), 4096),
    ({"precision_ext": True}, TagPolicy.random(), 4096),
    ({"precision_ext": True}, TagPolicy.adjacent_distinct(), 0),
    ({"right_align": True}, TagPolicy.random(), 0),
    ({"right_align": True}, TagPolicy.adjacent_distinct(), 4096),
)


# a right-aligned chunk ends at its granule's end: no byte past it for
# intra-granule overflow to probe
_RIGHT_ALIGN_REFUSAL = ("^intra-granule scenario needs bytes past the chunk's end in its"
                        " last granule; right_align leaves none$")


def _refused(kind, cfg):
    return kind is ScenarioKind.INTRA_GRANULE_OVERFLOW and cfg.right_align


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_theory_equals_full_product_through_engine(kind):
    """theoretical_detection groups probe tags into relation classes and
    shares verdicts between equal granule states; the reference here
    enumerates every (pointer tag, memory tag) pair and every geometry
    at ts=4, tg=16 with no grouping."""
    for mode, policy, quarantine in _CROSS_CHECK:
        cfg = MtConfig(tg=16, ts=4, quarantine_capacity=quarantine, **mode)
        if _refused(kind, cfg):
            with pytest.raises(UsageError, match=_RIGHT_ALIGN_REFUSAL):
                theoretical_detection(kind, cfg, policy=policy)
            continue
        expected = _full_product(kind, cfg, policy)
        assert theoretical_detection(kind, cfg, policy=policy) == expected, (mode, policy)


# ----------------------------------------------------------------------
# the theory memo

_MEMO_CASES = (
    *[(MtConfig(tg=16, ts=4, quarantine_capacity=quarantine, **mode), policy)
      for mode, policy, quarantine in _CROSS_CHECK],
    *[(cfg, policy) for cfg in (CFG64, CFG_B)  # the benchmark's configs
      for policy in (TagPolicy.random(), TagPolicy.adjacent_distinct(), TagPolicy.sampled(0.5))],
)


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_memoized_theory_equals_a_fresh_derivation(kind):
    for cfg, policy in _MEMO_CASES:
        if _refused(kind, cfg):
            for derive in (theoretical_detection, detection._derive.__wrapped__):
                with pytest.raises(UsageError, match=_RIGHT_ALIGN_REFUSAL):
                    derive(kind, cfg, policy)
            continue
        theory = theoretical_detection(kind, cfg, policy)
        assert theoretical_detection(kind, cfg, policy) is theory
        assert detection._derive.__wrapped__(kind, cfg, policy) == theory, (cfg, policy)


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_a_draw_that_names_no_role_fails_the_theory(kind, monkeypatch):
    """The theory's stream serves a draw only by its role, so a runner
    draw by another name fails the derivation rather than being left out
    of the theory."""
    runner = scenarios._RUNNERS[kind]

    def drawing(sim, s):
        sim.rng.randrange(2)
        return runner(sim, s)

    monkeypatch.setitem(scenarios._RUNNERS, kind, drawing)
    with pytest.raises(AttributeError, match="'_Run' object has no attribute 'randrange'"):
        theoretical_detection(kind, CFG64)
    assert detection._derive.cache_info().currsize == 0  # a failed derivation is not kept


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_a_runner_draws_an_offset_exactly_when_its_kind_takes_one(kind, monkeypatch):
    """Scenario accepts an offset for the kinds in scenarios._OFFSET_KINDS
    alone, and those are the kinds whose runner draws one."""
    spans, offset = [], detection._Run.offset
    monkeypatch.setattr(detection._Run, "offset", lambda run, n: spans.append(n) or offset(run, n))
    for cfg in (CFG64, CFG_B):
        detection._derive.__wrapped__(kind, cfg, TagPolicy())
    takes_one = kind in scenarios._OFFSET_KINDS
    assert bool(spans) == takes_one
    with (contextlib.nullcontext() if takes_one else
          pytest.raises(UsageError, match=f"^offset does not apply to scenario {kind.value}$")):
        Scenario(kind, offset=0)


@pytest.mark.parametrize("cfg", [CFG64, CFG_B], ids=["A", "B"])
@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_a_trial_leaves_no_deferred_report(kind, cfg):
    """A runner's setup makes no checked access and its bug access only
    asks the engine for a verdict, so no trial queues a deferred store
    report, even one whose store config B's imprecise mode refuses."""
    runner = scenario_runner(kind)
    scenario = Scenario(kind, reuse_depth=detection._reuse_depth(kind, cfg))
    refused = 0
    for seed in range(40):
        sim = Simulator(cfg, seed)
        refused += runner(sim, scenario).miss is not None
        assert sim.engine.sync() == [], seed
    assert refused or kind in (ScenarioKind.INTRA_GRANULE_OVERFLOW,
                               ScenarioKind.UNINITIALIZED_READ)


@pytest.mark.parametrize("kind, runs", [
    (ScenarioKind.LINEAR_OVERFLOW, LINEAR_MAX_GRANULES * CFG64.tg),
    (ScenarioKind.LINEAR_UNDERFLOW, LINEAR_MAX_GRANULES * CFG64.tg),
    (ScenarioKind.INTRA_GRANULE_OVERFLOW, INTRA_FULL_GRANULES * (CFG64.tg - 2)),
    (ScenarioKind.NON_LINEAR_OVERFLOW, 1),
    *[(kind, 1) for kind in (ScenarioKind.USE_AFTER_RETURN, ScenarioKind.USE_AFTER_SCOPE,
                             ScenarioKind.UNINITIALIZED_READ)],
], ids=lambda v: getattr(v, "value", v))
def test_a_derivation_resets_one_simulator_per_bug_site(kind, runs, monkeypatch):
    """The theory's cost in work, not time: one scratch simulator, and
    one runner call per equally likely size (one call for a kind that
    draws no size)."""
    built, called = [], []
    init, runner = Simulator.__init__, scenarios._RUNNERS[kind]

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "__init__", counting_init)
    monkeypatch.setitem(scenarios._RUNNERS, kind,
                        lambda sim, s: called.append(sim) or runner(sim, s))
    theoretical_detection(kind, CFG64)
    assert len(built) == 1
    assert len(called) == runs
    assert set(called) == set(built)


@pytest.mark.parametrize("cfg", [CFG64, CFG_B], ids=["A", "B"])
@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_repeated_estimate_builds_only_its_trials(kind, cfg, monkeypatch):
    """The theory's scratch simulators are built by the first estimate
    of a (kind, cfg, policy) only; a later one, at any seed, builds just
    the one simulator that it resets for each trial."""
    built = []
    init = Simulator.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "__init__", counting)
    trials = 3
    first = estimate_detection(kind, cfg, trials=trials, seed=4)
    assert len(built) > 1
    built.clear()
    again = estimate_detection(kind, cfg, trials=trials, seed=40)
    assert len(built) == 1
    assert again.theoretical == first.theoretical


@pytest.mark.parametrize("cfg", [CFG64, CFG_B], ids=["A", "B"])
@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_an_estimate_rewinds_its_parts_and_builds_none_per_trial(kind, cfg, monkeypatch):
    """Once the theory is memoised, an estimate builds the stream, the
    heap and (for a stack kind) the stack tagger of its one simulator
    once, and rewinds them for each of its trials."""
    theoretical_detection(kind, cfg)
    built = {cls: 0 for cls in (SplitMix64, ArenaAllocator, StackTagger)}
    for cls in built:
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    report = estimate_detection(kind, cfg, trials=600, seed=7)
    assert report.trials == 600
    stack_kind = kind in (ScenarioKind.USE_AFTER_RETURN, ScenarioKind.USE_AFTER_SCOPE)
    assert built == {SplitMix64: 1, ArenaAllocator: 1, StackTagger: int(stack_kind)}


@pytest.mark.parametrize("cfg", [CFG64, CFG_B], ids=["A", "B"])
@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_a_valid_trial_names_no_wrong_type(kind, cfg, monkeypatch):
    """malloc and enter_frame test a size's type inline and call
    require_int only to name a wrong one, so an estimate's valid trials
    never call it."""
    theoretical_detection(kind, cfg)
    calls = []
    for module in (tagsim.arena, tagsim.stack):
        def counting(name, value, _require=module.require_int):
            calls.append(name)
            return _require(name, value)

        monkeypatch.setattr(module, "require_int", counting)
    report = estimate_detection(kind, cfg, trials=300, seed=11)
    assert report.trials == 300
    assert calls == []


def test_theory_spellings_share_one_memo_entry():
    kind = ScenarioKind.LINEAR_OVERFLOW
    theory = theoretical_detection(kind, CFG64, TagPolicy.random())
    for again in (theoretical_detection(kind, CFG64, policy=TagPolicy.random()),
                  theoretical_detection(kind=kind, cfg=CFG64, policy=TagPolicy()),
                  theoretical_detection(kind, MtConfig(tg=64, ts=4))):  # the default policy
        assert again is theory
    memo = detection._derive.cache_info()
    assert (memo.misses, memo.hits, memo.currsize) == (1, 3, 1)


def test_theory_memo_stays_within_its_bound():
    kind = ScenarioKind.NON_LINEAR_OVERFLOW
    bound = detection._derive.cache_info().maxsize
    assert bound == 1024
    cfgs = [MtConfig(tg=16, ts=4, quarantine_capacity=q) for q in range(bound + 2)]
    for n, cfg in enumerate(cfgs, 1):
        assert theoretical_detection(kind, cfg) == Fraction(15, 16)
        assert detection._derive.cache_info().currsize == min(n, bound)
    theoretical_detection(kind, cfgs[2])  # kept, and so now the most recent
    theoretical_detection(kind, cfgs[0])  # evicted as the least recently used
    memo = detection._derive.cache_info()
    assert (memo.hits, memo.misses) == (1, bound + 3)


# ----------------------------------------------------------------------
# Monte-Carlo estimation


def test_estimate_rejects_bad_trials():
    with pytest.raises(UsageError):
        estimate_detection(ScenarioKind.NON_LINEAR_OVERFLOW, CFG64, trials=0)


@pytest.mark.parametrize("policy", [TagPolicy.random(), TagPolicy.adjacent_distinct(),
                                    TagPolicy.sampled(0.5)], ids=lambda p: p.kind.value)
@pytest.mark.parametrize("cfg", [CFG64, CFG_B], ids=["A", "B"])  # the benchmark's configs
@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_estimate_matches_manual_replay(kind, cfg, policy):
    """estimate_detection is exactly per-trial run_scenario with seeds
    seed+0 .. seed+trials-1; 600 trials cross two premixed batches."""
    trials, seed = 600, 17
    report = estimate_detection(kind, cfg, trials=trials, seed=seed, policy=policy)
    # only heap-use-after-free takes a reuse depth: 1 without a quarantine
    reuse = (int(cfg.quarantine_capacity == 0) if kind is ScenarioKind.HEAP_USE_AFTER_FREE
             else None)
    manual = sum(
        run_scenario(Scenario(kind=kind, reuse_depth=reuse, seed=seed + i, policy=policy),
                     cfg).detected
        for i in range(trials)
    )
    assert report.detections == manual
    assert report.rate == manual / trials


def test_the_simulation_agrees_with_the_theory_on_a_slice_of_the_grid():
    """A fixed 1/16 slice of tests/grid_agreement.py's grid, which CI runs
    whole: every exact cell detects exactly as its theory says, and no
    probabilistic cell's count is off its Fraction at the corrected bound."""
    result = grid_agreement.check(every=16)
    assert result["failures"] == []
    assert (result["exact"], result["probabilistic"]) == (84, 54)  # the slice stays whole


def test_estimate_forces_reuse_only_without_quarantine():
    plain = estimate_detection(ScenarioKind.HEAP_USE_AFTER_FREE, CFG64, trials=300, seed=5)
    assert plain.theoretical == Fraction(15, 16)
    assert 0 < plain.detections < 300  # collisions happen

    qcfg = MtConfig(tg=64, ts=4, quarantine_capacity=4096)
    gated = estimate_detection(ScenarioKind.HEAP_USE_AFTER_FREE, qcfg, trials=300, seed=5)
    assert gated.theoretical == 1
    assert gated.detections == 300


def test_estimate_within_four_sigma():
    trials = 4000
    for kind, cfg in ((ScenarioKind.HEAP_USE_AFTER_FREE, CFG64),
                      (ScenarioKind.NON_LINEAR_OVERFLOW, CFG64),
                      (ScenarioKind.LINEAR_UNDERFLOW, CFG64_PREC),
                      (ScenarioKind.LINEAR_OVERFLOW, CFG64_PREC)):
        report = estimate_detection(kind, cfg, trials=trials, seed=11)
        p = float(report.theoretical)
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(report.rate - p) < 4 * sigma, (kind, report.rate, p)


def test_estimate_report_shape():
    report = estimate_detection(ScenarioKind.NON_LINEAR_OVERFLOW, CFG64, trials=50, seed=9)
    d = report.to_json_dict()
    assert sorted(d) == ["config", "detections", "kind", "rate", "theoretical", "trials"]
    assert d["trials"] == 50
    assert d["config"]["seed"] == 9
    assert d["config"]["tg"] == 64
    assert "rate" in report.render()


def _end_scope(index):
    stack = Simulator(CFG64).stack
    stack.end_scope(stack.enter_frame([4]), index)


# every int parameter of a public entry that refuses any other type as
# "<name> must be an int", with the way to pass it a value; Scenario's
# size, offset and reuse_depth, which take None, are in _SCENARIO_REFUSALS
_INT_PARAMETERS = {
    "estimate-trials": ("trials", lambda v: estimate_detection(
        ScenarioKind.NON_LINEAR_OVERFLOW, CFG64, trials=v)),
    "estimate-seed": ("seed", lambda v: estimate_detection(
        ScenarioKind.NON_LINEAR_OVERFLOW, CFG64, trials=3, seed=v)),
    "simulator-seed": ("seed", lambda v: Simulator(CFG64, seed=v)),
    "scenario-seed": ("seed", lambda v: run_scenario(
        Scenario(ScenarioKind.NON_LINEAR_OVERFLOW, seed=v), CFG64)),
    "malloc-size": ("size", lambda v: Simulator(CFG64).malloc(v)),
    "free-word": ("word", lambda v: Simulator(CFG64).free(v)),
    "load-word": ("word", lambda v: Simulator(CFG64).load(v)),
    "store-word": ("word", lambda v: Simulator(CFG64).store(v, b"a")),
    "range-word": ("word", lambda v: Simulator(CFG64).check_user_range(v, 1)),
    "range-length": ("length", lambda v: Simulator(CFG64).check_user_range(0x40, v)),
    "local-size": ("local size", lambda v: Simulator(CFG64).stack.enter_frame([v])),
    "scope-index": ("index", _end_scope),
    "local-index": ("index", lambda v: Simulator(CFG64).stack.enter_frame([4]).local_ptr(v)),
    "config-tg": ("tg", lambda v: MtConfig(tg=v)),
    "config-ts": ("ts", lambda v: MtConfig(ts=v)),
    "config-quarantine": ("quarantine_capacity", lambda v: MtConfig(quarantine_capacity=v)),
    "analyze-ts": ("tag width", lambda v: analyze_trace([], [16], ts=v)),
    "analyze-alignment": ("alignment", lambda v: analyze_trace([], [v], ts=8)),
}


@pytest.mark.parametrize("value", [True, False, 2.5, 3.0, 4.0, "7", "4", None, [4]], ids=repr)
@pytest.mark.parametrize("entry", list(_INT_PARAMETERS))
def test_int_parameters_refuse_other_types(entry, value):
    """trials=True used to run one trial, and the others raised a bare
    TypeError from the RNG.  With tests/test_api.py::_REFUSALS this is
    the boundary gate: every public entry refuses a wrong type by name."""
    name, call = _INT_PARAMETERS[entry]
    with pytest.raises(UsageError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("value", [1, 0, "no", None, 1.0, 4.0, "4", [4]], ids=repr)
@pytest.mark.parametrize("name", ["zero_on_tag", "precision_ext", "right_align"])
def test_config_flags_refuse_other_types(name, value):
    """MtConfig(zero_on_tag="no") used to be kept, and to_dict() printed "no"."""
    with pytest.raises(UsageError, match=f"^{name} must be a bool, got {re.escape(repr(value))}$"):
        MtConfig(**{name: value})


# Scenario's checked fields, each with the wrong values it refuses:
# size, offset and reuse_depth may be None, policy not
_SCENARIO_REFUSALS = [(field, value)
                      for field in ("size", "offset", "reuse_depth", "policy")
                      for value in (16.0, "16", True, None, [16])
                      if value is not None or field == "policy"]


@pytest.mark.parametrize("field,value", _SCENARIO_REFUSALS + [("reuse_depth", -1)], ids=repr)
def test_scenario_refuses_a_bad_field_by_name(field, value):
    """Scenario(size=True) used to run as size 1, reuse_depth=-1 as the
    plain variant, size=16.0 to raise a bare TypeError and policy="random"
    an AttributeError."""
    with pytest.raises(UsageError, match=f"^{field} must be "):
        Scenario(ScenarioKind.HEAP_USE_AFTER_FREE, **{field: value})


@pytest.mark.parametrize("cfg", [CFG64, CFG_B], ids=["A", "B"])  # the benchmark's configs
def test_an_unset_reuse_depth_runs_the_plain_use_after_free(cfg):
    """reuse_depth=None, once refused, is the plain variant, as 0 is."""
    for seed in range(40):
        unset = run_scenario(Scenario(ScenarioKind.HEAP_USE_AFTER_FREE, seed=seed), cfg)
        zero = run_scenario(Scenario(ScenarioKind.HEAP_USE_AFTER_FREE, reuse_depth=0,
                                     seed=seed), cfg)
        assert unset == zero  # the verdict, the bug access and its report


def test_estimate_refuses_a_policy_that_is_not_a_tag_policy():
    with pytest.raises(UsageError, match="^policy must be a TagPolicy, got 'random'$"):
        estimate_detection(ScenarioKind.HEAP_USE_AFTER_FREE, CFG64, trials=3, policy="random")


@pytest.mark.parametrize("rate", [0, 1])
def test_an_int_sampling_rate_is_reported_as_a_float(rate):
    """The library's report prints the rate as the CLI's does: 1.0, not 1."""
    policy = TagPolicy.sampled(rate)
    assert type(policy.rate) is float and policy.rate == rate
    report = estimate_detection(ScenarioKind.NON_LINEAR_OVERFLOW, CFG64, trials=3, policy=policy)
    assert json.dumps(report.to_json_dict()["config"]["sampling_rate"]) == f"{rate}.0"


def test_unknown_kind_is_refused_by_name():
    for call in (lambda: estimate_detection("x", CFG64, 3),
                 lambda: run_scenario(Scenario("x"), CFG64)):
        with pytest.raises(UsageError, match="^unknown scenario kind 'x'$") as refused:
            call()
        assert refused.traceback[-1].name == "scenario_runner"
    with pytest.raises(UsageError, match="^unknown scenario kind 'x'$") as refused:
        theoretical_detection("x", CFG64)
    assert refused.traceback[-1].name == "scenario_runner"
    assert detection._derive.cache_info().currsize == 0  # a failed derivation is not kept


@pytest.mark.parametrize("kind", [["x"], {}, 3, None], ids=repr)
def test_a_kind_that_is_no_scenario_kind_is_refused_by_name(kind):
    """An unhashable kind used to escape as a bare TypeError from the
    runner table or the theory's memo, and Scenario accepted it."""
    message = f"^kind must be a ScenarioKind, got {re.escape(repr(kind))}$"
    for call in (lambda: Scenario(kind),
                 lambda: estimate_detection(kind, CFG64, 3),
                 lambda: theoretical_detection(kind, CFG64)):
        with pytest.raises(UsageError, match=message):
            call()
    assert detection._derive.cache_info().currsize == 0


# ----------------------------------------------------------------------
# one simulator per Monte-Carlo run

# configs A and B, a right-aligned one, and the two other policies
_RESET_CASES = (
    (CFG64, TagPolicy.random()),
    (CFG_B, TagPolicy.random()),
    (MtConfig(tg=32, ts=4, right_align=True, quarantine_capacity=256), TagPolicy.random()),
    (CFG16, TagPolicy.adjacent_distinct()),
    (CFG16, TagPolicy.sampled(0.5)),
)


def _rendered(report):
    return None if report is None else report.render()


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_RESET_CASES), kind=st.sampled_from(list(ScenarioKind)),
       earlier=st.sampled_from(list(ScenarioKind)), reuse=st.integers(0, 2),
       seed=st.integers(-2**63, 2**64), earlier_seed=st.integers(-2**63, 2**64))
def test_reset_runs_a_trial_as_a_fresh_simulator(case, kind, earlier, reuse, seed, earlier_seed):
    """A trial on a simulator reset to seed s records exactly what a new
    simulator at seed s records, and each builds from its record the
    report that run_scenario at seed s returns, however the simulator was
    left: after an earlier trial, a live chunk, a store through a wrong
    tag (a deferred report in imprecise mode) and a stack frame."""
    cfg, policy = case

    def depth(kind):  # only heap-use-after-free takes a reuse depth
        return reuse if kind is ScenarioKind.HEAP_USE_AFTER_FREE else None

    sim = Simulator(cfg, earlier_seed, policy)
    # a refused earlier trial leaves the simulator after its size draws
    with (pytest.raises(UsageError, match=_RIGHT_ALIGN_REFUSAL) if _refused(earlier, cfg)
          else contextlib.nullcontext()):
        scenario_runner(earlier)(sim, Scenario(earlier, reuse_depth=depth(earlier), policy=policy))
    word = sim.malloc(1)
    try:
        sim.store(word ^ (1 << cfg.tag_shift), b"x")
    except FaultError:
        pass
    sim.stack.enter_frame([8])
    writes = sim.shadow.writes

    scenario = Scenario(kind, reuse_depth=depth(kind), seed=seed, policy=policy)
    sim._reset(seed)
    if _refused(kind, cfg):
        for run in (lambda: scenario_runner(kind)(sim, scenario),
                    lambda: run_scenario(scenario, cfg)):
            with pytest.raises(UsageError, match=_RIGHT_ALIGN_REFUSAL):
                run()
        return
    got = scenario_runner(kind)(sim, scenario)
    fresh = Simulator(cfg, seed, policy)  # run_scenario's own simulator, kept
    want = scenario_runner(kind)(fresh, scenario)
    assert got == want  # the records, with no report
    report = run_scenario(scenario, cfg).report
    assert (got.miss is None) == (report is None)
    if report is not None:
        for trial in (sim, fresh):
            assert trial.engine.report(got.access, got.word, got.miss) == report
    assert sim.seed == seed
    assert sim.heap.stats() == fresh.heap.stats()
    assert sim.memory._pages == fresh.memory._pages
    assert sim.shadow.pages == fresh.shadow.pages
    assert ([_rendered(r) for r in sim.engine.sync()]
            == [_rendered(r) for r in fresh.engine.sync()])
    assert ([sim.rng.next_word() for _ in range(8)]
            == [fresh.rng.next_word() for _ in range(8)])
    assert sim.shadow.writes == writes + fresh.shadow.writes  # counts across the reset
    # the stack an earlier trial left is rewound: its sequence, top and
    # frames, and so the pointer words of the next frame
    stack, want = sim.stack, fresh.stack
    assert (stack.seed, stack._seq, stack._top) == (want.seed, want._seq, want._top)
    assert stack._frames == want._frames
    assert ([slot.ptr for slot in stack.enter_frame([3, 40]).slots]
            == [slot.ptr for slot in want.enter_frame([3, 40]).slots])


# ----------------------------------------------------------------------
# trace parsing


GOOD_TRACE = """\
# synthetic workload
a 1 100

a 2 32
f 1
a 3 0
f 3
f 2
"""


def trace_source(tmp_path, text):
    """``load_trace`` of ``text``, written to a file as it is."""
    path = tmp_path / "trace.txt"
    path.write_text(text, encoding="utf-8", newline="")
    return load_trace(path)


class _ByAllocation(dict):
    """``_scan`` entries that name an allocation by its index among the
    allocations, and a free by the index of the allocation it ends.  No
    size is stored, so each allocation gets a fresh pair."""

    def __init__(self):
        super().__init__()
        self.allocations = 0

    def __missing__(self, size):
        n = self.allocations
        self.allocations += 1
        return ("a", n, size), ("f", n)


def scan_events(chunks):
    """The events ``_scan`` reads from ``chunks``, as ``_ByAllocation``
    names them."""
    for batch in _scan(chunks, _ByAllocation(), 1):  # a granule of one byte: q is the size
        yield from batch


def by_allocation(events):
    """Alloc and Free ``events`` as ``_ByAllocation`` names them."""
    index, allocations = {}, itertools.count()
    for event in events:
        if type(event) is Alloc:
            index[event.id] = n = next(allocations)
            yield "a", n, event.size
        else:
            yield "f", index.pop(event.id)


def test_scan_reads_each_event_and_the_allocation_each_free_ends():
    assert list(scan_events([GOOD_TRACE])) == [
        ("a", 0, 100), ("a", 1, 32), ("f", 0), ("a", 2, 0), ("f", 2), ("f", 1)]


def test_trace_ids_may_be_reused_after_free(tmp_path):
    report = analyze_trace(trace_source(tmp_path, "a 1 8\nf 1\na 1 16\n"), [8], ts=8)
    assert report.base_peak_bytes == 16


@pytest.mark.parametrize(
    "text,bad_line",
    [
        ("a 1 8\nx 2 3\n", 2),
        ("a 1\n", 1),
        ("a 1 8 9\n", 1),
        ("a 1 8\na 1 4\n", 2),
        ("f 9\n", 1),
        ("a 1 8\nf 1\nf 1\n", 3),
        ("a 1 -4\n", 1),
        ("a one 8\n", 1),
    ],
)
def test_trace_errors_name_the_offending_line(tmp_path, text, bad_line):
    with pytest.raises(TraceError) as exc:
        analyze_trace(trace_source(tmp_path, text), [8], ts=8)
    assert exc.value.line == bad_line
    assert f"line {bad_line}" in str(exc.value)


_REF_ALLOC_RE = re.compile(r"^a (\d+) (\d+)$")
_REF_FREE_RE = re.compile(r"^f (\d+)$")


def reference_parse_trace(text):
    """The regex parser the streaming one replaced, kept as the
    reference: yield the events, then raise the first bad line's error."""
    live = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        m = _REF_ALLOC_RE.match(line)
        if m:
            aid, size = int(m.group(1)), int(m.group(2))
            if aid in live:
                raise TraceError(f"allocation id {aid} is already live", line=line_no)
            live.add(aid)
            yield Alloc(aid, size)
            continue
        m = _REF_FREE_RE.match(line)
        if m:
            aid = int(m.group(1))
            if aid not in live:
                raise TraceError(f"free of unknown id {aid}", line=line_no)
            live.remove(aid)
            yield Free(aid)
            continue
        raise TraceError(f"unrecognized trace line {line!r}", line=line_no)


def scan_outcome(events):
    """The events of ``events`` and None, or, when a TraceError stops it,
    no events and that error's line and message: a refused trace gives
    no report, so the events read before its bad line are never used."""
    try:
        return list(events), None
    except TraceError as exc:
        return [], (exc.line, str(exc))


_TRACE_CHARS = "af#0123456789 \t-+_\r\n\x0b\x0c\x1c\x1d\x1e"
_LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
_ODD_LINES = ["", " ", "#", "# a 1 8", "\t# x", "a 1", "a 01 8", "f +1", "a -1 8", "a 1 8 ",
              " f 1", "a  1 8", "a\t1 8", "f 1_0", "f 9", "x 2 3",
              # at the edge of the parser's fast path: leading zeros, and
              # ids and sizes of 18 digits (in it) and 19 (out of it)
              "f 007", "a 0 0", "a 6 123456789012345678", "a 6 1234567890123456789",
              "a 123456789012345678 1", "f 123456789012345678",
              "a 1234567890123456789 1", "f 1234567890123456789"]


@st.composite
def _trace_texts(draw, breaks=st.sampled_from(_LINE_BREAKS)):
    """Mostly valid traces, so that parsing gets past the first lines,
    with odd lines, double allocations and raw characters mixed in, and
    ``breaks`` (by default every line break) between lines."""
    lines, live = [], []
    for op in draw(st.lists(st.integers(0, 15), max_size=16)):
        if op < 7 or (op < 12 and not live):
            aid = min(set(range(6)) - set(live), default=7)
            live.append(aid)
            lines.append(f"a {aid} {draw(st.integers(0, 99))}")
        elif op < 12:
            lines.append(f"f {live.pop(op % len(live))}")
        elif op == 12 and live:
            lines.append(f"a {live[0]} 1")
        elif op < 15:
            lines.append(draw(st.sampled_from(_ODD_LINES)))
        else:
            lines.append(draw(st.text(alphabet=_TRACE_CHARS, max_size=6)))
    return "".join(line + draw(breaks) for line in lines)


_trace_text = st.one_of(st.text(alphabet=_TRACE_CHARS, max_size=40), _trace_texts())


@st.composite
def _newline_texts(draw):
    """Traces with newline breaks only, the last one maybe missing, so
    that whole blocks are plain event lines."""
    text = draw(_trace_texts(breaks=st.just("\n")))
    return text[:-1] if text and draw(st.booleans()) else text


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_trace_text, block_size=st.integers(min_value=1, max_value=8))
def test_parser_matches_regex_reference(tmp_path, text, block_size):
    expected = scan_outcome(by_allocation(reference_parse_trace(text)))
    assert scan_outcome(scan_events([text])) == expected
    path = tmp_path / "trace.txt"
    path.write_text(text, encoding="ascii", newline="")
    assert scan_outcome(scan_events(_blocks(path))) == expected
    # blocks cut after their last line break: lines that span blocks
    assert scan_outcome(scan_events(_blocks(path, block_size))) == expected


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python converts integers of any length")
def test_trace_rejects_numbers_int_cannot_convert(tmp_path):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(TraceError) as exc:
        analyze_trace(trace_source(tmp_path, f"a 1 8\na 2 {digits}\n"), [8], ts=8)
    assert exc.value.line == 2


def test_trace_rejects_non_ascii_text(tmp_path):
    with pytest.raises(TraceError) as exc:
        analyze_trace(trace_source(tmp_path, "a 1 8\n# caf\u00e9\n"), [8], ts=8)
    assert exc.value.line == 2
    assert "non-ASCII" in str(exc.value)


def test_load_trace_is_a_source_not_an_iterator(tmp_path):
    source = trace_source(tmp_path, GOOD_TRACE)
    with pytest.raises(TypeError):
        iter(source)
    assert analyze_trace(source, [16], ts=8).base_peak_bytes == 136


@pytest.mark.parametrize("path", [True, 1, 0], ids=repr)
def test_load_trace_refuses_a_file_descriptor(path):
    """load_trace(True) used to open fd 1, and dropping the source closed
    stdout; load_trace(0) read stdin."""
    with pytest.raises(UsageError, match=f"^path must be a str, bytes or os.PathLike,"
                                         f" got {path!r}$"):
        load_trace(path)
    gc.collect()
    os.fstat(1)  # stdout is still open


def end_source(source, end):
    """End a ``load_trace`` source: ``counted`` to its end, ``stopped``
    at its bad line, ``closed`` unread, or ``dropped`` unread."""
    if end == "counted":
        assert analyze_trace(source, [16], ts=8).base_peak_bytes == 136
    elif end == "stopped":
        with pytest.raises(TraceError):
            analyze_trace(source, [16], ts=8)
    elif end == "closed":
        source.close()


_END_TRACES = {"counted": GOOD_TRACE, "stopped": "a 1 8\nf 2\n" + GOOD_TRACE,
               "closed": GOOD_TRACE, "dropped": GOOD_TRACE}


@pytest.mark.parametrize("end", ["counted", "stopped", "closed"])
def test_a_spent_or_closed_load_trace_is_a_usage_error(tmp_path, end):
    # each once read as a peak of 0 bytes
    source = trace_source(tmp_path, _END_TRACES[end])
    end_source(source, end)
    source.close()  # closing an ended source does nothing
    with pytest.raises(UsageError, match="already analyzed or closed"):
        analyze_trace(source, [16], ts=8)


@pytest.mark.parametrize("end", list(_END_TRACES))
def test_load_trace_leaves_no_file_open(tmp_path, monkeypatch, end):
    # each way a source ends closes its file at once, and leaves no
    # unclosed file for the garbage collector to warn about
    opened, unraisable = [], []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tagsim.traces, "open", recording_open, raising=False)
    gc.collect()  # finalise earlier tests' garbage before the hook listens
    hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            end_source(trace_source(tmp_path, _END_TRACES[end]), end)
            assert [fh.closed for fh in opened] == [True]
            opened.clear()
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert unraisable == []


def reference_overhead(text, alignments, ts):
    """``overhead``'s (exit code, stdout, stderr) from the reference
    parser and a plain per-event sum of rounded-up sizes."""
    try:
        events = list(reference_parse_trace(text))
    except TraceError as exc:
        return 2, "", f"tagsim: error: {exc}\n"
    tracked = sorted(set(alignments) | {8})
    sizes, current, peak = {}, dict.fromkeys(tracked, 0), dict.fromkeys(tracked, 0)
    for event in events:
        if isinstance(event, Alloc):
            sizes[event.id] = event.size
            sign, size = 1, event.size
        else:
            sign, size = -1, sizes.pop(event.id)
        for a in tracked:
            current[a] += sign * max(1, -(-size // a)) * a
            peak[a] = max(peak[a], current[a])
    base = peak[8]
    rows = [{"alignment": a, "peak_bytes": peak[a],
             "overhead_pct": (peak[a] - base) / base * 100.0 if base else 0.0,
             "tag_storage_bytes": peak[a] * ts / (8 * a)} for a in alignments]
    report = {"base_alignment": 8, "base_peak_bytes": base, "rows": rows}
    return 0, json.dumps(report, sort_keys=True) + "\n", ""


def run_overhead(path, alignments, ts):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["overhead", str(path), "--alignments", ",".join(map(str, alignments)),
                     "--ts", str(ts)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_trace_text,
       # with the 8-byte base the tracked gcd is 1, 2, 4 or 8
       alignments=st.lists(st.sampled_from((1, 6, 8, 12, 16, 20, 24, 64)), min_size=1,
                           unique=True),
       ts=st.integers(min_value=1, max_value=8),
       block_size=st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
def test_overhead_matches_reference_parse_and_sum(tmp_path, text, alignments, ts, block_size):
    path = tmp_path / "trace.txt"
    path.write_text(text, encoding="ascii", newline="")
    blocks = tagsim.traces._blocks
    if block_size is not None:
        # lines that span blocks
        blocks = functools.partial(blocks, size=block_size)
    expected = reference_overhead(text, alignments, ts)
    with mock.patch.object(tagsim.traces, "_blocks", blocks):
        assert run_overhead(path, alignments, ts) == expected
    if expected[0] == 0:
        # the events handed in
        report = analyze_trace(reference_parse_trace(text), alignments, ts=ts)
        assert json.dumps(report.to_json_dict(), sort_keys=True) + "\n" == expected[1]


def analysis_outcome(analyze):
    """The report of ``analyze()``, or its TraceError's line and message."""
    try:
        return analyze().to_json_dict()
    except TraceError as exc:
        return ("error", exc.line, str(exc))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(_trace_text, _newline_texts()),
       block_size=st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
def test_parser_fast_path_matches_the_line_loop(tmp_path, text, block_size):
    path = tmp_path / "trace.txt"
    path.write_text(text, encoding="ascii", newline="")
    blocks = tagsim.traces._blocks
    if block_size is not None:
        blocks = functools.partial(blocks, size=block_size)
    try:
        events = list(reference_parse_trace(text))
    except TraceError:
        events = None

    def outcomes():
        with mock.patch.object(tagsim.traces, "_blocks", blocks):
            found = [analysis_outcome(lambda: analyze_trace(load_trace(path), [8, 16, 64], ts=4))]
        if events is not None:
            found.append(analysis_outcome(lambda: analyze_trace(events, [8, 16, 64], ts=4)))
        return found

    fast = outcomes()
    # a pattern that matches no block sends every block through the line loop
    with mock.patch.object(tagsim.traces, "_EVENT_BLOCK", re.compile("(?!)")):
        assert outcomes() == fast


def test_a_churn_trace_takes_the_line_loop_only_for_its_first_block(tmp_path):
    # without the fast path every block would take the line loop, and
    # every other test would still pass
    path = tmp_path / "churn.txt"
    _write_churn_trace(path, 60_000, live_target=500)
    text = "# churn trace\n" + path.read_text()
    path.write_text(text)
    looped = []
    line_events = tagsim.traces._line_events

    def counting(chunk, *args):
        looped.append(chunk)
        return line_events(chunk, *args)

    with mock.patch.object(tagsim.traces, "_line_events", counting):
        assert run_overhead(path, [16, 64], 8) == reference_overhead(text, [16, 64], 8)
    assert len(looped) == 1
    assert text.startswith(looped[0]) and len(looped[0]) < len(text) // 8


def test_overhead_builds_no_event_objects(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(GOOD_TRACE + "a 9 5000\n")

    def no_event(*args, **kwargs):
        raise AssertionError("overhead built an event object")

    alignments = [1, 24, 64]
    expected = reference_overhead(GOOD_TRACE + "a 9 5000\n", alignments, 8)
    with mock.patch.object(tagsim.traces, "Alloc", no_event), \
            mock.patch.object(tagsim.traces, "Free", no_event):
        assert run_overhead(path, alignments, 8) == expected
    assert expected[0] == 0


def test_events_are_frozen_slotted_dataclasses():
    a = Alloc(1, 8)
    assert a == Alloc(1, 8) and hash(a) == hash(Alloc(1, 8))
    assert a != Alloc(1, 16) and Free(1) == Free(1)
    assert repr(a) == "Alloc(id=1, size=8)"
    assert repr(Free(4)) == "Free(id=4)"
    with pytest.raises(AttributeError):
        a.size = 16
    assert not hasattr(a, "__dict__")


# ----------------------------------------------------------------------
# overhead analysis


def test_single_allocation_overhead_example(tmp_path):
    report = analyze_trace(trace_source(tmp_path, "a 1 8\n"), [8, 16], ts=8)
    by_alignment = {row.alignment: row for row in report.rows}
    assert by_alignment[8].peak_bytes == 8
    assert by_alignment[8].overhead_pct == 0.0
    assert by_alignment[16].peak_bytes == 16
    assert by_alignment[16].overhead_pct == 100.0


def test_granule_multiples_cost_nothing(tmp_path):
    trace = "a 1 64\na 2 128\nf 1\na 3 192\n"
    report = analyze_trace(trace_source(tmp_path, trace), [8, 16, 32, 64], ts=8)
    assert all(row.overhead_pct == 0.0 for row in report.rows)


def test_peak_accounting_hand_computed(tmp_path):
    # live bytes at 8/32 alignment, event by event:
    #   a 1 40  -> 40 / 64
    #   a 2 10  -> 56 / 96   (peak)
    #   f 1     -> 16 / 32
    #   a 3 30  -> 48 / 64
    trace = "a 1 40\na 2 10\nf 1\na 3 30\n"
    report = analyze_trace(trace_source(tmp_path, trace), [32], ts=8)
    assert report.base_peak_bytes == 56
    row = report.rows[0]
    assert row.peak_bytes == 96
    assert row.overhead_pct == pytest.approx((96 - 56) / 56 * 100)


def test_zero_size_counts_one_unit(tmp_path):
    report = analyze_trace(trace_source(tmp_path, "a 1 0\n"), [64], ts=4)
    assert report.rows[0].peak_bytes == 64


def test_tag_storage_column(tmp_path):
    # ts bits per alignment-sized granule of the peak
    report = analyze_trace(trace_source(tmp_path, "a 1 256\n"), [16, 64], ts=8)
    by_alignment = {row.alignment: row for row in report.rows}
    assert by_alignment[16].tag_storage_bytes == 256 * 8 / (8 * 16)
    assert by_alignment[64].tag_storage_bytes == 256 * 8 / (8 * 64)
    # at tg=16, ts=8 that is 1/16th of the peak: 6.25%
    assert by_alignment[16].tag_storage_bytes / by_alignment[16].peak_bytes == 0.0625


def test_analyze_validates_inputs():
    events = [Alloc(1, 8)]
    with pytest.raises(UsageError):
        analyze_trace(events, [], ts=8)
    with pytest.raises(UsageError):
        analyze_trace(events, [0], ts=8)
    with pytest.raises(UsageError):
        analyze_trace(events, [8], ts=0)
    for alignment in (8.5, 16.0, "16", True):
        with pytest.raises(UsageError, match="alignment must be an int"):
            analyze_trace(events, [16, alignment], ts=8)
    for ts in (8.5, 4.0, "8"):
        with pytest.raises(UsageError, match="tag width must be an int"):
            analyze_trace(events, [8], ts=ts)


@pytest.mark.parametrize("events, line", [
    ([Free(4)], 1),
    ([Alloc(1, -100), Alloc(2, 200)], 1),  # a negative size, once charged as -96
    ([Alloc(1, 2.5)], 1),
    ([Alloc(1, "12")], 1),
    ([Alloc(-1, 8)], 1),
    ([Alloc(1, 8), object()], 2),
    ([Alloc(1, 8), Free(1), Free(1)], 3),
    ([Alloc(1, 8), Alloc(1, 8)], 2),
    ([Alloc(i, 8) for i in range(300)] + [Free(300)], 301),
])
def test_analyze_revalidates_event_stream(events, line):
    with pytest.raises(TraceError) as exc:
        analyze_trace(events, [8], ts=8)
    assert exc.value.line == line


def test_empty_trace_reports_zero():
    report = analyze_trace([], [16], ts=8)
    assert report.base_peak_bytes == 0
    assert report.rows[0].peak_bytes == 0
    assert report.rows[0].overhead_pct == 0.0


@pytest.mark.parametrize("step", [1, 8])
def test_analyze_memory_does_not_grow_with_distinct_sizes(monkeypatch, step):
    # one allocation live at a time, every size new: only the bounded
    # per-size cache could grow.  At step 1 eight sizes share their
    # charges, at step 8 every size brings a new pair of charges.
    monkeypatch.setattr("tagsim.traces._CACHED_SIZES", 64)

    def events(n):
        for i in range(n):
            yield Alloc(i, 1000 + step * i)
            yield Free(i)

    peaks = []
    for n in (5_000, 20_000):
        tracemalloc.start()
        try:
            report = analyze_trace(events(n), [8, 24, 64], ts=8)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        largest = 1000 + step * (n - 1)
        assert [row.peak_bytes for row in report.rows] == [
            -(-largest // a) * a for a in (8, 24, 64)]
    assert peaks[1] < 1.5 * peaks[0], peaks


@pytest.mark.parametrize("step, limit", [(1, 300), (8, 650)])
def test_analyze_memory_per_cached_size(tmp_path, step, limit):
    # 20,000 sizes, each allocated then freed, all of them cached.  At
    # step 1 every eight sizes share their charges at 8/16/32/64 bytes,
    # so they share one pair; at step 8 each size has new charges.
    n = 20_000
    source = trace_source(tmp_path, "".join(f"a {i} {step * i}\nf {i}\n" for i in range(n)))
    tracemalloc.start()
    try:
        report = analyze_trace(source, [8, 16, 32, 64], ts=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.base_peak_bytes == -(-step * (n - 1) // 8) * 8
    assert peak < limit * n, f"{peak / n:.0f} bytes a size"


def test_sizes_of_one_granule_count_share_one_cache_entry(tmp_path, monkeypatch):
    # at 8/16/32/64 bytes the granule is 8 bytes: sizes 1001-1008 are
    # 126 granules, 1000 is 125 and 1009 is 127
    caches = []

    class Recorded(tagsim.traces._Charges):
        def __init__(self, alignments):
            super().__init__(alignments)
            caches.append(self)

    monkeypatch.setattr(tagsim.traces, "_Charges", Recorded)

    def cached(sizes):
        text = "".join(f"a {i} {size}\n" for i, size in enumerate(sizes))
        analyze_trace(trace_source(tmp_path, text), [8, 16, 32, 64], ts=8)
        return sorted(caches.pop())

    assert cached(range(1001, 1009)) == [126]
    assert cached(range(1000, 1010)) == [125, 126, 127]


@pytest.mark.parametrize("alignments", [(8, 16, 32, 64), (6, 20), (12, 24), (1, 64), (40,)])
def test_each_size_is_charged_on_both_sides_of_a_granule_boundary(alignments):
    # granules of 8, 2, 4, 1 and 8 bytes: every size up to 513, so both
    # sides of each of the first 64 boundaries of every granule
    for size in range(512 + 2):
        report = analyze_trace([Alloc(1, size)], alignments, ts=8)
        assert report.base_peak_bytes == max(1, -(-size // 8)) * 8
        assert [row.peak_bytes for row in report.rows] == [
            max(1, -(-size // a)) * a for a in alignments], size


def test_charges_cleared_under_live_allocations(tmp_path, monkeypatch):
    # a cache of two sizes is cleared every few events, so most frees
    # take the negated charges of a pair made before the last clear
    monkeypatch.setattr("tagsim.traces._CACHED_SIZES", 2)
    path = tmp_path / "churn.txt"
    _write_churn_trace(path, 5_000, live_target=200)
    expected = reference_overhead(path.read_text(), [16, 64], 8)
    assert expected[0] == 0
    assert run_overhead(path, [16, 64], 8) == expected


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=30),
    free_mask=st.lists(st.booleans(), min_size=1, max_size=30),
)
def test_overhead_monotone_in_alignment(tmp_path, sizes, free_mask):
    lines = []
    live = []
    for i, size in enumerate(sizes):
        lines.append(f"a {i} {size}")
        live.append(i)
        if i < len(free_mask) and free_mask[i] and live:
            lines.append(f"f {live.pop(0)}")
    report = analyze_trace(trace_source(tmp_path, "\n".join(lines) + "\n"), [8, 16, 32, 64],
                           ts=8)
    rows = sorted(report.rows, key=lambda r: r.alignment)
    for narrow, wide in zip(rows, rows[1:]):
        assert narrow.peak_bytes <= wide.peak_bytes
        assert narrow.overhead_pct <= wide.overhead_pct
