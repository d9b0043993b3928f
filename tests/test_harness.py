"""Bug-scenario corpus, Monte-Carlo estimation, theoretical rates, and
the allocation-trace overhead analyzer."""

import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tagsim import (
    MtConfig,
    PolicyKind,
    Scenario,
    ScenarioError,
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
from tagsim.faults import AccessKind
from tagsim.rng import SplitMix64
from tagsim.scenarios import (INTRA_FULL_GRANULES, LINEAR_MAX_GRANULES, STACK_LOCAL_SIZE,
                              scenario_runner)
from tagsim.tagspace import pack, unpack
from tagsim.traces import Alloc, Free, _blocks, _parse, analyze_trace, load_trace, parse_trace

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


def test_uninitialized_read_refused_range_is_a_setup_fault(monkeypatch):
    sim = Simulator(CFG16, seed=0)
    addr, tag = unpack(sim.malloc(16), CFG16)
    refused = sim.check_user_range(pack(addr, tag ^ 1, CFG16), 1)
    assert refused is not None
    monkeypatch.setattr(Simulator, "check_user_range", lambda self, word, length: refused)
    with pytest.raises(ScenarioError, match="scenario setup faulted"):
        run_scenario(Scenario(kind=ScenarioKind.UNINITIALIZED_READ), CFG16)


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
    """The simulator's RNG, except that each tag choice (malloc, the
    retag on free, frame and scope exit) comes from a script, so a bug
    site can be built with any memory tag its policy allows."""

    def __init__(self, tags):
        super().__init__(0)
        self.tags = list(tags)

    def choice(self, seq):
        tag = self.tags.pop(0)
        assert tag in seq, (tag, seq)
        return tag


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
            for retag in usable:
                if retag != tag:  # frame and scope exit exclude the slot's tag
                    sim = _scripted(cfg, policy, [retag], seed=seed)
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
        # the engine's per-granule check under load, store and
        # check_user_range, without building a fault report per refusal
        first_mismatch = sim.engine._first_mismatch
        caught = sum(first_mismatch(addr, 1, ptag) is not None
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


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_theory_equals_full_product_through_engine(kind):
    """theoretical_detection groups probe tags into relation classes and
    shares verdicts between equal granule states; the reference here
    enumerates every (pointer tag, memory tag) pair and every geometry
    at ts=4, tg=16 with no grouping."""
    for mode, policy, quarantine in _CROSS_CHECK:
        cfg = MtConfig(tg=16, ts=4, quarantine_capacity=quarantine, **mode)
        expected = _full_product(kind, cfg, policy)
        assert theoretical_detection(kind, cfg, policy=policy) == expected, (mode, policy)


# ----------------------------------------------------------------------
# Monte-Carlo estimation


def test_estimate_rejects_bad_trials():
    with pytest.raises(UsageError):
        estimate_detection(ScenarioKind.NON_LINEAR_OVERFLOW, CFG64, trials=0)


def test_estimate_matches_manual_replay():
    """estimate_detection is exactly per-trial run_scenario with seeds
    seed+0 .. seed+trials-1."""
    trials, seed = 60, 17
    report = estimate_detection(ScenarioKind.NON_LINEAR_OVERFLOW, CFG64,
                                trials=trials, seed=seed)
    manual = sum(
        run_scenario(Scenario(kind=ScenarioKind.NON_LINEAR_OVERFLOW, seed=seed + i), CFG64).detected
        for i in range(trials)
    )
    assert report.detections == manual
    assert report.rate == manual / trials


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


def test_parse_trace_shapes():
    events = parse_trace(GOOD_TRACE)
    assert events == [
        Alloc(id=1, size=100, line=2),
        Alloc(id=2, size=32, line=4),
        Free(id=1, line=5),
        Alloc(id=3, size=0, line=6),
        Free(id=3, line=7),
        Free(id=2, line=8),
    ]


def test_parse_trace_allows_id_reuse_after_free():
    events = parse_trace("a 1 8\nf 1\na 1 16\n")
    assert [e.size for e in events if isinstance(e, Alloc)] == [8, 16]


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
def test_parse_trace_names_the_offending_line(text, bad_line):
    with pytest.raises(TraceError) as exc:
        parse_trace(text)
    assert exc.value.line == bad_line
    assert f"line {bad_line}" in str(exc.value)


_REF_ALLOC_RE = re.compile(r"^a (\d+) (\d+)$")
_REF_FREE_RE = re.compile(r"^f (\d+)$")


def reference_parse_trace(text):
    """The regex parser the streaming one replaced, kept as the reference."""
    events = []
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
            events.append(Alloc(id=aid, size=size, line=line_no))
            continue
        m = _REF_FREE_RE.match(line)
        if m:
            aid = int(m.group(1))
            if aid not in live:
                raise TraceError(f"free of unknown id {aid}", line=line_no)
            live.remove(aid)
            events.append(Free(id=aid, line=line_no))
            continue
        raise TraceError(f"unrecognized trace line {line!r}", line=line_no)
    return events


def parse_outcome(parse, *args):
    """Events with their lines, or the TraceError's line and message."""
    try:
        return [(type(e).__name__, e.id, getattr(e, "size", None), e.line)
                for e in parse(*args)]
    except TraceError as exc:
        return ("error", exc.line, str(exc))


_TRACE_CHARS = "af#0123456789 \t-+_\r\n\x0b\x0c\x1c\x1d\x1e"
_LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
_ODD_LINES = ["", " ", "#", "# a 1 8", "\t# x", "a 1", "a 01 8", "f +1", "a -1 8", "a 1 8 ",
              " f 1", "a  1 8", "a\t1 8", "f 1_0", "f 9", "x 2 3"]


@st.composite
def _trace_texts(draw):
    """Mostly valid traces, so that parsing gets past the first lines,
    with odd lines, double allocations and raw characters mixed in, and
    every line break between lines."""
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
    return "".join(line + draw(st.sampled_from(_LINE_BREAKS)) for line in lines)


_trace_text = st.one_of(st.text(alphabet=_TRACE_CHARS, max_size=40), _trace_texts())


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_trace_text, block_size=st.integers(min_value=1, max_value=8))
def test_parser_matches_regex_reference(tmp_path, text, block_size):
    expected = parse_outcome(reference_parse_trace, text)
    assert parse_outcome(parse_trace, text) == expected
    path = tmp_path / "trace.txt"
    path.write_text(text, encoding="ascii", newline="")
    assert parse_outcome(lambda: list(load_trace(path))) == expected
    # blocks cut after their last newline: lines that span blocks
    assert parse_outcome(lambda: list(_parse(_blocks(path, block_size)))) == expected


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python converts integers of any length")
def test_parse_trace_rejects_numbers_int_cannot_convert():
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(TraceError) as exc:
        parse_trace(f"a 1 8\na 2 {digits}\n")
    assert exc.value.line == 2


def test_parse_trace_rejects_non_ascii_text():
    with pytest.raises(TraceError) as exc:
        parse_trace("a 1 8\n# caf\u00e9\n")
    assert exc.value.line == 2
    assert "non-ASCII" in str(exc.value)


def test_load_trace_is_a_one_pass_iterator(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(GOOD_TRACE)
    events = load_trace(path)
    assert iter(events) is events
    assert list(events) == parse_trace(GOOD_TRACE)
    assert list(events) == []


def test_load_trace_reports_bad_lines_while_iterating(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("a 1 8\nf 2\n")
    events = load_trace(path)
    assert next(events) == Alloc(id=1, size=8, line=1)
    with pytest.raises(TraceError) as exc:
        next(events)
    assert exc.value.line == 2


def test_events_are_frozen_slotted_dataclasses():
    a = Alloc(1, 8, line=3)
    assert a == Alloc(1, 8, line=9) and hash(a) == hash(Alloc(1, 8))
    assert a != Alloc(1, 16) and Free(1, line=2) == Free(1)
    assert repr(a) == "Alloc(id=1, size=8, line=3)"
    assert repr(Free(4, 5)) == "Free(id=4, line=5)"
    with pytest.raises(AttributeError):
        a.size = 16
    assert not hasattr(a, "__dict__")


# ----------------------------------------------------------------------
# overhead analysis


def test_single_allocation_overhead_example():
    report = analyze_trace(parse_trace("a 1 8\n"), [8, 16], ts=8)
    by_alignment = {row.alignment: row for row in report.rows}
    assert by_alignment[8].peak_bytes == 8
    assert by_alignment[8].overhead_pct == 0.0
    assert by_alignment[16].peak_bytes == 16
    assert by_alignment[16].overhead_pct == 100.0


def test_granule_multiples_cost_nothing():
    trace = "a 1 64\na 2 128\nf 1\na 3 192\n"
    report = analyze_trace(parse_trace(trace), [8, 16, 32, 64], ts=8)
    assert all(row.overhead_pct == 0.0 for row in report.rows)


def test_peak_accounting_hand_computed():
    # live bytes at 8/32 alignment, event by event:
    #   a 1 40  -> 40 / 64
    #   a 2 10  -> 56 / 96   (peak)
    #   f 1     -> 16 / 32
    #   a 3 30  -> 48 / 64
    trace = "a 1 40\na 2 10\nf 1\na 3 30\n"
    report = analyze_trace(parse_trace(trace), [32], ts=8)
    assert report.base_peak_bytes == 56
    row = report.rows[0]
    assert row.peak_bytes == 96
    assert row.overhead_pct == pytest.approx((96 - 56) / 56 * 100)


def test_zero_size_counts_one_unit():
    report = analyze_trace(parse_trace("a 1 0\n"), [64], ts=4)
    assert report.rows[0].peak_bytes == 64


def test_tag_storage_column():
    # ts bits per alignment-sized granule of the peak
    report = analyze_trace(parse_trace("a 1 256\n"), [16, 64], ts=8)
    by_alignment = {row.alignment: row for row in report.rows}
    assert by_alignment[16].tag_storage_bytes == 256 * 8 / (8 * 16)
    assert by_alignment[64].tag_storage_bytes == 256 * 8 / (8 * 64)
    # at tg=16, ts=8 that is 1/16th of the peak: 6.25%
    assert by_alignment[16].tag_storage_bytes / by_alignment[16].peak_bytes == 0.0625


def test_analyze_validates_inputs():
    events = parse_trace("a 1 8\n")
    with pytest.raises(UsageError):
        analyze_trace(events, [], ts=8)
    with pytest.raises(UsageError):
        analyze_trace(events, [0], ts=8)
    with pytest.raises(UsageError):
        analyze_trace(events, [8], ts=0)


def test_analyze_revalidates_event_stream():
    with pytest.raises(TraceError) as exc:
        analyze_trace([Free(id=4, line=7)], [8], ts=8)
    assert exc.value.line == 7


def test_empty_trace_reports_zero():
    report = analyze_trace([], [16], ts=8)
    assert report.base_peak_bytes == 0
    assert report.rows[0].peak_bytes == 0
    assert report.rows[0].overhead_pct == 0.0


def test_analyze_memory_does_not_grow_with_distinct_sizes(monkeypatch):
    # one allocation live at a time, every size new: only the bounded
    # per-size cache could grow
    monkeypatch.setattr("tagsim.traces._CACHED_SIZES", 64)

    def events(n):
        for i in range(n):
            yield Alloc(i, 1000 + i)
            yield Free(i)

    peaks = []
    for n in (5_000, 20_000):
        tracemalloc.start()
        try:
            report = analyze_trace(events(n), [8, 24, 64], ts=8)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        largest = 1000 + n - 1
        assert [row.peak_bytes for row in report.rows] == [
            -(-largest // a) * a for a in (8, 24, 64)]
    assert peaks[1] < 1.5 * peaks[0], peaks


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=30),
    free_mask=st.lists(st.booleans(), min_size=1, max_size=30),
)
def test_overhead_monotone_in_alignment(sizes, free_mask):
    lines = []
    live = []
    for i, size in enumerate(sizes):
        lines.append(f"a {i} {size}")
        live.append(i)
        if i < len(free_mask) and free_mask[i] and live:
            lines.append(f"f {live.pop(0)}")
    events = parse_trace("\n".join(lines) + "\n")
    report = analyze_trace(events, [8, 16, 32, 64], ts=8)
    rows = sorted(report.rows, key=lambda r: r.alignment)
    for narrow, wide in zip(rows, rows[1:]):
        assert narrow.peak_bytes <= wide.peak_bytes
        assert narrow.overhead_pct <= wide.overhead_pct
