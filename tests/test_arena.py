"""Heap allocator behaviour: tagging policies, retag-on-free, quarantine,
sampling, and accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from tagsim import (
    AllocationError,
    DoubleFreeError,
    FaultError,
    InvalidFreeError,
    MtConfig,
    Simulator,
    TagPolicy,
    UsageError,
)
from tagsim.arena import AllocatorStats, ArenaAllocator, ChunkState, PolicyKind, placement
from tagsim.faults import AccessKind, FaultKind, FaultReport
from tagsim.memory import SENTINEL, SparseMemory
from tagsim.precision import read_partial_meta
from tagsim.rng import SplitMix64
from tagsim.tagspace import ShadowStore, unpack

CFG16 = MtConfig(tg=16, ts=8)
CFG64 = MtConfig(tg=64, ts=4)


def chunk_of(sim, word):
    addr, _ = unpack(word, sim.cfg)
    return sim.heap.find_owner(addr)


# ----------------------------------------------------------------------
# basic allocation shape


def test_malloc_rounds_to_granule(sim16):
    p = sim16.malloc(10)
    chunk = chunk_of(sim16, p)
    assert chunk.requested == 10
    assert chunk.aligned == 16
    assert (chunk.base + chunk.user_off) % 16 == 0


def test_malloc_zero_serves_one_byte(sim16):
    p = sim16.malloc(0)
    chunk = chunk_of(sim16, p)
    assert chunk.aligned == 16
    sim16.store(p, b"\x42")
    assert sim16.load(p, 1) == b"\x42"


def test_malloc_negative_rejected(sim16):
    with pytest.raises(UsageError):
        sim16.malloc(-1)


@pytest.mark.parametrize("size", [1, 15, 16, 17, 31, 32, 100, 255])
def test_alignment_arithmetic(size):
    sim = Simulator(CFG64, seed=3)
    p = sim.malloc(size)
    chunk = chunk_of(sim, p)
    assert chunk.aligned == -(-size // 64) * 64
    assert chunk.base % 64 == 0


def test_pointer_tag_matches_chunk_tag(sim16):
    p = sim16.malloc(24)
    chunk = chunk_of(sim16, p)
    _, ptag = unpack(p, sim16.cfg)
    assert ptag == chunk.tag
    assert chunk.tag in sim16.cfg.usable_tags


def test_distinct_allocations_get_own_granules(sim16):
    a = sim16.malloc(16)
    b = sim16.malloc(16)
    ca, cb = chunk_of(sim16, a), chunk_of(sim16, b)
    assert ca.base + ca.aligned <= cb.base or cb.base + cb.aligned <= ca.base


def test_arena_capacity_exhaustion():
    heap = ArenaAllocator(SparseMemory(), ShadowStore(CFG16), CFG16, SplitMix64(0),
                          capacity=256)
    heap.malloc(200)
    with pytest.raises(AllocationError):
        heap.malloc(200)


# ----------------------------------------------------------------------
# fill semantics


def test_sentinel_fill_by_default(sim16):
    p = sim16.malloc(16)
    assert sim16.load(p, 8) == b"\xaa" * 8


def test_zero_on_tag_zeroes_tagged_memory():
    sim = Simulator(MtConfig(tg=16, ts=8, zero_on_tag=True), seed=5)
    p = sim.malloc(16)
    assert sim.load(p, 8) == b"\x00" * 8


def test_zero_on_tag_leaves_untagged_sentinel():
    # sampled-out allocations carry no tag, so the zeroing that rides on
    # the tagging step never happens for them
    cfg = MtConfig(tg=16, ts=8, zero_on_tag=True)
    sim = Simulator(cfg, seed=5, policy=TagPolicy.sampled(0.0))
    p = sim.malloc(16)
    assert sim.load(p, 8) == b"\xaa" * 8


# ----------------------------------------------------------------------
# free, retag, and misuse faults


def test_free_retags_with_fresh_tag():
    for seed in range(64):
        sim = Simulator(CFG64, seed=seed)
        p = sim.malloc(64)
        chunk = chunk_of(sim, p)
        old = chunk.tag
        sim.free(p)
        retag = sim.shadow.get(chunk.base)
        assert retag != old
        assert retag in sim.cfg.usable_tags


def test_dangling_access_faults_after_free(sim16):
    p = sim16.malloc(32)
    sim16.free(p)
    with pytest.raises(FaultError) as exc:
        sim16.load(p, 1)
    report = exc.value.report
    assert report.kind.value == "tag-mismatch"
    assert report.chunk_state == "freed"


def test_double_free_faults(sim16):
    p = sim16.malloc(16)
    sim16.free(p)
    with pytest.raises(DoubleFreeError) as exc:
        sim16.free(p)
    assert exc.value.report.kind.value == "double-free"


def test_free_with_wrong_tag_faults(sim16):
    p = sim16.malloc(16)
    chunk = chunk_of(sim16, p)
    bumped = p ^ (1 << 56)  # flip a tag bit, keep the address
    with pytest.raises(InvalidFreeError) as exc:
        sim16.free(bumped)
    assert exc.value.report == FaultReport(
        kind=FaultKind.INVALID_FREE, access=AccessKind.FREE, word=bumped,
        ptr_tag=chunk.tag ^ 1, mem_tag=chunk.tag, granule_base=chunk.base,
        chunk_id=1, chunk_state="live", deferred=False, partial=False)
    # the chunk is still live and usable afterwards
    sim16.store(p, b"\x01")
    sim16.free(p)


def test_free_of_unknown_address_faults(sim16):
    for addr in (0x5000, 0x5009):  # the report names the granule's base
        with pytest.raises(InvalidFreeError) as exc:
            sim16.free(addr)
        assert exc.value.report == FaultReport(
            kind=FaultKind.INVALID_FREE, access=AccessKind.FREE, word=addr,
            ptr_tag=0, mem_tag=0, granule_base=0x5000,
            chunk_id=None, chunk_state=None, deferred=False, partial=False)


def test_free_of_interior_pointer_faults(sim16):
    p = sim16.malloc(64)
    from tagsim.tagspace import offset_ptr

    with pytest.raises(InvalidFreeError):
        sim16.free(offset_ptr(p, 16, sim16.cfg))


# ----------------------------------------------------------------------
# reuse and placement


def test_first_fit_reuses_freed_space(sim16):
    p = sim16.malloc(48)
    addr, _ = unpack(p, sim16.cfg)
    sim16.free(p)
    q = sim16.malloc(48)
    qaddr, _ = unpack(q, sim16.cfg)
    assert qaddr == addr


def test_reuse_changes_tag_often():
    # across seeds the recycled chunk's tag must differ from the stale
    # pointer's tag except for the expected 1-in-15 collision
    collisions = 0
    for seed in range(300):
        sim = Simulator(CFG64, seed=seed)
        p = sim.malloc(64)
        sim.free(p)
        q = sim.malloc(64)
        if unpack(q, sim.cfg)[1] == unpack(p, sim.cfg)[1]:
            collisions += 1
    assert 0 < collisions < 60  # ~1/15 of 300, generous bounds


def test_freed_chunk_recycled_drops_provenance(sim16):
    p = sim16.malloc(16)
    addr, _ = unpack(p, sim16.cfg)
    sim16.free(p)
    assert sim16.heap.find_owner(addr).state is ChunkState.FREED
    q = sim16.malloc(16)
    owner = chunk_of(sim16, q)
    assert owner.state is ChunkState.LIVE
    assert sim16.heap.find_owner(addr) is owner


# ----------------------------------------------------------------------
# adjacent-distinct policy


def test_adjacent_distinct_neighbours_differ():
    sim = Simulator(CFG64, seed=11, policy=TagPolicy.adjacent_distinct())
    words = [sim.malloc(64) for _ in range(40)]
    chunks = sorted((chunk_of(sim, w) for w in words), key=lambda c: c.base)
    for left, right in zip(chunks, chunks[1:]):
        if left.base + left.aligned == right.base:
            assert left.tag != right.tag


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    ops=st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=24),
)
def test_adjacent_distinct_survives_interleaving(seed, ops):
    """After any malloc/free interleaving, address-adjacent live chunks
    never share a tag."""
    sim = Simulator(CFG64, seed=seed, policy=TagPolicy.adjacent_distinct())
    live = []
    for op in ops:
        if op == 0 and live:
            sim.free(live.pop(len(live) // 2))
            continue
        size = (op + 1) * 40
        live.append(sim.malloc(size))
    chunks = sorted(sim.heap.live_chunks(), key=lambda c: c.base)
    for left, right in zip(chunks, chunks[1:]):
        if left.base + left.aligned == right.base:
            assert left.tag != right.tag


# ----------------------------------------------------------------------
# quarantine


def quarantined_cfg(capacity):
    return MtConfig(tg=16, ts=8, quarantine_capacity=capacity)


def test_quarantine_defers_reuse():
    sim = Simulator(quarantined_cfg(1024), seed=2)
    p = sim.malloc(64)
    addr, _ = unpack(p, sim.cfg)
    sim.free(p)
    chunk = sim.heap.find_owner(addr)
    assert chunk.state is ChunkState.QUARANTINED
    q = sim.malloc(64)
    assert unpack(q, sim.cfg)[0] != addr


def test_quarantined_dangling_access_always_faults():
    for seed in range(50):
        sim = Simulator(quarantined_cfg(4096), seed=seed)
        p = sim.malloc(64)
        sim.free(p)
        with pytest.raises(FaultError) as exc:
            sim.load(p, 1)
        assert exc.value.report.chunk_state == "quarantined"


def test_quarantine_fifo_eviction_under_pressure():
    # capacity 128 holds two 64-byte chunks; the third free evicts the
    # oldest one, which then becomes placeable again
    sim = Simulator(quarantined_cfg(128), seed=4)
    words = [sim.malloc(64) for _ in range(3)]
    addrs = [unpack(w, sim.cfg)[0] for w in words]
    for w in words:
        sim.free(w)
    states = [sim.heap.find_owner(a).state for a in addrs]
    assert states[0] is ChunkState.FREED  # evicted first-in
    assert states[1] is ChunkState.QUARANTINED
    assert states[2] is ChunkState.QUARANTINED
    st = sim.heap.stats()
    assert st.quarantine_chunks == 2
    assert st.quarantine_bytes == 128


def test_zero_quarantine_recycles_immediately():
    sim = Simulator(CFG16, seed=0)
    p = sim.malloc(16)
    addr = unpack(p, sim.cfg)[0]
    sim.free(p)
    q = sim.malloc(16)
    assert unpack(q, sim.cfg)[0] == addr


# ----------------------------------------------------------------------
# per-allocation sampling


def test_sampling_rate_zero_tags_nothing():
    sim = Simulator(CFG16, seed=7, policy=TagPolicy.sampled(0.0))
    words = [sim.malloc(16) for _ in range(20)]
    assert all(unpack(w, sim.cfg)[1] == 0 for w in words)
    # fresh untagged memory puts nothing in the tag table
    assert sim.shadow.writes == 0
    # and the memory is still usable through the untagged pointers
    sim.store(words[0], b"\x11")
    assert sim.load(words[0], 1) == b"\x11"


def test_sampling_rate_one_tags_everything():
    sim = Simulator(CFG16, seed=7, policy=TagPolicy.sampled(1.0))
    words = [sim.malloc(16) for _ in range(20)]
    assert all(unpack(w, sim.cfg)[1] != 0 for w in words)


def test_sampling_proportion_tracks_rate():
    sim = Simulator(CFG16, seed=21, policy=TagPolicy.sampled(0.3))
    n = 2000
    tagged = sum(1 for _ in range(n) if unpack(sim.malloc(16), sim.cfg)[1] != 0)
    assert 0.25 < tagged / n < 0.35


def test_untagged_chunk_free_skips_retag():
    sim = Simulator(CFG16, seed=3, policy=TagPolicy.sampled(0.0))
    p = sim.malloc(16)
    sim.free(p)
    chunk = chunk_of(sim, p)
    assert sim.shadow.get(chunk.base) == 0
    # the stale pointer still reads: that's the accepted sampling blind
    # spot, not a bug in the simulator
    sim.load(p, 1)


def test_untagged_reuse_clears_stale_tags():
    # at this seed the first chunk is sampled in and its reuse sampled out
    sim = Simulator(CFG16, seed=7, policy=TagPolicy.sampled(0.5))
    p = sim.malloc(16)
    addr, tag = unpack(p, sim.cfg)
    assert tag != 0
    sim.free(p)  # retags the granule
    assert sim.shadow.get(addr) != 0
    writes = sim.shadow.writes
    q = sim.malloc(16)
    assert unpack(q, sim.cfg) == (addr, 0)
    assert sim.shadow.get(addr) == 0
    assert sim.shadow.writes == writes + 1  # one write per granule cleared
    sim.store(q, b"\x22")  # reachable through the untagged pointer


def test_unknown_policy_kind_is_refused_at_construction():
    with pytest.raises(UsageError, match="unknown tag policy 'bogus'"):
        TagPolicy("bogus")


@pytest.mark.parametrize("kind", [PolicyKind.RANDOM, PolicyKind.ADJACENT_DISTINCT],
                         ids=lambda k: k.value)
def test_a_sampling_rate_needs_the_sampled_policy(kind):
    """Only Sampled reads its rate, so any other kind refuses one it
    would ignore (and a report would print next to the policy)."""
    for rate in (0.0, 0.3):
        with pytest.raises(UsageError, match=rf"^sampling rate {rate} requires the sampled"
                                             rf" policy, not {kind.value}$"):
            TagPolicy(kind, rate)
    assert TagPolicy(kind, 1.0) == TagPolicy(kind)
    assert TagPolicy(PolicyKind.SAMPLED, 0.3).rate == 0.3


# ----------------------------------------------------------------------
# right-aligned placement


def test_right_align_pushes_user_data_to_granule_end():
    sim = Simulator(MtConfig(tg=16, ts=8, right_align=True), seed=8)
    p = sim.malloc(10)
    chunk = chunk_of(sim, p)
    assert chunk.user_off == 6
    assert unpack(p, sim.cfg)[0] == chunk.base + 6
    sim.store(p, b"\x01")
    assert sim.load(p, 1) == b"\x01"
    sim.free(p)  # free accepts the pointer malloc returned


def test_right_align_keeps_multiples_flush():
    sim = Simulator(MtConfig(tg=16, ts=8, right_align=True), seed=8)
    p = sim.malloc(32)
    assert chunk_of(sim, p).user_off == 0


def test_right_align_makes_overflow_cross_granules():
    sim = Simulator(MtConfig(tg=16, ts=8, right_align=True), seed=8)
    a = sim.malloc(10)
    b = sim.malloc(10)
    ca, cb = chunk_of(sim, a), chunk_of(sim, b)
    if ca.base + ca.aligned != cb.base or ca.tag == cb.tag:
        pytest.skip("layout did not put distinct-tagged chunks back to back")
    from tagsim.tagspace import offset_ptr

    with pytest.raises(FaultError):
        sim.store(offset_ptr(a, 10, sim.cfg), b"\x00")


# ----------------------------------------------------------------------
# one layout: the heap and the stack as placement says


@st.composite
def layouts(draw):
    tg = draw(st.sampled_from((16, 32, 64)))
    mode = draw(st.sampled_from(("plain", "precision_ext", "right_align")))
    cfg = MtConfig(tg=tg, ts=draw(st.sampled_from((4, 8))), zero_on_tag=draw(st.booleans()),
                   precision_ext=mode == "precision_ext", right_align=mode == "right_align")
    policy = draw(st.sampled_from((TagPolicy.random(), TagPolicy.adjacent_distinct(),
                                   TagPolicy.sampled(0.5))))
    sizes = draw(st.lists(st.integers(0, 4 * tg), min_size=1, max_size=4))
    return cfg, policy, sizes, draw(st.booleans()), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(layout=layouts())
def test_heap_and_stack_lay_out_as_placement_says(layout):
    """What the scenario runners rely on without checking it: a chunk
    has placement's span and offset, its served bytes pass the range
    check and hold the tag fill (the sentinel when sampled out), with
    precision_ext its last granule is PARTIAL with (remainder, tag)
    exactly when the remainder fits, and stack slots span placement's
    granules, hold the tag fill and stay reachable when a sibling's
    scope ends.  With ``free_each`` every chunk is freed after its
    checks, so the next may reuse its memory."""
    cfg, policy, sizes, free_each, seed = layout
    sim = Simulator(cfg, seed, policy)
    for size in sizes:
        served, aligned, user_off = placement(size, cfg)
        word = sim.malloc(size)
        chunk = chunk_of(sim, word)
        assert (chunk.aligned, chunk.user_off) == (aligned, user_off)
        assert sim.check_user_range(word, served) is None
        fill = cfg.tag_fill if chunk.tag else SENTINEL
        assert sim.memory.read(chunk.base + chunk.user_off, served) == bytes((fill,)) * served
        if cfg.precision_ext:
            remainder, last = served % cfg.tg, chunk.base + chunk.aligned - cfg.tg
            partial = chunk.tag != 0 and 0 < remainder <= cfg.tg - 2
            assert (sim.shadow.get(last) == cfg.partial_tag) is partial
            if partial:
                assert tuple(read_partial_meta(sim.memory, cfg, last)) == (remainder, chunk.tag)
        if free_each:
            sim.free(word)
    frame = sim.stack.enter_frame(sizes)
    assert [slot.aligned for slot in frame.slots] == [placement(size, cfg)[1] for size in sizes]
    span = frame.aligned_size
    assert sim.memory.read(frame.base, span) == bytes((cfg.tag_fill,)) * span
    sim.stack.end_scope(frame, 0)
    for slot in frame.slots[1:]:
        assert sim.check_user_range(slot.ptr, slot.aligned) is None


# ----------------------------------------------------------------------
# accounting


def test_stats_track_live_and_peak():
    sim = Simulator(CFG16, seed=0)
    a = sim.malloc(10)
    b = sim.malloc(30)
    st = sim.heap.stats()
    assert st.allocations == 2
    assert st.live_requested_bytes == 40
    assert st.live_aligned_bytes == 16 + 32
    assert st.peak_aligned_bytes == 48
    sim.free(a)
    st = sim.heap.stats()
    assert st.frees == 1
    assert st.live_requested_bytes == 30
    assert st.live_aligned_bytes == 32
    assert st.peak_aligned_bytes == 48  # peak does not shrink
    sim.free(b)
    st = sim.heap.stats()
    assert st.live_requested_bytes == 0
    assert st.live_aligned_bytes == 0


def test_stats_count_tagged_allocations_under_sampling():
    sim = Simulator(CFG16, seed=13, policy=TagPolicy.sampled(0.5))
    for _ in range(200):
        sim.malloc(16)
    st = sim.heap.stats()
    assert st.allocations == 200
    assert 0 < st.tagged_allocations < 200


def test_stats_are_a_snapshot():
    sim = Simulator(CFG16, seed=0)
    before = sim.heap.stats()
    sim.malloc(16)
    assert before.allocations == 0


heap_programs = st.lists(st.one_of(st.tuples(st.just("malloc"), st.integers(0, 300)),
                                   st.tuples(st.just("free"), st.integers(0, 63))),
                         max_size=40)


@settings(max_examples=150, deadline=None)
@given(tg=st.sampled_from([16, 64]), ts=st.sampled_from([4, 8]),
       quarantine=st.sampled_from([0, 64, 4096]), precision_ext=st.booleans(),
       sampled=st.booleans(), seed=st.integers(0, 2**32), program=heap_programs)
def test_stats_equal_counts_recomputed_from_the_operations(tg, ts, quarantine, precision_ext,
                                                           sampled, seed, program):
    cfg = MtConfig(tg=tg, ts=ts, quarantine_capacity=quarantine, precision_ext=precision_ext)
    policy = TagPolicy.sampled(0.5) if sampled else TagPolicy.random()
    sim = Simulator(cfg, seed=seed, policy=policy)
    model = AllocatorStats()
    live = []  # (word, requested, aligned) in malloc order
    held = []  # aligned sizes in the quarantine, oldest first
    for op, arg in program:
        if op == "malloc":
            word = sim.malloc(arg)
            served = max(arg, 1)
            aligned = -(-served // tg) * tg
            tagged = unpack(word, cfg)[1] != 0
            live.append((word, arg, aligned))
            model.allocations += 1
            model.tagged_allocations += tagged
            model.partial_fallbacks += tagged and precision_ext and served % tg > tg - 2
            model.live_requested_bytes += arg
            model.live_aligned_bytes += aligned
        elif live:
            word, requested, aligned = live.pop(arg % len(live))
            sim.free(word)
            model.frees += 1
            model.live_requested_bytes -= requested
            model.live_aligned_bytes -= aligned
            if quarantine:
                held.append(aligned)
                while sum(held) > quarantine:
                    held.pop(0)
        model.peak_requested_bytes = max(model.peak_requested_bytes, model.live_requested_bytes)
        model.peak_aligned_bytes = max(model.peak_aligned_bytes, model.live_aligned_bytes)
        model.quarantine_bytes, model.quarantine_chunks = sum(held), len(held)
        assert sim.heap.stats() == model, (op, arg)


def test_stats_repr_is_pinned():
    # the heap-churn benchmark hashes this string into its output digest
    sim = Simulator(MtConfig(tg=16, ts=8, precision_ext=True, quarantine_capacity=4096), seed=0)
    word = sim.malloc(40)
    sim.malloc(15)  # 15 bytes leave no room for partial metadata: one fallback
    sim.free(word)
    assert repr(sim.heap.stats()) == (
        "AllocatorStats(allocations=2, frees=1, tagged_allocations=2,"
        " live_requested_bytes=15, live_aligned_bytes=16, peak_requested_bytes=55,"
        " peak_aligned_bytes=64, quarantine_bytes=48, quarantine_chunks=1,"
        " partial_fallbacks=1)")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1_000_000),
    sizes=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=20),
)
def test_live_chunks_never_overlap(seed, sizes):
    sim = Simulator(CFG16, seed=seed)
    words = [sim.malloc(s) for s in sizes]
    # free every other one to churn the free list, then allocate again
    for w in words[::2]:
        sim.free(w)
    for s in sizes[: len(sizes) // 2]:
        sim.malloc(s)
    chunks = sorted(sim.heap.live_chunks(), key=lambda c: c.base)
    for left, right in zip(chunks, chunks[1:]):
        assert left.base + left.aligned <= right.base
    for c in chunks:
        assert sim.shadow.get(c.base) == c.tag
