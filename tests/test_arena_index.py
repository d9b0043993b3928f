"""The heap's address-sorted chunk index against a linear-scan reference.

The reference keeps the heap's chunks in a plain list in malloc order,
forgets a freed chunk once a new chunk overlaps it, and answers every
question with a scan from the newest chunk back.  Random operation
sequences must get the same answers from both, and must leave the
index disjoint and bounded by the heap's size.  A trace replayed
through the real heap must also reach the peak that analyze_trace
computes for it.

The blocked free list is checked the same way, against a linear first
fit: one address-sorted list of extents, scanned from the lowest
address, with the placement and coalescing the heap had before its
free list was split into blocks."""

import hashlib
import random
from bisect import bisect_right
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tagsim import (DoubleFreeError, InvalidFreeError, MtConfig, Simulator, TagMismatchError,
                    TagPolicy)
from tagsim import arena
from tagsim.arena import FREE_BLOCK, HEAP_BASE, ChunkState, FreeList
from tagsim.tagspace import unpack
from tagsim.traces import Alloc, Free, analyze_trace


def user_addr(chunk):
    return chunk.base + chunk.user_off


def end(chunk):
    return chunk.base + chunk.aligned


class LinearIndex:
    """Chunk bookkeeping as a list in malloc order, searched linearly."""

    def __init__(self):
        self.chunks = []

    def add(self, chunk):
        self.chunks = [c for c in self.chunks
                       if not (c.state is ChunkState.FREED
                               and c.base < end(chunk) and chunk.base < end(c))]
        self.chunks.append(chunk)

    def find_owner(self, addr):
        return next((c for c in reversed(self.chunks) if c.base <= addr < end(c)), None)

    def classify_free(self, addr):
        """Fault kind and chunk for freeing a non-live address."""
        prior = next((c for c in reversed(self.chunks)
                      if user_addr(c) == addr and c.state is not ChunkState.LIVE), None)
        if prior is not None:
            return "double-free", prior
        return "invalid-free", self.find_owner(addr)

    def live(self):
        return [c for c in self.chunks if c.state is ChunkState.LIVE]


def make_config(tg, quarantine, layout):
    return MtConfig(tg=tg, ts=8 if tg == 16 else 4, quarantine_capacity=quarantine,
                    precision_ext=layout == "precision_ext",
                    right_align=layout == "right_align")


configs = st.builds(make_config, st.sampled_from([16, 64]), st.sampled_from([0, 128, 1024]),
                    st.sampled_from(["plain", "precision_ext", "right_align"]))
policies = st.sampled_from([TagPolicy.random(), TagPolicy.adjacent_distinct(),
                            TagPolicy.sampled(0.5)])
indices = st.integers(min_value=0, max_value=1_000)
ops = st.lists(st.one_of(
    st.tuples(st.just("malloc"), st.integers(min_value=0, max_value=200)),
    st.tuples(st.just("free"), indices),
    st.tuples(st.just("stale-free"), indices),
    st.tuples(st.just("wrong-tag-free"), indices),
    st.tuples(st.just("interior-free"), indices, st.integers(min_value=-64, max_value=300)),
), max_size=60)


def free_fault(sim, word):
    """Free ``word``, which must fault; returns (kind, chunk_id, chunk_state)."""
    with pytest.raises((DoubleFreeError, InvalidFreeError)) as exc:
        sim.free(word)
    report = exc.value.report
    return report.kind.value, report.chunk_id, report.chunk_state


def expected_fault(kind, chunk):
    return (kind, chunk.id if chunk else None, chunk.state.value if chunk else None)


def is_live_user_addr(heap, addr):
    return any(user_addr(c) == addr for c in heap.live_chunks())


def run_ops(sim, ops, step_check):
    """Apply ``ops`` to ``sim``, calling ``step_check(sim, ref)`` after each."""
    heap, cfg = sim.heap, sim.cfg
    ref = LinearIndex()
    live, freed = [], []
    for op in ops:
        name = op[0]
        if name == "malloc":
            word = sim.malloc(op[1])
            ref.add(heap.find_owner(unpack(word, cfg)[0]))
            live.append(word)
        elif name == "free" and live:
            word = live.pop(op[1] % len(live))
            sim.free(word)
            freed.append(word)
        elif name == "stale-free" and freed:
            word = freed[op[1] % len(freed)]
            addr = unpack(word, cfg)[0]
            if not is_live_user_addr(heap, addr):
                assert free_fault(sim, word) == expected_fault(*ref.classify_free(addr))
        elif name == "wrong-tag-free" and live:
            word = live[op[1] % len(live)]
            chunk = heap.find_owner(unpack(word, cfg)[0])
            assert free_fault(sim, word ^ (1 << cfg.tag_shift)) == \
                expected_fault("invalid-free", chunk)
        elif name == "interior-free" and ref.chunks:
            addr = ref.chunks[op[1] % len(ref.chunks)].base + op[2]
            if not is_live_user_addr(heap, addr):
                assert free_fault(sim, addr) == expected_fault(*ref.classify_free(addr))
        step_check(sim, ref)


def probe_addresses(sim, ref, extra):
    tg = sim.cfg.tg
    addrs = {HEAP_BASE - 1, sim.heap._brk - 1, sim.heap._brk, sim.heap._brk + tg}
    addrs.update(HEAP_BASE + off for off in extra)
    for c in ref.chunks:
        addrs.update((c.base - 1, c.base, user_addr(c), end(c) - 1, end(c)))
    return sorted(addrs)


def reuse_example(*ops):
    """An example of test_index_agrees_with_linear_reference on a heap
    with no quarantine, so that each free puts its chunk on the free list."""
    return example(cfg=make_config(16, 0, "plain"), policy=TagPolicy.random(), seed=0,
                   ops=list(ops), extra=[])


# The reuse shapes that malloc's one-slice index update meets.  A taken
# extent starts at a free extent's front, which is a freed chunk's base
# or memory that an earlier, shorter take left with no chunk indexed.
@settings(max_examples=150, deadline=None)
@given(cfg=configs, policy=policies, seed=st.integers(min_value=0, max_value=2**32),
       ops=ops, extra=st.lists(st.integers(min_value=0, max_value=8192), max_size=8))
# exactly one freed chunk
@reuse_example(("malloc", 32), ("malloc", 16), ("free", 0), ("malloc", 32))
# the front of one freed chunk, then the memory it leaves, which no chunk
# overlaps: an insertion between two live chunks
@reuse_example(("malloc", 64), ("malloc", 16), ("free", 0), ("malloc", 16), ("malloc", 16))
# three coalesced freed chunks at once
@reuse_example(("malloc", 16), ("malloc", 16), ("malloc", 16), ("malloc", 16),
               ("free", 0), ("free", 0), ("free", 0), ("malloc", 48))
# memory left by a shorter take, then a freed chunk coalesced onto it
@reuse_example(("malloc", 64), ("malloc", 16), ("malloc", 16), ("free", 0), ("malloc", 16),
               ("free", 0), ("malloc", 64))
def test_index_agrees_with_linear_reference(cfg, policy, seed, ops, extra):
    def agree(sim, ref):
        for addr in probe_addresses(sim, ref, extra):
            assert sim.heap.find_owner(addr) is ref.find_owner(addr), hex(addr)
        assert sim.heap.live_chunks() == ref.live()

    run_ops(Simulator(cfg, seed=seed, policy=policy), ops, agree)


def assert_index_bounded(sim):
    heap = sim.heap
    chunks = [heap._by_base[b] for b in heap._bases]
    assert sorted(heap._by_base) == heap._bases
    assert all(c.base == b for b, c in zip(heap._bases, chunks))
    for left, right in zip(chunks, chunks[1:]):
        assert end(left) <= right.base
    assert len(heap._bases) <= (heap._brk - HEAP_BASE) // sim.cfg.tg


@settings(max_examples=150, deadline=None)
@given(cfg=configs, policy=policies, seed=st.integers(min_value=0, max_value=2**32), ops=ops)
def test_index_stays_disjoint_and_bounded(cfg, policy, seed, ops):
    run_ops(Simulator(cfg, seed=seed, policy=policy), ops,
            lambda sim, ref: assert_index_bounded(sim))


@pytest.mark.parametrize("quarantine", [0, 4096])
def test_long_churn_keeps_index_bounded(quarantine):
    sim = Simulator(make_config(16, quarantine, "precision_ext"), seed=5)
    rnd = random.Random(quarantine)
    live = []
    for step in range(20_000):
        if live and (len(live) > 300 or rnd.random() < 0.5):
            sim.free(live.pop(rnd.randrange(len(live))))
        else:
            live.append(sim.malloc(rnd.choice((0, 8, 24, 100, 700, 3000))))
        if step % 1000 == 0:
            assert_index_bounded(sim)
    assert_index_bounded(sim)
    assert sim.heap.stats().allocations > 9_000


# heap-churn's allocation sizes: (share of allocations, smallest, largest)
_CHURN_SIZES = ((0.08, 0, 15), (0.55, 16, 256), (0.30, 257, 4096), (0.07, 4097, 20480))
_CHURN_LIVE = 500  # live chunks the churn keeps near


def churn_mallocs(rnd, live):
    """Whether the churn's next event is a malloc: mostly, below
    _CHURN_LIVE live chunks, and a bit under half the time above."""
    return not live or rnd.random() < (0.95 if len(live) < _CHURN_LIVE else 0.45)


def churn_size(rnd):
    """A malloc size drawn from _CHURN_SIZES."""
    u = rnd.random()
    for share, lo, hi in _CHURN_SIZES:
        u -= share
        if u < 0:
            break
    return rnd.randint(lo, hi)


def churn_victim(rnd, live):
    """Remove a random word from ``live`` and return it."""
    i = rnd.randrange(len(live))
    live[i], live[-1] = live[-1], live[i]
    return live.pop()


def churn_maxima(events, seed=21):
    """Replay a seeded churn of ``events`` mallocs and frees around
    _CHURN_LIVE live chunks, as heap-churn does (tg 16, ts 8, precision
    extension, 64 KiB quarantine), and return the largest chunk index,
    free-list block count and memory and shadow page counts it reached.
    Free extents never touch, so each one but the last ends at a live or
    quarantined chunk: at every step there is at most one more of them."""
    cfg = MtConfig(tg=16, ts=8, precision_ext=True, quarantine_capacity=64 << 10)
    sim = Simulator(cfg, seed=seed)
    heap = sim.heap
    rnd = random.Random(seed)
    live = []
    most = {"index": 0, "blocks": 0, "memory pages": 0, "shadow pages": 0}
    for _ in range(events):
        if churn_mallocs(rnd, live):
            live.append(heap.malloc(churn_size(rnd)))
        else:
            heap.free(churn_victim(rnd, live))
        free, quarantine = heap._free, heap._quarantine
        extents = sum(map(len, free.bases)) if free is not None else 0
        assert extents <= len(live) + (len(quarantine) if quarantine is not None else 0) + 1
        for name, count in (("index", len(heap._bases)),
                            ("blocks", len(free.maxes) if free is not None else 0),
                            ("memory pages", len(sim.memory._pages)),
                            ("shadow pages", len(sim.shadow.pages))):
            if count > most[name]:
                most[name] = count
    return most


def test_long_churn_work_stays_flat():
    """Ten times the events reach no larger index, free list or page
    set than the short run, within a slack of 10% and 2: the heap's
    cost follows its live set and quarantine, not the chunks ever
    allocated.  The long run replays the short one first."""
    short, long = churn_maxima(10_000), churn_maxima(100_000)
    for name, most in long.items():
        assert most <= short[name] * 1.1 + 2, (name, short, long)


# The digest pinned_churn_digest() gave while every tag was mixed one
# word at a time.  No golden output draws as many words from one stream.
PINNED_CHURN_SHA256 = "4e0787063f3754e3ee941739602ad33154c22fb1112d20c32ffb476463348b57"


def pinned_churn_digest(events=20_000, seed=24):
    """Replay a seeded churn of ``events`` on one long-lived simulator
    (tg 16, ts 8, precision extension, 64 KiB quarantine) with a load
    through every 4th freed pointer, and hash every pointer word malloc
    returns, every stale load's fault report and the final heap stats."""
    cfg = MtConfig(tg=16, ts=8, precision_ext=True, quarantine_capacity=64 << 10)
    sim = Simulator(cfg, seed=seed)
    rnd = random.Random(seed)
    digest = hashlib.sha256()
    live, frees = [], 0
    for _ in range(events):
        if churn_mallocs(rnd, live):
            word = sim.malloc(churn_size(rnd))
            live.append(word)
            digest.update(word.to_bytes(8, "little"))
        else:
            word = churn_victim(rnd, live)
            sim.free(word)
            frees += 1
            if frees % 4 == 0:
                with pytest.raises(TagMismatchError) as exc:
                    sim.load(word, 1)
                digest.update(exc.value.report.render().encode())
    digest.update(repr(sim.heap.stats()).encode())
    assert sim.rng.words_since(seed) > 10_000  # the long stream was reached
    return digest.hexdigest()


def test_a_long_run_replays_its_pinned_digest():
    assert pinned_churn_digest() == PINNED_CHURN_SHA256


traces = st.lists(st.one_of(
    st.tuples(st.just("a"), st.one_of(st.just(0), st.integers(min_value=0, max_value=300))),
    st.tuples(st.just("f"), indices),
), max_size=80)


@settings(max_examples=150, deadline=None)
@given(cfg=configs, policy=policies, seed=st.integers(min_value=0, max_value=2**32),
       steps=traces)
def test_heap_peak_equals_trace_analyzer_peak(cfg, policy, seed, steps):
    events, live_ids = [], []
    for kind, arg in steps:
        if kind == "a":
            events.append(Alloc(len(events), arg))
            live_ids.append(len(events) - 1)
        elif live_ids:
            events.append(Free(live_ids.pop(arg % len(live_ids))))
    sim = Simulator(cfg, seed=seed, policy=policy)
    words = {}
    for event in events:
        if isinstance(event, Alloc):
            words[event.id] = sim.malloc(event.size)
        else:
            sim.free(words.pop(event.id))
    peak = analyze_trace(events, [cfg.tg], ts=cfg.ts).rows[0].peak_bytes
    assert sim.heap.stats().peak_aligned_bytes == peak


# ----------------------------------------------------------------------
# the blocked free list against a linear first fit


class LinearFreeList:
    """Free extents as one address-sorted list of [base, size] pairs,
    with first fit and coalescing exactly as before the free list was
    split into blocks."""

    def __init__(self):
        self.extents = []

    @property
    def maxes(self):
        """Truthy when an extent is free; the heap asks nothing more."""
        return self.extents

    def take(self, size):
        free = self.extents
        for i, ext in enumerate(free):
            if ext[1] >= size:
                base = ext[0]
                if ext[1] == size:
                    del free[i]
                else:
                    ext[0] += size
                    ext[1] -= size
                return base
        return None

    def add(self, base, size):
        free = self.extents
        lo, hi = 0, len(free)
        while lo < hi:
            mid = (lo + hi) // 2
            if free[mid][0] < base:
                lo = mid + 1
            else:
                hi = mid
        if lo > 0 and free[lo - 1][0] + free[lo - 1][1] == base:
            free[lo - 1][1] += size
            if lo < len(free) and free[lo - 1][0] + free[lo - 1][1] == free[lo][0]:
                free[lo - 1][1] += free[lo][1]
                del free[lo]
            return
        if lo < len(free) and base + size == free[lo][0]:
            free[lo][0] = base
            free[lo][1] += size
            return
        free.insert(lo, [base, size])


def assert_blocks_sound(free):
    """Every block is non-empty, sorted, at most 2 * FREE_BLOCK long and
    holds its true first base and largest size; no two extents touch.
    Returns the extents in address order."""
    assert len(free.bases) == len(free.sizes) == len(free.firsts) == len(free.maxes)
    extents = []
    for bases, sizes, first, top in zip(free.bases, free.sizes, free.firsts, free.maxes):
        assert 0 < len(bases) == len(sizes) <= 2 * arena.FREE_BLOCK
        assert bases == sorted(bases)
        assert first == bases[0]
        assert top == max(sizes)
        assert min(sizes) > 0
        extents += [[b, n] for b, n in zip(bases, sizes)]
    for (b1, n1), (b2, _) in zip(extents, extents[1:]):
        assert b1 + n1 < b2, (hex(b1), n1, hex(b2))
    return extents


def add_counting(free, base, size, seen):
    """free.add(base, size), noting in ``seen`` whether it merged into
    the first extent of the next block and whether it split a block."""
    blocks = len(free.firsts)
    k = bisect_right(free.firsts, base) - 1
    if 0 <= k < blocks - 1 and base + size == free.firsts[k + 1]:
        seen["cross-block merge"] += 1
    free.add(base, size)
    if len(free.firsts) > blocks:
        seen["split"] += 1


def churn_free_lists(seed, steps, sizes, free_share):
    """Drive a FreeList and a LinearFreeList with the same takes and
    adds, the way a heap does: a take that finds nothing bumps, and an
    add returns a random extent that was handed out.  Checks that both
    place every take alike and hold the same extents after every step;
    returns how often a merge crossed a block and a block split."""
    rnd = random.Random(seed)
    blocked, linear = FreeList(), LinearFreeList()
    seen = {"cross-block merge": 0, "split": 0}
    brk, used = 0, []
    for _ in range(steps):
        if used and rnd.random() < free_share:
            base, size = used.pop(rnd.randrange(len(used)))
            add_counting(blocked, base, size, seen)
            linear.add(base, size)
        else:
            size = rnd.choice(sizes)
            base = blocked.take(size) if blocked.maxes else None
            assert base == linear.take(size)
            if base is None:
                base, brk = brk, brk + size
            used.append((base, size))
        assert assert_blocks_sound(blocked) == linear.extents
    return seen


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       sizes=st.lists(st.sampled_from([16, 32, 48, 64, 112, 256, 1024, 4096]),
                      min_size=1, max_size=5),
       free_share=st.floats(min_value=0.3, max_value=0.6),
       block=st.sampled_from([1, 2, 5, FREE_BLOCK]))
def test_blocked_free_list_agrees_with_linear_first_fit(seed, sizes, free_share, block):
    """Small blocks put a block boundary next to most extents."""
    with mock.patch.object(arena, "FREE_BLOCK", block):
        churn_free_lists(seed, 1500, sizes, free_share)


def test_churn_splits_blocks_and_merges_across_them():
    """At the real block size, a long churn reaches the block paths:
    block splits, and merges into the first extent of the next block."""
    seen = churn_free_lists(3, 20_000, [16, 32, 48, 112, 256], 0.45)
    assert seen["split"] >= 5
    assert seen["cross-block merge"] >= 5


def churn_heaps(cfg, policy, seed, script):
    """Grow a heap to a few hundred live chunks, then free and allocate
    alike, next to a heap whose free list is the linear reference: both
    must return the same pointer words and hold the same extents after
    every step.  Returns the most free extents the heap held at once."""
    sim, ref = Simulator(cfg, seed=seed, policy=policy), Simulator(cfg, seed=seed, policy=policy)
    ref.heap._free = LinearFreeList()
    rnd = random.Random(script)
    live = []
    most = 0
    for step in range(2000):
        if step >= 500 and rnd.random() < 0.5:
            word = live.pop(rnd.randrange(len(live)))
            sim.free(word)
            ref.free(word)
        else:
            size = rnd.choice((0, 1, 15, 16, 40, 100, 250, 700))
            word = sim.malloc(size)
            assert word == ref.malloc(size)
            live.append(word)
        if sim.heap._free is not None:
            extents = assert_blocks_sound(sim.heap._free)
            assert extents == ref.heap._free.extents
            most = max(most, len(extents))
    return most


@settings(max_examples=25, deadline=None)
@given(cfg=configs, policy=policies, seed=st.integers(min_value=0, max_value=2**32),
       script=st.integers(min_value=0, max_value=2**32))
# a script whose free list peaks at 62 extents, under 2 * FREE_BLOCK
@example(cfg=make_config(64, 0, "plain"), policy=TagPolicy.random(), seed=0, script=4159457)
def test_heap_places_like_linear_first_fit(cfg, policy, seed, script):
    """A heap on the blocked free list returns the same pointer words as
    one whose free list is the linear reference."""
    churn_heaps(cfg, policy, seed, script)


@pytest.mark.parametrize("tg", [16, 64])
@pytest.mark.parametrize("quarantine", [0, 128, 1024])
@pytest.mark.parametrize("layout", ["plain", "precision_ext", "right_align"])
def test_heap_churn_holds_more_extents_than_a_block(tg, quarantine, layout):
    """The comparison above reaches the block paths: under every config,
    a fixed script holds far more than 2 * FREE_BLOCK free extents at once."""
    cfg = make_config(tg, quarantine, layout)
    for policy in (TagPolicy.random(), TagPolicy.adjacent_distinct(), TagPolicy.sampled(0.5)):
        assert churn_heaps(cfg, policy, seed=0, script=1) > 2 * FREE_BLOCK, policy
