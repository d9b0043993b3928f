"""Partial-granule precision: in-granule metadata, byte-precise bounds,
and interaction with the allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from tagsim import FaultError, MtConfig, Simulator, TagPolicy
from tagsim.memory import _PAGE_SHIFT, _PAGE_SIZE, SparseMemory
from tagsim.precision import META_BYTES, mark_partial, partial_access_ok, partial_meta
from tagsim.tagspace import _VALID_TG, ShadowStore, offset_ptr, pack, unpack

PREC16 = MtConfig(tg=16, ts=8, precision_ext=True)
PREC64 = MtConfig(tg=64, ts=4, precision_ext=True)


def fresh(cfg):
    return SparseMemory(), ShadowStore(cfg)


# ----------------------------------------------------------------------
# marking


def test_mark_partial_writes_shadow_and_metadata():
    memory, shadow = fresh(PREC16)
    mark_partial(memory, shadow, PREC16, 0x100, n=10, real_tag=5)
    assert shadow.get(0x100) == PREC16.partial_tag == 255
    # metadata sits in the granule's last two bytes: n, then the tag
    assert memory.read(0x100 + 14, 1) == bytes([10])
    assert memory.read(0x100 + 15, 1) == bytes([5])


def test_partial_meta_roundtrip():
    memory, shadow = fresh(PREC64)
    mark_partial(memory, shadow, PREC64, 0x40, n=33, real_tag=7)
    assert partial_meta(memory, PREC64, 0x40) == (33, 7)


@pytest.mark.parametrize("tg", _VALID_TG)
def test_mark_partial_on_a_missing_page_leaves_only_the_metadata(tg):
    """A zero fill makes no page, so under zero_on_tag mark_partial may
    meet none: it makes the page, and the page then holds the two bytes
    partial_meta reads and zeros everywhere else."""
    cfg = MtConfig(tg=tg, ts=8, precision_ext=True)
    memory, shadow = fresh(cfg)
    gbase = 3 * _PAGE_SIZE + 5 * tg
    mark_partial(memory, shadow, cfg, gbase, tg - META_BYTES, 7)
    assert list(memory._pages) == [gbase >> _PAGE_SHIFT]
    assert partial_meta(memory, cfg, gbase) == (tg - META_BYTES, 7)
    page = bytearray(_PAGE_SIZE)
    page[5 * tg + tg - META_BYTES : 6 * tg] = bytes((tg - META_BYTES, 7))
    assert memory.read(3 * _PAGE_SIZE, _PAGE_SIZE) == page


def test_a_memory_page_holds_whole_granules():
    """partial_meta reads a granule's metadata bytes from the granule's
    own page, which holds them only if no granule straddles two pages."""
    for tg in _VALID_TG:
        assert _PAGE_SIZE % tg == 0, tg


@settings(max_examples=100, deadline=None)
@given(tg=st.sampled_from(_VALID_TG), data=st.data())
def test_partial_meta_reads_the_granules_last_two_bytes(tg, data):
    """On PARTIAL granules marked anywhere in four pages, the last
    granule of a page among them, and on unmarked granules of written
    and never-written pages, partial_meta gives what a read does."""
    cfg = MtConfig(tg=tg, ts=4, precision_ext=True)
    memory, shadow = fresh(cfg)
    granules = st.integers(min_value=0, max_value=4 * _PAGE_SIZE // tg - 1).map(lambda g: g * tg)
    metas = st.tuples(st.integers(min_value=1, max_value=tg - META_BYTES),
                      st.sampled_from(cfg.usable_tags))
    marked = data.draw(st.lists(st.tuples(granules, metas), max_size=20))
    marked.append((_PAGE_SIZE - tg, data.draw(metas)))
    for gbase, (n, tag) in marked:
        mark_partial(memory, shadow, cfg, gbase, n, tag)
    unwritten = 8 * _PAGE_SIZE - tg
    assert unwritten >> _PAGE_SHIFT not in memory._pages
    probes = [g for g, _ in marked] + data.draw(st.lists(granules, max_size=10)) + [unwritten]
    for gbase in probes:
        expect = tuple(memory.read(gbase + tg - META_BYTES, META_BYTES))
        assert partial_meta(memory, cfg, gbase) == expect, hex(gbase)
    assert partial_meta(memory, cfg, unwritten) == (0, 0)


# ----------------------------------------------------------------------
# the access rule, exhaustively


def test_partial_access_rule_exhaustive():
    """ok iff the tag matches and [offset, offset+width) stays inside
    the valid prefix."""
    memory, shadow = fresh(PREC16)
    for n in range(1, 15):
        base = n * 64
        mark_partial(memory, shadow, PREC16, base, n=n, real_tag=9)
        for offset in range(16):
            for width in (1, 2, 4, 8):
                expect = offset + width <= n
                assert partial_access_ok(memory, PREC16, base, offset + width, 9) is expect
                # any other tag is refused outright
                assert partial_access_ok(memory, PREC16, base, offset + width, 8) is False
                assert partial_access_ok(memory, PREC16, base, offset + width, 0) is False


def test_metadata_bytes_are_self_protecting():
    # the last two bytes always sit beyond the valid prefix (n <= tg-2),
    # so no access through the real tag can reach them
    memory, shadow = fresh(PREC16)
    mark_partial(memory, shadow, PREC16, 0x200, n=14, real_tag=3)
    assert partial_access_ok(memory, PREC16, 0x200, 14 + 1, 3) is False
    assert partial_access_ok(memory, PREC16, 0x200, 15 + 1, 3) is False
    assert partial_access_ok(memory, PREC16, 0x200, 8 + 8, 3) is False  # spans byte 15


# ----------------------------------------------------------------------
# allocator integration


def test_malloc_marks_final_partial_granule():
    sim = Simulator(PREC16, seed=5)
    p = sim.malloc(10)
    chunk = sim.heap.find_owner(unpack(p, sim.cfg)[0])
    addr = chunk.base
    assert sim.shadow.get(addr) == PREC16.partial_tag
    assert partial_meta(sim.memory, sim.cfg, addr) == (10, chunk.tag)


def test_under_precision_intra_granule_overflow_faults():
    sim = Simulator(PREC16, seed=5)
    p = sim.malloc(10)
    sim.load(offset_ptr(p, 9, sim.cfg), 1)  # last valid byte
    with pytest.raises(FaultError) as exc:
        sim.load(offset_ptr(p, 10, sim.cfg), 1)
    assert exc.value.report.partial is True
    with pytest.raises(FaultError):
        sim.load(offset_ptr(p, 12, sim.cfg), 1)


def test_without_precision_slack_bytes_pass_silently():
    sim = Simulator(MtConfig(tg=16, ts=8), seed=5)
    p = sim.malloc(10)
    sim.load(offset_ptr(p, 12, sim.cfg), 1)  # same granule, no fault
    assert all(t <= 255 for t in [sim.shadow.get(unpack(p, sim.cfg)[0])])


def test_multi_granule_chunk_marks_only_the_tail():
    sim = Simulator(PREC16, seed=2)
    p = sim.malloc(26)  # two granules, 10 valid bytes in the second
    addr, tag = unpack(p, sim.cfg)
    assert sim.shadow.get(addr) == tag
    assert sim.shadow.get(addr + 16) == PREC16.partial_tag
    sim.load(offset_ptr(p, 15, sim.cfg), 1)
    sim.load(offset_ptr(p, 25, sim.cfg), 1)
    with pytest.raises(FaultError):
        sim.load(offset_ptr(p, 26, sim.cfg), 1)


def test_wide_access_into_tail_respects_prefix():
    sim = Simulator(PREC16, seed=2)
    p = sim.malloc(26)
    # bytes 18..25 stay inside the 10-byte tail prefix
    sim.store(offset_ptr(p, 18, sim.cfg), b"\x44" * 8)
    with pytest.raises(FaultError):
        sim.store(offset_ptr(p, 19, sim.cfg), b"\x44" * 8)  # byte 26 is out


def test_granule_exact_sizes_never_mark_partial():
    sim = Simulator(PREC16, seed=1)
    for size in (16, 32, 48):
        p = sim.malloc(size)
        chunk = sim.heap.find_owner(unpack(p, sim.cfg)[0])
        assert sim.shadow.get(chunk.base) == chunk.tag


def test_remainder_without_metadata_room_falls_back():
    sim = Simulator(PREC16, seed=1)
    p = sim.malloc(15)  # remainder tg-1: no room for the two meta bytes
    chunk = sim.heap.find_owner(unpack(p, sim.cfg)[0])
    assert sim.heap.stats().partial_fallbacks == 1
    assert sim.shadow.get(chunk.base) == chunk.tag
    sim.load(offset_ptr(p, 15, sim.cfg), 1)  # slack byte passes, as without the extension


def test_free_clears_partial_marking():
    sim = Simulator(PREC16, seed=9)
    p = sim.malloc(10)
    chunk = sim.heap.find_owner(unpack(p, sim.cfg)[0])
    assert sim.shadow.get(chunk.base) == PREC16.partial_tag
    sim.free(p)
    assert sim.shadow.get(chunk.base) not in (0, chunk.tag, PREC16.partial_tag)
    with pytest.raises(FaultError) as exc:
        sim.load(p, 1)
    assert exc.value.report.partial is False


def test_sampled_out_allocation_skips_partial_marking():
    sim = Simulator(MtConfig(tg=16, ts=8, precision_ext=True), seed=3,
                    policy=TagPolicy.sampled(0.0))
    p = sim.malloc(10)
    assert unpack(p, sim.cfg)[1] == 0
    sim.load(offset_ptr(p, 12, sim.cfg), 1)  # untagged: whole granule open
