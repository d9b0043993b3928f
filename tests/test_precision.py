"""Partial-granule precision: in-granule metadata, byte-precise bounds,
and interaction with the allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from tagsim import FaultError, MtConfig, Simulator, TagPolicy, UsageError
from tagsim.memory import SparseMemory
from tagsim.precision import META_BYTES, mark_partial, partial_access_ok, read_partial_meta
from tagsim.tagspace import ShadowStore, offset_ptr, pack, unpack

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


def test_read_partial_meta_roundtrip():
    memory, shadow = fresh(PREC64)
    mark_partial(memory, shadow, PREC64, 0x40, n=33, real_tag=7)
    assert tuple(read_partial_meta(memory, PREC64, 0x40)) == (33, 7)


def test_mark_partial_validates_n():
    memory, shadow = fresh(PREC16)
    mark_partial(memory, shadow, PREC16, 0x0, n=14, real_tag=1)  # max n = tg-2
    for bad in (0, -1, 15, 16, 100):
        with pytest.raises(UsageError):
            mark_partial(memory, shadow, PREC16, 0x100, n=bad, real_tag=1)


def test_mark_partial_rejects_reserved_tags():
    memory, shadow = fresh(PREC16)
    with pytest.raises(UsageError):
        mark_partial(memory, shadow, PREC16, 0x100, n=4, real_tag=0)
    with pytest.raises(UsageError):
        mark_partial(memory, shadow, PREC16, 0x100, n=4, real_tag=255)


def test_mark_partial_requires_alignment_and_extension():
    memory, shadow = fresh(PREC16)
    with pytest.raises(UsageError):
        mark_partial(memory, shadow, PREC16, 0x101, n=4, real_tag=1)
    plain = MtConfig(tg=16, ts=8)
    with pytest.raises(UsageError):
        mark_partial(memory, shadow, plain, 0x100, n=4, real_tag=1)


def reference_mark_checks(cfg, granule_base, n, real_tag):
    """mark_partial's four checks as four separate tests, in their
    order: the message of the first that fails, or None."""
    if cfg.partial_tag is None:
        return "precision_ext is not enabled in this config"
    if granule_base & (cfg.tg - 1):
        return f"0x{granule_base:x} is not the base of a {cfg.tg}-byte granule"
    if not 0 < n <= cfg.tg - META_BYTES:
        return f"valid byte count {n} outside 1..{cfg.tg - META_BYTES}"
    if not 0 <= real_tag < cfg.n_tags or real_tag in cfg.reserved_tags:
        return f"real tag {real_tag} is reserved or out of range"
    return None


@st.composite
def mark_calls(draw):
    cfg = MtConfig(tg=draw(st.sampled_from((16, 32, 64))), ts=draw(st.sampled_from((4, 8))),
                   precision_ext=draw(st.booleans()))
    granule = draw(st.integers(min_value=0, max_value=64)) * cfg.tg
    base = granule + draw(st.sampled_from((0, 0, 1, cfg.tg // 2, cfg.tg - 1)))
    # each range with its edges drawn often: a check is wrong there first
    tg, top = cfg.tg, cfg.n_tags
    n = draw(st.one_of(st.sampled_from((-2, -1, 0, 1, tg - 3, tg - 2, tg - 1, tg, tg + 2)),
                       st.integers(min_value=-2, max_value=tg + 2)))
    real_tag = draw(st.one_of(st.sampled_from((-1, 0, 1, top - 2, top - 1, top)),
                              st.integers(min_value=-1, max_value=top)))
    return cfg, base, n, real_tag


@settings(max_examples=400, deadline=None)
@given(call=mark_calls())
def test_mark_partial_accepts_and_refuses_as_its_four_checks_did(call):
    cfg, base, n, real_tag = call
    expected = reference_mark_checks(cfg, base, n, real_tag)
    memory, shadow = fresh(cfg)
    if expected is None:
        mark_partial(memory, shadow, cfg, base, n, real_tag)
        assert shadow.get(base) == cfg.partial_tag
        assert tuple(read_partial_meta(memory, cfg, base)) == (n, real_tag)
    else:
        with pytest.raises(UsageError) as refused:
            mark_partial(memory, shadow, cfg, base, n, real_tag)
        assert str(refused.value) == expected
        assert shadow.writes == 0 and memory._pages == {}


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
                assert partial_access_ok(memory, PREC16, base, offset, width, 9) is expect
                # any other tag is refused outright
                assert partial_access_ok(memory, PREC16, base, offset, width, 8) is False
                assert partial_access_ok(memory, PREC16, base, offset, width, 0) is False


def test_metadata_bytes_are_self_protecting():
    # the last two bytes always sit beyond the valid prefix (n <= tg-2),
    # so no access through the real tag can reach them
    memory, shadow = fresh(PREC16)
    mark_partial(memory, shadow, PREC16, 0x200, n=14, real_tag=3)
    assert partial_access_ok(memory, PREC16, 0x200, 14, 1, 3) is False
    assert partial_access_ok(memory, PREC16, 0x200, 15, 1, 3) is False
    assert partial_access_ok(memory, PREC16, 0x200, 8, 8, 3) is False  # spans byte 15


# ----------------------------------------------------------------------
# allocator integration


def test_malloc_marks_final_partial_granule():
    sim = Simulator(PREC16, seed=5)
    p = sim.malloc(10)
    chunk = sim.heap.find_owner(unpack(p, sim.cfg)[0])
    addr = chunk.base
    assert sim.shadow.get(addr) == PREC16.partial_tag
    assert tuple(read_partial_meta(sim.memory, sim.cfg, addr)) == (10, chunk.tag)


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
