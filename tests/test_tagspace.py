"""Pointer packing, tag matching, config validation, and the shadow store."""

import pytest
from hypothesis import given, settings, strategies as st

from tagsim import MtConfig, ShadowStore, Simulator, StoreMode, TagPolicy, UsageError
from tagsim.tagspace import (
    ADDR_BITS,
    ADDR_SPACE,
    granule_index,
    offset_ptr,
    pack,
    tag_storage_bits,
    unpack,
)

CFG16 = MtConfig(tg=16, ts=8)
CFG64 = MtConfig(tg=64, ts=4)


# ----------------------------------------------------------------------
# config validation


def test_config_defaults():
    cfg = MtConfig()
    assert cfg.tg == 16
    assert cfg.ts == 8
    assert cfg.n_tags == 256
    assert cfg.tag_shift == 56
    assert cfg.store_mode is StoreMode.PRECISE


@pytest.mark.parametrize("tg", [1, 8, 15, 24, 128, 0, -16])
def test_config_rejects_bad_granule(tg):
    with pytest.raises(UsageError):
        MtConfig(tg=tg)


@pytest.mark.parametrize("ts", [0, 1, 2, 3, 5, 16, -4])
def test_config_rejects_bad_tag_width(ts):
    with pytest.raises(UsageError):
        MtConfig(ts=ts)


@pytest.mark.parametrize("rate", [-0.1, 1.0001, 2.0])
def test_config_rejects_bad_sampling_rate(rate):
    # the sampling rate is configured on the tag policy
    with pytest.raises(UsageError):
        TagPolicy.sampled(rate)


def test_config_rejects_negative_quarantine():
    with pytest.raises(UsageError):
        MtConfig(quarantine_capacity=-1)


def test_precision_and_right_align_are_exclusive():
    with pytest.raises(UsageError):
        MtConfig(precision_ext=True, right_align=True)
    # each alone is fine
    MtConfig(precision_ext=True)
    MtConfig(right_align=True)


def test_reserved_and_usable_tags():
    plain = MtConfig(tg=16, ts=4)
    assert plain.reserved_tags == frozenset({0})
    assert plain.usable_tags == tuple(range(1, 16))

    prec = MtConfig(tg=16, ts=4, precision_ext=True)
    assert prec.partial_tag == 15
    assert prec.reserved_tags == frozenset({0, 15})
    assert prec.usable_tags == tuple(range(1, 15))


# ----------------------------------------------------------------------
# pointer packing


def test_pack_places_tag_in_top_bits():
    assert pack(0x1000, 0xAB, CFG16) == 0xAB00_0000_0000_1000
    assert pack(0x2000, 0x7, CFG64) == 0x7000_0000_0000_2000


def test_pack_zero_tag_is_plain_address():
    assert pack(0x1234, 0, CFG16) == 0x1234


def test_unpack_inverts_pack():
    word = pack(0xDEAD_BEEF, 0x5C, CFG16)
    assert unpack(word, CFG16) == (0xDEAD_BEEF, 0x5C)


def test_pack_rejects_out_of_range():
    with pytest.raises(UsageError):
        pack(ADDR_SPACE, 1, CFG16)
    with pytest.raises(UsageError):
        pack(-1, 1, CFG16)
    with pytest.raises(UsageError):
        pack(0, 256, CFG16)
    with pytest.raises(UsageError):
        pack(0, 16, CFG64)
    with pytest.raises(UsageError):
        pack(0, -1, CFG16)


def test_offset_ptr_preserves_tag():
    word = pack(0x4000, 9, CFG16)
    moved = offset_ptr(word, 0x30, CFG16)
    assert unpack(moved, CFG16) == (0x4030, 9)
    back = offset_ptr(moved, -0x30, CFG16)
    assert back == word


def test_offset_ptr_rejects_escape():
    word = pack(ADDR_SPACE - 8, 3, CFG16)
    with pytest.raises(UsageError):
        offset_ptr(word, 16, CFG16)
    with pytest.raises(UsageError):
        offset_ptr(pack(4, 3, CFG16), -8, CFG16)


@settings(max_examples=300, deadline=None)
@given(
    addr=st.integers(min_value=0, max_value=ADDR_SPACE - 1),
    tag=st.integers(min_value=0, max_value=255),
)
def test_pack_unpack_roundtrip_property(addr, tag):
    word = pack(addr, tag, CFG16)
    assert unpack(word, CFG16) == (addr, tag)
    # intervening bits stay zero: the word is exactly tag<<56 | addr
    assert word == (tag << 56) | addr


def test_granule_index():
    assert granule_index(0, CFG16) == 0
    assert granule_index(15, CFG16) == 0
    assert granule_index(16, CFG16) == 1
    assert granule_index(0x100, CFG64) == 4


# ----------------------------------------------------------------------
# match rule


@pytest.mark.parametrize(
    "ptag,mtag,expect",
    [
        (0, 0, True),   # untagged pointer, untagged memory
        (3, 0, True),   # match-all memory tag
        (3, 3, True),
        (3, 4, False),
        (0, 3, False),  # untagged pointer cannot reach tagged memory
    ],
)
def test_tags_match_table(ptag, mtag, expect):
    """The engine's verdict on a one-byte access to a granule tagged mtag."""
    for cfg in (CFG16, CFG64):
        sim = Simulator(cfg)
        sim.shadow.set_range(0x1000, cfg.tg, mtag)
        for offset in (0, cfg.tg - 1):
            word = pack(0x1000 + offset, ptag, cfg)
            assert (sim.check_user_range(word, 1) is None) is expect


def test_tag_storage_bits():
    assert tag_storage_bits(0, CFG16) == 0
    assert tag_storage_bits(1, CFG16) == 8
    assert tag_storage_bits(16, CFG16) == 8
    assert tag_storage_bits(17, CFG16) == 16
    assert tag_storage_bits(1 << 20, CFG64) == 4 * ((1 << 20) // 64)


# ----------------------------------------------------------------------
# shadow store


def test_shadow_default_is_match_all():
    shadow = ShadowStore(CFG16)
    assert shadow.get(0) == 0
    assert shadow.get(0x123456) == 0
    assert shadow.bits_used() == 0


def test_shadow_set_range_and_isolation():
    shadow = ShadowStore(CFG16)
    shadow.set_range(0x100, 32, 7)
    # every byte of the two tagged granules reads the tag
    for off in range(32):
        assert shadow.get(0x100 + off) == 7
    # neighbours on either side are untouched
    assert shadow.get(0x100 - 1) == 0
    assert shadow.get(0x100 + 32) == 0


def test_shadow_zero_write_clears_entries():
    shadow = ShadowStore(CFG16)
    shadow.set_range(0x200, 16, 9)
    assert shadow.bits_used() == 8
    shadow.set_range(0x200, 16, 0)
    assert shadow.bits_used() == 0
    assert shadow.get(0x200) == 0


def test_shadow_rejects_misaligned_range():
    shadow = ShadowStore(CFG16)
    with pytest.raises(UsageError):
        shadow.set_range(0x101, 16, 3)
    with pytest.raises(UsageError):
        shadow.set_range(0x100, 8, 3)  # not a granule multiple
    with pytest.raises(UsageError):
        shadow.set_range(0x100, 0, 3)
    with pytest.raises(UsageError):
        shadow.set_range(0x100, 16, 256)


def test_shadow_write_counter():
    shadow = ShadowStore(CFG16)
    assert shadow.writes == 0
    shadow.set_range(0x300, 48, 5)
    assert shadow.writes == 3


@settings(max_examples=200, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=2**20),
    granules=st.integers(min_value=1, max_value=8),
    tag=st.integers(min_value=1, max_value=255),
)
def test_shadow_range_footprint_property(start, granules, tag):
    """A range write touches exactly the granules it names."""
    cfg = CFG16
    shadow = ShadowStore(cfg)
    base = start * cfg.tg
    shadow.set_range(base, granules * cfg.tg, tag)
    assert shadow.bits_used() == granules * cfg.ts
    if base:
        assert shadow.get(base - 1) == 0
    assert shadow.get(base + granules * cfg.tg) == 0
