"""Pointer packing, tag matching, config validation, and the shadow store."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tagsim import MtConfig, Simulator, StoreMode, TagPolicy, UsageError
from tagsim.memory import SENTINEL
from tagsim.tagspace import ADDR_BITS, ADDR_SPACE, TAG_PAGE, ShadowStore, offset_ptr, pack, unpack

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


# a float or a string of a valid value is refused too: it would reach
# the simulator's int-only arithmetic, and a float hashes as its int
@pytest.mark.parametrize("tg", [1, 8, 15, 24, 128, 0, -16, 16.0, "16", None])
def test_config_rejects_bad_granule(tg):
    with pytest.raises(UsageError):
        MtConfig(tg=tg)


@pytest.mark.parametrize("ts", [0, 1, 2, 3, 5, 16, -4, 8.0, 4.0, "8", None])
def test_config_rejects_bad_tag_width(ts):
    with pytest.raises(UsageError):
        MtConfig(ts=ts)


@pytest.mark.parametrize("rate", [-0.1, 1.0001, 2.0, "0.5", None])
def test_config_rejects_bad_sampling_rate(rate):
    # the sampling rate is configured on the tag policy
    with pytest.raises(UsageError):
        TagPolicy.sampled(rate)


def test_config_rejects_negative_quarantine():
    for capacity in (-1, 1.5, 64.0, True, "64", None):
        with pytest.raises(UsageError):
            MtConfig(quarantine_capacity=capacity)


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


_CONFIGS = [MtConfig(tg=tg, ts=ts, precision_ext=precision_ext, zero_on_tag=zero_on_tag)
            for tg, ts, precision_ext, zero_on_tag
            in itertools.product((16, 32, 64), (4, 8), (False, True), (False, True))]
_DERIVED = ("n_tags", "tag_shift", "tg_shift", "partial_tag", "reserved_tags", "usable_tags",
            "tag_fill")


@pytest.mark.parametrize("cfg", _CONFIGS, ids=repr)
def test_derived_values_follow_their_formulas(cfg):
    n_tags = 2 ** cfg.ts
    partial = n_tags - 1 if cfg.precision_ext else None
    assert cfg.n_tags == n_tags
    assert cfg.tag_shift == 64 - cfg.ts
    assert 2 ** cfg.tg_shift == cfg.tg
    assert cfg.partial_tag == partial
    assert cfg.reserved_tags == frozenset({0, partial} - {None})
    assert cfg.usable_tags == tuple(t for t in range(1, n_tags) if t != partial)
    assert cfg.tag_fill == (0 if cfg.zero_on_tag else SENTINEL)


@pytest.mark.parametrize("cfg", _CONFIGS, ids=repr)
def test_derived_values_are_not_fields(cfg):
    """to_dict, repr, == and hash read the seven fields alone, even when
    a derived value is overwritten."""
    fields = [field.name for field in dataclasses.fields(cfg)]
    assert fields == ["tg", "ts", "zero_on_tag", "precision_ext", "right_align", "store_mode",
                      "quarantine_capacity"]
    assert list(cfg.to_dict()) == fields
    values = tuple(getattr(cfg, name) for name in fields)
    assert repr(cfg) == "MtConfig(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")"
    twin = MtConfig(*values)
    for name in _DERIVED:
        object.__setattr__(twin, name, None)
    assert twin == cfg and hash(twin) == hash(cfg) == hash(values)
    assert repr(twin) == repr(cfg) and twin.to_dict() == cfg.to_dict()


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


# ----------------------------------------------------------------------
# shadow store


def tagged_granules(shadow):
    """How many granules hold a nonzero tag."""
    return sum(TAG_PAGE - page.count(0) for page in shadow.pages.values())


def test_shadow_default_is_match_all():
    shadow = ShadowStore(CFG16)
    assert shadow.get(0) == 0
    assert shadow.get(0x123456) == 0
    assert tagged_granules(shadow) == 0


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
    assert tagged_granules(shadow) == 1
    shadow.set_range(0x200, 16, 0)
    assert tagged_granules(shadow) == 0
    assert shadow.get(0x200) == 0


def test_shadow_write_counter():
    shadow = ShadowStore(CFG16)
    assert shadow.writes == 0
    shadow.set_range(0x300, 48, 5)
    assert shadow.writes == 3


def test_a_zero_range_of_a_gibibyte_makes_no_page():
    """2^26 granules at tg 16, cut into 65,536 pieces, each one level deep:
    no page is made, none raises, and a tagged granule inside the span is
    cleared and counted."""
    shadow = ShadowStore(CFG16)
    shadow.set_range(0x40, 1 << 30, 0)
    assert shadow.pages == {} and shadow.writes == 0
    shadow.set_range(0x40 + 5 * TAG_PAGE * CFG16.tg, CFG16.tg, 9)
    shadow.set_range(0x40, 1 << 30, 0)
    assert list(shadow.pages) == [5] and tagged_granules(shadow) == 0
    assert shadow.writes == 2


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
    assert tagged_granules(shadow) == granules
    if base:
        assert shadow.get(base - 1) == 0
    assert shadow.get(base + granules * cfg.tg) == 0


class DictShadow:
    """The shadow store as it was first written: one dict entry per
    tagged granule, a zero write pops entries."""

    def __init__(self, shift):
        self.shift = shift
        self.tags = {}
        self.writes = 0

    def get(self, addr):
        return self.tags.get(addr >> self.shift, 0)

    def set_range(self, addr, length, tag):
        first = addr >> self.shift
        for g in range(first, first + (length >> self.shift)):
            if tag:
                self.tags[g] = tag
                self.writes += 1
            elif self.tags.pop(g, None) is not None:
                self.writes += 1


# granule runs that start near a page boundary, span up to three pages,
# or are one granule long; tag 0 about half the time
range_writes = st.lists(st.tuples(
    st.integers(min_value=0, max_value=3),  # page
    st.one_of(st.integers(min_value=-3, max_value=3),
              st.integers(min_value=0, max_value=TAG_PAGE - 1)),  # granule offset
    st.one_of(st.just(1), st.integers(min_value=1, max_value=3 * TAG_PAGE)),
    st.one_of(st.just(0), st.integers(min_value=1, max_value=255)),
), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(cfg=st.sampled_from([CFG16, MtConfig(tg=32, ts=8), CFG64]), writes=range_writes,
       probes=st.lists(st.integers(min_value=-4, max_value=5 * TAG_PAGE), max_size=30))
def test_paged_shadow_agrees_with_dict_model(cfg, writes, probes):
    """Random range writes, crossing page boundaries and zeroing over
    partly tagged and untouched pages, leave the paged store reading
    the same tags and counting the same writes as the dict model."""
    shadow, model = ShadowStore(cfg), DictShadow(cfg.tg_shift)
    written_pages = set()
    for page, offset, count, tag in writes:
        tag &= cfg.n_tags - 1
        g = max(page * TAG_PAGE + offset, 0)
        shadow.set_range(g * cfg.tg, count * cfg.tg, tag)
        model.set_range(g * cfg.tg, count * cfg.tg, tag)
        if tag:
            written_pages.update(range(g // TAG_PAGE, (g + count - 1) // TAG_PAGE + 1))
        assert shadow.writes == model.writes
        for k in {g - 1, g, g + count - 1, g + count, *probes}:
            if k >= 0:
                assert shadow.get(k * cfg.tg + cfg.tg - 1) == model.get(k * cfg.tg), k
        assert tagged_granules(shadow) == len(model.tags)
        # a zero write never makes a page
        assert set(shadow.pages) <= written_pages
