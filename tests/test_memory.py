"""SparseMemory against a flat bytearray model of the same address window."""

from hypothesis import given, settings, strategies as st

from tagsim.memory import _PAGE_MASK, _PAGE_SHIFT, _PAGE_SIZE, SparseMemory

BASE = 0x1000_0000  # page-aligned start of the modelled window
WINDOW = 4 * _PAGE_SIZE


def reference_write(memory: SparseMemory, addr: int, data: bytes) -> None:
    """The page-by-page loop that every write ran before write had its
    one-page fast path."""
    n = len(data)
    pos = 0
    while pos < n:
        off = addr & _PAGE_MASK
        take = min(n - pos, _PAGE_SIZE - off)
        memory._page(addr >> _PAGE_SHIFT)[off : off + take] = data[pos : pos + take]
        addr += take
        pos += take


# offsets near a page end make the short writes straddle a page boundary
offsets = st.one_of(
    st.integers(min_value=0, max_value=WINDOW - 1),
    st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.integers(min_value=k * _PAGE_SIZE - 16, max_value=k * _PAGE_SIZE + 8)),
)
# long payloads cover a whole page and more; a seeded byte ramp keeps
# them cheap to draw
ramps = st.tuples(st.integers(min_value=0, max_value=255),
                  st.integers(min_value=_PAGE_SIZE - 8, max_value=_PAGE_SIZE + 40)).map(
    lambda sn: bytes((sn[0] + i) & 0xFF for i in range(sn[1])))
payloads = st.one_of(st.binary(max_size=24), ramps)
writes = st.lists(st.tuples(offsets, payloads), max_size=20).map(
    lambda ws: [(off, data[: WINDOW - off]) for off, data in ws])


@settings(max_examples=200, deadline=None)
@given(writes=writes)
def test_write_matches_a_flat_model_and_the_page_loop(writes):
    memory, reference = SparseMemory(), SparseMemory()
    flat = bytearray(WINDOW)
    for off, data in writes:
        memory.write(BASE + off, data)
        reference_write(reference, BASE + off, data)
        flat[off : off + len(data)] = data
    assert memory.read(BASE, WINDOW) == bytes(flat)
    assert sorted(memory._pages) == sorted(reference._pages)


def test_empty_write_makes_no_page():
    memory = SparseMemory()
    memory.write(BASE + 5, b"")
    memory.write(BASE + _PAGE_SIZE, bytearray())
    assert memory._pages == {}


def reference_fill(memory: SparseMemory, addr: int, n: int, value: int) -> None:
    """The page-by-page loop that every fill ran before fill built its
    run once, with the rule that a zero fill makes no page."""
    while n:
        off = addr & _PAGE_MASK
        take = min(n, _PAGE_SIZE - off)
        if value or addr >> _PAGE_SHIFT in memory._pages:
            memory._page(addr >> _PAGE_SHIFT)[off : off + take] = bytes([value]) * take
        addr += take
        n -= take


fill_lengths = st.one_of(st.integers(min_value=0, max_value=80),
                         st.integers(min_value=_PAGE_SIZE - 8, max_value=2 * _PAGE_SIZE + 40))
fills = st.lists(st.tuples(offsets, fill_lengths, st.sampled_from([0x00, 0xAA, 0x5C])),
                 max_size=12).map(lambda fs: [(off, min(n, WINDOW - off), v) for off, n, v in fs])


@settings(max_examples=200, deadline=None)
@given(fills=fills)
def test_fill_matches_a_flat_model_and_the_page_loop(fills):
    memory, reference = SparseMemory(), SparseMemory()
    flat = bytearray(WINDOW)
    for off, n, value in fills:
        memory.fill(BASE + off, n, value)
        reference_fill(reference, BASE + off, n, value)
        flat[off : off + n] = bytes([value]) * n
    assert memory.read(BASE, WINDOW) == bytes(flat)
    assert sorted(memory._pages) == sorted(reference._pages)


def test_a_zero_fill_makes_no_page():
    """A page never made reads as zeros, so a zero fill of one, on the
    one-page path or across pages, makes none; on a page that exists it
    writes its zeros."""
    memory = SparseMemory()
    memory.fill(BASE + 16, 64, 0)
    memory.fill(BASE + _PAGE_SIZE - 16, 2 * _PAGE_SIZE, 0)
    assert memory._pages == {}
    memory.fill(BASE + _PAGE_SIZE, 32, 0xAA)
    memory.fill(BASE + _PAGE_SIZE - 16, 2 * _PAGE_SIZE, 0)
    assert list(memory._pages) == [(BASE >> _PAGE_SHIFT) + 1]
    assert memory.read(BASE, WINDOW) == bytes(WINDOW)
