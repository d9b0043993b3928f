"""Allocation-trace replay for RAM overhead estimation.

Trace grammar, bit exact so corpora can be diffed:

    a <id> <size>      allocation, decimal integers, single spaces
    f <id>             free of a previously allocated, still-live id
    # ...              comment line, ignored

Replaying a trace under several granule alignments answers "what does
raising the allocation granularity cost in RAM": each live allocation
contributes its size rounded up to the alignment (minimum one unit),
and the report compares the peak of that sum against the 8-byte base
alignment, plus the tag-storage bytes needed at that granularity
(ts bits per granule of peak footprint).

``load_trace`` opens a trace file, and ``analyze_trace`` counts it in
one streaming pass: it is read in blocks cut at line breaks (any that
``splitlines()`` knows and the file can hold), whose lines are counted
as they are parsed, with no event object built.  So memory does not
grow with the length of the trace.  It is bounded by the live
allocations plus a cache of the charges of at most ``_CACHED_SIZES``
(65,536) granule counts, the granule being the gcd of the tracked
alignments: at four alignments, about 520 bytes a count, 34 MB full.
``Alloc`` and ``Free`` events handed to ``analyze_trace`` are written
back as trace lines, so the one parser checks them too.

A block of plain event lines (canonical ids, newline breaks, numbers of
at most 18 digits) is split once and walked with no check per line;
any other block, comments and odd line breaks included, is parsed line
by line.  Both paths key a live allocation by its id's canonical digit
string, and give the same report and the same errors.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterator
from contextlib import closing
from itertools import accumulate, chain
from dataclasses import asdict, dataclass
from math import gcd

from .errors import TraceError, UsageError, require_int, require_iter

BASE_ALIGNMENT = 8

# analyze_trace caches the charges of at most this many granule counts,
# so that a trace of ever new sizes cannot grow its memory
_CACHED_SIZES = 1 << 16

# the line breaks of str.splitlines() that a trace file read with
# universal newlines can hold
_LINE_BREAKS = "\n\x0b\x0c\x1c\x1d\x1e"

# a chunk of event lines only, each ended by a newline but maybe the
# last, with ids in canonical form (no leading zeros) and numbers short
# enough that int() never meets its digit limit
_ID = "(?:0|[1-9][0-9]{0,17})"
_EVENT_BLOCK = re.compile(rf"(?:(?:a {_ID} [0-9]{{1,18}}|f {_ID})(?:\n|\Z))*")


@dataclass(frozen=True, slots=True)
class Alloc:
    id: int
    size: int


@dataclass(frozen=True, slots=True)
class Free:
    id: int


@dataclass(frozen=True)
class OverheadRow:
    alignment: int
    peak_bytes: int
    overhead_pct: float
    tag_storage_bytes: float


@dataclass(frozen=True)
class OverheadReport:
    base_alignment: int
    base_peak_bytes: int
    rows: tuple[OverheadRow, ...]

    def to_json_dict(self) -> dict:
        record = asdict(self)
        record["rows"] = list(record["rows"])  # a JSON array reads back as a list
        return record

    def render(self) -> str:
        lines = [f"base alignment {self.base_alignment}: peak {self.base_peak_bytes} bytes"]
        for row in self.rows:
            lines.append(f"alignment={row.alignment} peak_bytes={row.peak_bytes}"
                         f" overhead_pct={row.overhead_pct:.4f}"
                         f" tag_storage_bytes={row.tag_storage_bytes:.2f}")
        return "\n".join(lines)


def _scan(chunks, entries, granule: int) -> Iterator[list]:
    """Yield, for each of ``chunks`` (strings that each end at a line
    boundary, or at the end of the trace), the entries of its events,
    numbering their ``splitlines()`` in order: exactly the lines of the
    whole text.

    ``entries`` maps a size's count of ``granule``-byte granules, rounded
    up, to a pair (allocation entry, free entry).  An allocation's entry
    is the first of its pair, and the live record keeps the second, the
    entry of the free that ends the allocation.  Live allocations are
    keyed by the canonical digit string of their id, with no leading
    zeros, so ``a 1 8`` then ``f 01`` frees id 1, and an id is printed
    as that string.

    This is the one parser of the grammar.  A line is an event only if
    it is ASCII, ``split(" ")`` gives exactly the right fields and every
    number is a run of digits.  A malformed line or a free/alloc misuse
    raises TraceError naming the offending line as soon as it is found;
    the events of its chunk are not yielded.

    A chunk that ``_EVENT_BLOCK`` fullmatches is split once into its
    fields and walked with no check per line.  Its events fill its
    lines, so a misuse is on the line after those of the events before
    it.  Every other chunk, comments, blank lines, other line breaks,
    leading zeros and long numbers included, takes the line loop,
    ``_line_events``.  Both give the same events and errors.
    """
    live: dict[str, object] = {}
    line_no = 0
    for chunk in chunks:
        batch: list = []
        if not _EVENT_BLOCK.fullmatch(chunk):
            line_no = _line_events(chunk, line_no, live, entries, granule, batch)
        else:
            fields = iter(chunk.split())
            try:
                for head, aid in zip(fields, fields):
                    if head == "f":
                        batch.append(live.pop(aid))
                    elif aid in live:
                        raise KeyError(aid)
                    else:
                        entry, live[aid] = entries[-(-int(next(fields)) // granule)]
                        batch.append(entry)
            except KeyError:
                raise _misuse(head, aid, line_no + len(batch) + 1) from None
            line_no += len(batch)
        yield batch


def _misuse(head: str, aid: str, line: int) -> TraceError:
    """The error of event ``head`` (``a`` or ``f``) that finds ``aid``
    already live, or not live."""
    if head == "a":
        return TraceError(f"allocation id {aid} is already live", line=line)
    return TraceError(f"free of unknown id {aid}", line=line)


def _line_events(chunk: str, line_no: int, live: dict, entries, granule: int, batch: list) -> int:
    """``_scan``'s line loop: add the events of ``chunk``, whose lines
    follow line ``line_no``, to ``batch``, and return the number of its
    last line.  A bad line raises TraceError at once."""
    ascii_chunk = chunk.isascii()
    try:
        for line in chunk.splitlines():
            line_no += 1
            if not ascii_chunk and not line.isascii():
                # a trace file's non-ASCII bytes arrive as lone surrogates
                raw = line.encode("utf-8", "surrogateescape")
                raise TraceError(f"non-ASCII trace line {raw!r}", line=line_no)
            fields = line.split(" ")
            head = fields[0]
            if head == "a" and len(fields) == 3 and fields[1].isdigit() and fields[2].isdigit():
                aid = str(int(fields[1]))
                if aid in live:
                    raise _misuse(head, aid, line_no)
                entry, live[aid] = entries[-(-int(fields[2]) // granule)]
                batch.append(entry)
                continue
            if head == "f" and len(fields) == 2 and fields[1].isdigit():
                aid = str(int(fields[1]))
                if aid not in live:
                    raise _misuse(head, aid, line_no)
                batch.append(live.pop(aid))
                continue
            stripped = line.lstrip()
            if stripped and stripped[0] != "#":  # neither blank nor a comment
                raise TraceError(f"unrecognized trace line {line!r}", line=line_no)
    except ValueError as exc:  # more digits than int() converts
        raise TraceError(str(exc), line=line_no) from None
    return line_no


class _TraceFile:
    """The one-shot source ``load_trace`` returns: an open trace file's
    blocks, for ``analyze_trace`` to count once."""

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterator[str]):
        self._blocks: Iterator[str] | None = blocks

    def _take_blocks(self) -> Iterator[str]:
        """The blocks; the source is spent after this."""
        blocks, self._blocks = self._blocks, None
        if blocks is None:
            raise UsageError("this load_trace source was already analyzed or closed")
        return blocks

    def close(self) -> None:
        """Close the file, unless it is already closed."""
        if self._blocks is not None:
            self._take_blocks().close()


def load_trace(path) -> _TraceFile:
    """Open the trace file at ``path`` for one ``analyze_trace``.

    The file is opened now, so a missing file fails here.  It is parsed
    as ``analyze_trace`` reads it, so memory does not grow with its
    length, and errors in its lines are raised there.  The file is
    closed at the end of that pass, or when the source is closed or
    dropped.  ``path`` is a str, bytes or os.PathLike; any other value,
    an int or a bool included, raises UsageError.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):  # open() takes an int as a descriptor
        raise UsageError(f"path must be a str, bytes or os.PathLike, got {path!r}")
    blocks = _blocks(path)
    next(blocks)  # opens the file
    return _TraceFile(blocks)


def _blocks(path, size: int = 1 << 16) -> Iterator[str]:
    """Open the trace file, yield "", then yield its text in blocks cut
    after their last line break, so that no line is split between two.
    A break is any of ``_LINE_BREAKS``: universal newlines turn a
    carriage return, alone or before a newline, into a newline, and a
    non-ASCII byte arrives as a lone surrogate, which breaks no line."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        yield ""
        tail = ""
        while block := fh.read(size):
            cut = max(map(block.rfind, _LINE_BREAKS)) + 1
            if cut:
                yield tail + block[:cut]
                tail = block[cut:]
            else:
                tail += block
        if tail:
            yield tail


class _Charges(dict):
    """The charges at each tracked alignment of q granules, and their
    negation, computed once per q.  The granule g is the gcd of the
    alignments, so a size's charges depend only on its granule count
    q = ceil(size / g): at alignment a, max(1, ceil(q·g / a))·a, so that
    size 0 still costs one unit.  At most ``_CACHED_SIZES`` counts are
    kept, so that a trace of ever new sizes cannot grow its memory:
    under ``tracemalloc``, at four alignments, a count costs about 520
    bytes, and a full cache about 34 MB."""

    def __init__(self, alignments):
        super().__init__()
        self.alignments = alignments
        self.granule = gcd(*alignments)

    def __missing__(self, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if len(self) >= _CACHED_SIZES:
            self.clear()
        charges = tuple(max(1, -(-q * self.granule // a)) * a for a in self.alignments)
        pair = self[q] = charges, tuple(-c for c in charges)
        return pair


def _event_text(events) -> Iterator[str]:
    """Alloc and Free ``events`` written as trace lines for ``_scan``,
    in blocks of at most 256.  A field is written as its ``repr``, so
    only a non-negative int reads back as a number."""
    lines: list[str] = []
    for line, event in enumerate(events, 1):
        kind = type(event)
        try:
            if kind is not Alloc and kind is not Free:
                raise ValueError(f"unknown trace event {event!r}")
            lines.append(f"a {event.id!r} {event.size!r}" if kind is Alloc
                         else f"f {event.id!r}")
        except ValueError as exc:  # or an int with more digits than repr() writes
            yield "\n".join(lines)
            raise TraceError(str(exc), line=line) from None
        if len(lines) == 256:
            yield "\n".join(lines)
            lines = []
    yield "\n".join(lines)


def analyze_trace(events, alignments, ts: int) -> OverheadReport:
    """Replay ``events`` and report peak footprint per alignment.

    ``ts`` is the tag width used for the tag-storage column, charged at
    ts bits per alignment-sized granule of the peak footprint.  The
    8-byte base peak is always computed for the overhead comparison,
    whether or not 8 appears in ``alignments``.

    ``events`` is either the source ``load_trace`` returns, counted as
    its lines are parsed with no event built, or an iterable of Alloc
    and Free instances, iterated once.  A source is spent by this call,
    and its file closed; a spent or closed one raises UsageError.
    Events are parsed as the trace lines they write, so an event that
    is not an Alloc or Free, or an id or size that is not a non-negative
    int, raises TraceError naming its line, as a free/alloc misuse does.
    ``events`` or ``alignments`` that is not iterable, or ``alignments``
    that is a str or bytes, raises UsageError.
    """
    if isinstance(alignments, (str, bytes)):  # iterable, but of characters or byte values
        raise UsageError(f"alignments must be an iterable of ints, got {alignments!r}")
    alignments = list(require_iter("alignments", alignments))
    if not alignments:
        raise UsageError("need at least one alignment")
    for a in alignments:
        if require_int("alignment", a) < 1:
            raise UsageError(f"alignment must be >= 1, got {a}")
    if require_int("tag width", ts) < 1:
        raise UsageError(f"tag width must be >= 1, got {ts}")

    tracked = sorted(set(alignments) | {BASE_ALIGNMENT})
    if type(events) is _TraceFile:
        blocks = events._take_blocks()
    else:
        blocks = _event_text(require_iter("events", events))
    width = len(tracked)
    current = [0] * width
    peaks = [0] * width
    charges = _Charges(tracked)
    with closing(blocks):  # the file, also when a line is refused
        for batch in _scan(blocks, charges, charges.granule):
            flat = list(chain.from_iterable(batch))
            for i in range(width):
                column = flat[i::width]  # the signed charges at tracked[i]
                peaks[i] = max(peaks[i], max(accumulate(column, initial=current[i])))
                current[i] += sum(column)
    peak = dict(zip(tracked, peaks))

    base_peak = peak[BASE_ALIGNMENT]
    rows = []
    for a in alignments:
        if base_peak:
            pct = (peak[a] - base_peak) / base_peak * 100.0
        else:
            pct = 0.0
        rows.append(OverheadRow(
            alignment=a,
            peak_bytes=peak[a],
            overhead_pct=pct,
            tag_storage_bytes=peak[a] * ts / (8 * a),
        ))
    return OverheadReport(base_alignment=BASE_ALIGNMENT, base_peak_bytes=base_peak,
                          rows=tuple(rows))
