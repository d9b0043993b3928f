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

``load_trace`` and ``analyze_trace`` make one streaming pass over a
trace file: events are parsed as the file is read and dropped once
counted, so memory is bounded by the live allocations, not by the
length of the trace.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import TraceError, UsageError

BASE_ALIGNMENT = 8

# analyze_trace caches the charges of at most this many distinct sizes,
# so that a trace of ever new sizes cannot grow its memory
_CACHED_SIZES = 1 << 16


@dataclass(frozen=True, slots=True)
class Alloc:
    id: int
    size: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class Free:
    id: int
    line: int = field(default=0, compare=False)


TraceEvent = Alloc | Free


@dataclass(frozen=True)
class OverheadRow:
    alignment: int
    peak_bytes: int
    overhead_pct: float
    tag_storage_bytes: float

    def to_json_dict(self) -> dict:
        return {
            "alignment": self.alignment,
            "peak_bytes": self.peak_bytes,
            "overhead_pct": self.overhead_pct,
            "tag_storage_bytes": self.tag_storage_bytes,
        }


@dataclass(frozen=True)
class OverheadReport:
    base_alignment: int
    base_peak_bytes: int
    rows: tuple[OverheadRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "base_alignment": self.base_alignment,
            "base_peak_bytes": self.base_peak_bytes,
            "rows": [row.to_json_dict() for row in self.rows],
        }

    def render(self) -> str:
        lines = [f"base alignment {self.base_alignment}: peak {self.base_peak_bytes} bytes"]
        for row in self.rows:
            lines.append(f"alignment={row.alignment} peak_bytes={row.peak_bytes}"
                         f" overhead_pct={row.overhead_pct:.4f}"
                         f" tag_storage_bytes={row.tag_storage_bytes:.2f}")
        return "\n".join(lines)


def _parse(chunks) -> Iterator[TraceEvent]:
    """Yield the events of ``chunks``, strings that each end at a line
    boundary (or at the end of the trace), numbering their
    ``splitlines()`` in order: exactly the lines of the whole text.

    This is the one parser of the grammar.  A line is an event only if
    it is ASCII, ``split(" ")`` gives exactly the right fields and every
    number is a run of digits.  Malformed lines and free/alloc misuse
    raise TraceError naming the offending line.
    """
    live: set[int] = set()
    line_no = 0
    for chunk in chunks:
        ascii_chunk = chunk.isascii()
        for line in chunk.splitlines():
            line_no += 1
            if not ascii_chunk and not line.isascii():
                # a trace file's non-ASCII bytes arrive as lone surrogates
                raw = line.encode("utf-8", "surrogateescape")
                raise TraceError(f"non-ASCII trace line {raw!r}", line=line_no)
            fields = line.split(" ")
            head = fields[0]
            try:
                if head == "a" and len(fields) == 3 and fields[1].isdigit() and fields[2].isdigit():
                    aid = int(fields[1])
                    if aid in live:
                        raise TraceError(f"allocation id {aid} is already live", line=line_no)
                    live.add(aid)
                    yield Alloc(aid, int(fields[2]), line_no)
                    continue
                if head == "f" and len(fields) == 2 and fields[1].isdigit():
                    aid = int(fields[1])
                    if aid not in live:
                        raise TraceError(f"free of unknown id {aid}", line=line_no)
                    live.remove(aid)
                    yield Free(aid, line_no)
                    continue
            except ValueError as exc:  # more digits than int() converts
                raise TraceError(str(exc), line=line_no) from None
            stripped = line.lstrip()
            if stripped and stripped[0] != "#":  # neither blank nor a comment
                raise TraceError(f"unrecognized trace line {line!r}", line=line_no)


def parse_trace(text: str) -> list[TraceEvent]:
    """Parse trace text; malformed lines and free/alloc misuse raise
    TraceError naming the offending line."""
    return list(_parse((text,)))


def load_trace(path) -> Iterator[TraceEvent]:
    """A one-pass iterator over the events of the trace file at ``path``.

    The file is opened now, so a missing file fails here.  It is parsed
    as it is read, so memory does not grow with its length, and errors
    in its lines are raised while iterating.  The file is closed at the
    end of the events, or when the iterator is closed or dropped.
    """
    blocks = _blocks(path)
    next(blocks)  # opens the file
    return _parse(blocks)


def _blocks(path, size: int = 1 << 16) -> Iterator[str]:
    """Open the trace file, yield "", then yield its text in blocks cut
    after their last newline, so that no line is split between two."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        yield ""
        tail = ""
        while block := fh.read(size):
            cut = block.rfind("\n") + 1
            if cut:
                yield tail + block[:cut]
                tail = block[cut:]
            else:
                tail += block
        if tail:
            yield tail


def _round_up(size: int, alignment: int) -> int:
    # every live allocation costs at least one alignment unit
    if size == 0:
        return alignment
    return -(-size // alignment) * alignment


def analyze_trace(events, alignments, ts: int) -> OverheadReport:
    """Replay ``events`` and report peak footprint per alignment.

    ``ts`` is the tag width used for the tag-storage column, charged at
    ts bits per alignment-sized granule of the peak footprint.  The
    8-byte base peak is always computed for the overhead comparison,
    whether or not 8 appears in ``alignments``.

    ``events`` (Alloc and Free instances) is iterated once, so it may be
    the iterator ``load_trace`` returns; the replay keeps one entry per
    live allocation.
    """
    alignments = list(alignments)
    if not alignments:
        raise UsageError("need at least one alignment")
    for a in alignments:
        if a < 1:
            raise UsageError(f"alignment must be >= 1, got {a}")
    if ts < 1:
        raise UsageError(f"tag width must be >= 1, got {ts}")

    tracked = sorted(set(alignments) | {BASE_ALIGNMENT})
    # a size's charge at each tracked alignment, computed once per size
    charges_by_size: dict[int, tuple[int, ...]] = {}
    live: dict[int, tuple[int, ...]] = {}
    current = [0] * len(tracked)
    peaks = [0] * len(tracked)
    for position, event in enumerate(events, start=1):
        kind = type(event)
        if kind is Alloc:
            if event.id in live:
                raise TraceError(f"allocation id {event.id} is already live",
                                 line=event.line or position)
            charges = charges_by_size.get(event.size)
            if charges is None:
                if len(charges_by_size) >= _CACHED_SIZES:
                    charges_by_size.clear()
                charges = tuple(_round_up(event.size, a) for a in tracked)
                charges_by_size[event.size] = charges
            live[event.id] = charges
            for i, c in enumerate(charges):
                c += current[i]
                current[i] = c
                if c > peaks[i]:
                    peaks[i] = c
        elif kind is Free:
            charges = live.pop(event.id, None)
            if charges is None:
                raise TraceError(f"free of unknown id {event.id}", line=event.line or position)
            for i, c in enumerate(charges):
                current[i] -= c
        else:
            raise TraceError(f"unknown trace event {event!r}", line=position)
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
