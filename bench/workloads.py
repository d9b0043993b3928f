"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the workload seed and splits its
work into ``blocks``: fixed inputs whose outputs are deterministic.
One pass runs one block.  The runner repeats blocks in turn and
compares every repeat with the first run of that block.

* probe-mix: ``tagsim probe`` through ``tagsim.cli.main``, every
  scenario kind under two configs.  Each trial builds a fresh
  Simulator, so construction, fresh-memory malloc, RNG draws, the tag
  check and fault reports dominate.
* heap-churn: one long-lived Simulator replays a seeded allocation
  trace with stores, load-backs and stale loads.  The allocator's
  placement, recycling and quarantine dominate.
* trace-overhead: ``tagsim overhead`` on a 1M-event trace file.  Only
  the trace parser and analyzer run; no simulator layer does.

A unit of work is one probe trial, one heap trace event or one
analyzed trace event.  Failures are counted in units.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback

import tracegen

SEED_STRIDE = 10**9  # seed s owns trial seeds [s * SEED_STRIDE, (s + 1) * SEED_STRIDE)

PROBE_KINDS = (
    "heap-use-after-free",
    "linear-overflow",
    "linear-underflow",
    "non-linear-overflow",
    "intra-granule-overflow",
    "use-after-return",
    "use-after-scope",
    "uninitialized-read",
)
PROBE_CONFIGS = (
    # A: the quarantine is off, so heap-use-after-free takes its reuse path
    ("A", ("--tg", "64", "--ts", "4")),
    # B: every precision and trap-mode option on
    ("B", ("--tg", "16", "--ts", "8", "--precision-ext", "--zero-on-tag",
           "--store-mode", "imprecise", "--quarantine", "4096")),
)
PROBE_TRIALS = 2500  # per (kind, config) in one block
PROBE_BLOCKS = 12

HEAP_EVENTS = 16_000
HEAP_LIVE = 2_000
HEAP_QUARANTINE = 64 * 1024  # bytes; small enough that frees evict
HEAP_STALE_EVERY = 4  # every 4th free is followed by a load through the dangling pointer

TRACE_EVENTS = 1_000_000
TRACE_LIVE = 20_000
TRACE_ALIGNMENTS = (8, 16, 32, 64)
TRACE_TS = 8  # the CLI default tag width, which prices tag storage

_MAX_ERRORS = 10


class Outcome:
    """What one pass did: units attempted and failed, the program's
    observable output, and the first few failure messages."""

    __slots__ = ("units", "failed", "output", "errors")

    def __init__(self, units: int):
        self.units = units
        self.failed = 0
        self.output = b""
        self.errors: list[str] = []

    def fail(self, units: int, message: str) -> None:
        self.failed = min(self.units, self.failed + units)
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(message)


class Workload:
    """Defaults for the workload interface: ``run_block(block, main)``
    runs one pass and returns its Outcome; ``prepare`` builds the check
    oracles after set-up; ``summary`` reads extra figures from the
    first output of every block."""

    blocks = 1

    def prepare(self) -> None:
        pass

    def summary(self, outputs: list[bytes]) -> dict:
        return {}


def call_cli(main, argv) -> tuple[int, str]:
    """Run the CLI in process; return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


# ----------------------------------------------------------------------
# probe-mix


def check_probe(rc: int, text: str, trials: int) -> list[tuple[int, str]]:
    """Failures in one ``probe`` run over PROBE_KINDS, as (units, message).

    Kinds whose theory is exactly 0 or 1 must detect exactly 0 or
    ``trials``; every report must carry the requested trial count and a
    rate equal to detections / trials.
    """
    everything = trials * len(PROBE_KINDS)
    if rc != 0:
        return [(everything, f"probe exited {rc}")]
    try:
        reports = json.loads(text)
    except ValueError as exc:
        return [(everything, f"probe printed no JSON: {exc}")]
    if [r.get("kind") for r in reports] != list(PROBE_KINDS):
        return [(everything, "probe reported other kinds than it was asked for")]
    failures = []
    for r in reports:
        kind, det, theo = r["kind"], r["detections"], r["theoretical"]
        if r["trials"] != trials or not 0 <= det <= trials or r["rate"] != det / trials:
            failures.append((trials, f"{kind}: inconsistent report {r}"))
        elif theo is None:
            failures.append((trials, f"{kind}: no theoretical rate"))
        elif theo == 0.0 and det != 0:
            failures.append((trials, f"{kind}: theory 0 but {det} detections"))
        elif theo == 1.0 and det != trials:
            failures.append((trials, f"{kind}: theory 1 but {det} of {trials} detected"))
    return failures


def theory_max_z(texts_by_config) -> float:
    """Largest |rate - theory| / sqrt(p(1-p)/trials) over the (kind,
    config) pairs whose theory lies strictly between 0 and 1, pooling
    each pair's trials over all blocks."""
    worst = 0.0
    for texts in texts_by_config:
        pooled: dict[str, list] = {}
        for text in texts:
            for r in json.loads(text):
                entry = pooled.setdefault(r["kind"], [0, 0, r["theoretical"]])
                entry[0] += r["detections"]
                entry[1] += r["trials"]
        for det, n, p in pooled.values():
            if p is not None and 0.0 < p < 1.0:
                worst = max(worst, abs(det / n - p) / math.sqrt(p * (1.0 - p) / n))
    return worst


class ProbeMix(Workload):
    name = "probe-mix"
    blocks = PROBE_BLOCKS

    def __init__(self, tagsim, seed: int, workdir):
        base = seed * SEED_STRIDE
        kinds = [arg for kind in PROBE_KINDS for arg in ("--kind", kind)]
        self.argvs = [
            [["probe", *kinds, "--trials", str(PROBE_TRIALS),
              "--seed", str(base + block * PROBE_TRIALS), *flags]
             for _, flags in PROBE_CONFIGS]
            for block in range(PROBE_BLOCKS)
        ]

    def run_block(self, block: int, main) -> Outcome:
        outcome = Outcome(PROBE_TRIALS * len(PROBE_KINDS) * len(PROBE_CONFIGS))
        texts = []
        for (label, _), argv in zip(PROBE_CONFIGS, self.argvs[block]):
            try:
                rc, text = call_cli(main, argv)
            except Exception:
                outcome.fail(PROBE_TRIALS * len(PROBE_KINDS),
                             f"config {label}: {traceback.format_exc()}")
                texts.append("")
                continue
            for units, message in check_probe(rc, text, PROBE_TRIALS):
                outcome.fail(units, f"config {label}: {message}")
            texts.append(text)
        outcome.output = "\x00".join(texts).encode()
        return outcome

    def summary(self, outputs: list[bytes]) -> dict:
        per_block = [out.decode().split("\x00") for out in outputs]
        try:
            return {"theory_max_z": theory_max_z(zip(*per_block))}
        except (ValueError, KeyError, TypeError):
            return {}  # a block printed no report; its check already failed


# ----------------------------------------------------------------------
# heap-churn

ALLOC, FREE = 0, 1
_M64 = (1 << 64) - 1


def heap_ops(seed: int, n_events: int, live_target: int):
    """The replay script for one trace: allocations carry the bytes to
    store at the chunk's tail, frees say whether a stale load follows."""
    ops = []
    frees = 0
    for aid, size in tracegen.events(seed, n_events, live_target):
        if size is None:
            frees += 1
            ops.append((FREE, aid, frees % HEAP_STALE_EVERY == 0))
        else:
            width = 8 if size >= 8 else 4 if size >= 4 else 2 if size >= 2 else 1 if size else 0
            payload = (((aid ^ seed) * 0x9E3779B97F4A7C15) & _M64).to_bytes(8, "little")
            ops.append((ALLOC, aid, size, size - width, payload[:width]))
    return ops


def analyzer_peak(tagsim, ops, cfg) -> int:
    """``analyze_trace``'s peak footprint of ``ops`` at alignment tg."""
    events = [tagsim.Alloc(op[1], op[2]) if op[0] == ALLOC else tagsim.Free(op[1])
              for op in ops]
    return tagsim.analyze_trace(events, [cfg.tg], ts=cfg.ts).rows[0].peak_bytes


def replay_heap(tagsim, cfg, seed: int, ops, oracle_peak: int, sim_class=None) -> Outcome:
    """Replay ``ops`` on a fresh Simulator and check every access.

    Each stale load must fault with tag-mismatch, no other access may
    fault, every load-back must return the stored bytes, and the heap's
    peak aligned footprint must equal ``oracle_peak``.
    """
    FaultError, TagMismatchError = tagsim.FaultError, tagsim.TagMismatchError
    mismatch, load_kind = tagsim.FaultKind.TAG_MISMATCH, tagsim.AccessKind.LOAD
    outcome = Outcome(len(ops))
    digest = hashlib.sha256()
    sim = (sim_class or tagsim.Simulator)(cfg, seed=seed)
    malloc, free, load, store = sim.malloc, sim.free, sim.load, sim.store
    ptrs = {}
    for op in ops:
        try:
            if op[0] == ALLOC:
                _, aid, size, offset, data = op
                ptr = malloc(size)
                ptrs[aid] = ptr
                if data:
                    store(ptr + offset, data)
                    got = load(ptr + offset, len(data))
                    if got != data:
                        outcome.fail(1, f"id {aid}: stored {data.hex()}, loaded {got.hex()}")
            else:
                _, aid, stale = op
                ptr = ptrs.pop(aid)
                free(ptr)
                if stale:
                    try:
                        load(ptr, 1)
                    except TagMismatchError as err:
                        report = err.report
                        digest.update(report.render().encode())
                        if report.kind is not mismatch or report.access is not load_kind:
                            outcome.fail(1, f"id {aid}: stale load gave {report.render()}")
                    else:
                        outcome.fail(1, f"id {aid}: stale load did not fault")
        except FaultError as err:
            outcome.fail(1, f"unexpected fault: {err.report.render()}")
        except Exception:
            outcome.fail(1, traceback.format_exc())
    stats = sim.heap.stats()
    digest.update(repr(stats).encode())
    if stats.peak_aligned_bytes != oracle_peak:
        outcome.fail(len(ops), f"heap peak {stats.peak_aligned_bytes} != trace peak {oracle_peak}")
    outcome.output = digest.hexdigest().encode()
    return outcome


class HeapChurn(Workload):
    name = "heap-churn"

    def __init__(self, tagsim, seed: int, workdir):
        self.tagsim = tagsim
        self.seed = seed
        self.cfg = tagsim.MtConfig(tg=16, ts=8, precision_ext=True,
                                   quarantine_capacity=HEAP_QUARANTINE)
        self.ops = heap_ops(seed, HEAP_EVENTS, HEAP_LIVE)
        self.oracle_peak = self.generator_peak = None

    def prepare(self) -> None:
        """The exact oracle: analyze_trace's peak at alignment tg.  The
        generator's own count must agree with it."""
        self.oracle_peak = analyzer_peak(self.tagsim, self.ops, self.cfg)
        tracker = tracegen.PeakTracker([self.cfg.tg])
        for op in self.ops:
            tracker.add(op[1], op[2] if op[0] == ALLOC else None)
        self.generator_peak = tracker.peak(self.cfg.tg)

    def run_block(self, block: int, main) -> Outcome:
        outcome = replay_heap(self.tagsim, self.cfg, self.seed, self.ops, self.oracle_peak)
        if self.generator_peak != self.oracle_peak:
            outcome.fail(outcome.units, f"analyze_trace peak {self.oracle_peak}"
                                        f" != generator peak {self.generator_peak}")
        return outcome


# ----------------------------------------------------------------------
# trace-overhead


def check_overhead(rc: int, text: str, peaks: dict[int, int]) -> list[str]:
    """Errors in one ``overhead`` run against the generator's peaks."""
    if rc != 0:
        return [f"overhead exited {rc}"]
    try:
        report = json.loads(text)
        base = report["base_peak_bytes"]
        rows = report["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"overhead printed no report: {exc}"]
    errors = []
    if base != peaks[8]:
        errors.append(f"base peak {base} != {peaks[8]}")
    if [row.get("alignment") for row in rows] != list(TRACE_ALIGNMENTS):
        return errors + ["overhead reported other alignments than it was asked for"]
    for row in rows:
        a, peak = row["alignment"], peaks[row["alignment"]]
        expected = {"alignment": a, "peak_bytes": peak,
                    "overhead_pct": (peak - peaks[8]) / peaks[8] * 100.0,
                    "tag_storage_bytes": peak * TRACE_TS / (8 * a)}
        if row != expected:
            errors.append(f"alignment {a}: {row} != {expected}")
    return errors


class TraceOverhead(Workload):
    name = "trace-overhead"

    def __init__(self, tagsim, seed: int, workdir):
        self.path = workdir / f"trace-{seed}.txt"
        tracker = tracegen.write_trace(self.path, seed, TRACE_EVENTS, TRACE_LIVE,
                                       TRACE_ALIGNMENTS)
        self.peaks = dict(zip(tracker.alignments, tracker.peaks))
        self.argv = ["overhead", str(self.path),
                     "--alignments", ",".join(map(str, TRACE_ALIGNMENTS))]

    def run_block(self, block: int, main) -> Outcome:
        outcome = Outcome(TRACE_EVENTS)
        try:
            rc, text = call_cli(main, self.argv)
        except Exception:
            outcome.fail(TRACE_EVENTS, traceback.format_exc())
            return outcome
        for message in check_overhead(rc, text, self.peaks):
            outcome.fail(TRACE_EVENTS, message)
        outcome.output = text.encode()
        return outcome


WORKLOADS = {cls.name: cls for cls in (ProbeMix, HeapChurn, TraceOverhead)}
