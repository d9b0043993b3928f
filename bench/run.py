"""tagsim benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload probe-mix --seed 1 --seconds 30 --trace 0

Run it from the root of a tagsim checkout; it imports tagsim from the
checkout's ``src`` and from nowhere else, and exits 2 without a result
when that is missing.

With ``--trace 0`` it times the workload untraced and reports the
end-to-end metrics: ``setup_s`` (CPU seconds to import tagsim and build
the inputs, median of several set-ups), ``ops_per_s`` (units of work
per CPU second, median over passes) and ``peak_rss_mb``.  With
``--trace 1`` it runs one untraced sample, then the same blocks with a
span at every layer boundary, and reports the per-layer metrics.

The last line of stdout is the result object.  The line before it
records provenance: host, CPU count, Python version, git sha, a digest
of the tagsim sources and a digest of the program's output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import socket
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3

# A span costs more in a real workload than in a tight loop, so where
# spans are dense its cost is measured in place: traced minus untraced
# time per unit, over spans per unit.  Where spans would take less than
# this share of the untraced time even at tight-loop cost, that
# difference is within run-to-run noise, and the tight-loop cost is used.
IN_PLACE_MIN_SHARE = 0.10

# Layer boundaries, named after tagsim's modules.
BOUNDARIES = (
    "cli.main",
    "detection.estimate", "detection.theory",
    "scenarios.run",
    "sim.init",
    "arena.malloc", "arena.free", "arena.find_owner",
    "stack.enter", "stack.exit", "stack.scope",
    "access.load", "access.store", "access.sync",
    "precision.check", "precision.mark",
    "tagspace.set_range",
    "memory.fill", "memory.read", "memory.write",
    "rng.draw",
    "traces.load", "traces.analyze",
)


# ----------------------------------------------------------------------
# host speed
#
# On a shared host the CPU time of the same work swings by a factor of
# up to two within seconds, as neighbours come and go.  While a section
# is measured, a SIGALRM timer interrupts it every SAMPLE_INTERVAL_S and
# the handler times a short pure-Python reference loop; the handler's
# own CPU time is taken out of the section's.  Every reported time is
# scaled by the section's mean speed, REFERENCE_NOMINAL_S over the
# reference loop's time, which puts it at the host's nominal speed.
# The raw CPU times and speeds go to the provenance line.

SAMPLE_INTERVAL_S = 0.05
REFERENCE_ITERATIONS = 1500
# CPU seconds of one reference loop at full speed on the host this
# benchmark was tuned on (2-vCPU Xeon VM, Python 3.11)
REFERENCE_NOMINAL_S = 0.0011


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def _reference_loop(n: int) -> int:
    # object allocation, attribute stores, dict updates and integer
    # arithmetic: the kind of interpreter work tagsim does
    table = {}
    head = None
    acc = 0
    for i in range(n):
        node = _Node(i & 1023, (i * 2654435761) & 0xFFFF, head)
        head = node if i & 15 else None
        table[node.key] = node
        acc ^= node.value + len(table)
    return acc


class SpeedSampler:
    """Samples host speed around and during one measured section.

    ``on_pause(ns)`` is told the wall time of every sample taken inside
    the section, so that a tracer can leave it out of its spans.
    """

    def __init__(self, on_pause=None):
        self.on_pause = on_pause
        self.speeds: list[float] = []
        self.handler_cpu = 0.0
        self._busy = False

    def _sample(self) -> None:
        t0 = time.process_time()
        _reference_loop(REFERENCE_ITERATIONS)
        self.speeds.append(REFERENCE_NOMINAL_S / (time.process_time() - t0))

    def _handler(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        w0, c0 = time.perf_counter_ns(), time.process_time()
        self._sample()
        self.handler_cpu += time.process_time() - c0
        if self.on_pause is not None:
            self.on_pause(time.perf_counter_ns() - w0)
        self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def speed(self) -> float:
        return statistics.mean(self.speeds)


def measured(fn, on_pause=None):
    """Run ``fn``; return (result, cpu_s, speed), with the sampler's own
    time taken out of ``cpu_s``."""
    sampler = SpeedSampler(on_pause)
    with sampler:
        c0 = time.process_time()
        result = fn()
        cpu = time.process_time() - c0
    return result, cpu - sampler.handler_cpu, sampler.speed()


# ----------------------------------------------------------------------
# set-up


def load_tagsim():
    """Import tagsim afresh from the checkout's src."""
    for name in [m for m in sys.modules if m == "tagsim" or m.startswith("tagsim.")]:
        del sys.modules[name]
    tagsim = importlib.import_module("tagsim")
    importlib.import_module("tagsim.cli")
    if Path(tagsim.__file__).resolve().parent != SRC / "tagsim":
        raise ImportError(f"tagsim imported from {tagsim.__file__}, not from {SRC}")
    return tagsim


def set_up(workload_cls, seed: int):
    """Import tagsim and build the inputs SETUP_REPEATS times; return
    (cpu_s, speed) of each set-up, the module and the last workload."""
    times = []
    tagsim = workload = None
    for _ in range(SETUP_REPEATS):
        workload = tagsim = None
        gc.collect()

        def build():
            tagsim = load_tagsim()
            return tagsim, workload_cls(tagsim, seed, WORKDIR)

        (tagsim, workload), cpu, speed = measured(build)
        times.append((cpu, speed))
    return times, tagsim, workload


# ----------------------------------------------------------------------
# passes


class Passes:
    """Runs blocks in turn, times each pass and checks repeats."""

    def __init__(self, workload):
        self.workload = workload
        self.outputs: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, main, budget_s: float, min_passes: int):
        """Run blocks in turn until ``budget_s`` wall seconds have gone by
        and at least ``min_passes`` are done; return each pass's timing."""
        timings = []
        start = time.perf_counter()
        while len(timings) < min_passes or time.perf_counter() - start < budget_s:
            timings.append(self.one(len(timings) % self.workload.blocks, main))
        return timings

    def one(self, block: int, main, tracer=None):
        """Run one pass of ``block``; return (units, cpu_s, speed).  A
        ``tracer`` is started and stopped around the pass and told to
        leave the speed samples out."""

        def one_pass():
            if tracer is not None:
                tracer.start()
            outcome = self.workload.run_block(block, main)
            if tracer is not None:
                tracer.stop()
            return outcome

        outcome, cpu, speed = measured(one_pass, tracer and tracer.exclude)
        first = self.outputs.setdefault(block, outcome.output)
        if outcome.output != first:
            outcome.fail(outcome.units, f"block {block}: output differs from its first run")
        self.attempted += outcome.units
        self.failed += outcome.failed
        self.errors.extend(outcome.errors[: max(0, 10 - len(self.errors))])
        return outcome.units, cpu, speed

    def output_digest(self) -> str:
        digest = hashlib.sha256()
        for block in sorted(self.outputs):
            digest.update(hashlib.sha256(self.outputs[block]).digest())
        return digest.hexdigest()


def ops_per_s(timings) -> float:
    """Median over passes of units per CPU second at nominal speed."""
    return statistics.median(units / cpu / speed for units, cpu, speed in timings)


# ----------------------------------------------------------------------
# tracing


class Counters:
    """Ratios read from the arguments and results of traced calls."""

    def __init__(self, addr_mask: int):
        self.addr_mask = addr_mask
        self.sim = None
        self.shadow_writes = 0
        self.heap = None
        self.high_water = 0
        self.reused = 0
        self.sync_reports = 0

    def on_sim(self, args, result) -> None:
        # a trial's writes are final once the next simulator is built
        self.finish()
        self.sim = args[0]

    def finish(self) -> None:
        if self.sim is not None:
            self.shadow_writes += self.sim.shadow.writes
            self.sim = None

    def on_malloc(self, args, result) -> None:
        heap, size = args[0], args[1]
        if heap is not self.heap:
            self.heap, self.high_water = heap, 0
        addr = result & self.addr_mask
        if addr < self.high_water:
            self.reused += 1
        tg = heap.cfg.tg
        self.high_water = max(self.high_water, addr + (max(size, 1) + tg - 1) // tg * tg)

    def on_sync(self, args, result) -> None:
        self.sync_reports += len(result)


def patches(tagsim, tracer, counters):
    """(owner, attribute, make_replacement) at each boundary's lookup site."""
    access, arena, cli, detection = tagsim.access, tagsim.arena, tagsim.cli, tagsim.detection

    def span(name, after=None):
        return lambda original: tracer.wrap(name, original, after)

    def runners(original):
        return lambda kind: tracer.wrap("scenarios.run", original(kind))

    return [
        (cli, "estimate_detection", span("detection.estimate")),
        (detection, "theoretical_detection", span("detection.theory")),
        (detection, "scenario_runner", runners),
        (tagsim.Simulator, "__init__", span("sim.init", counters.on_sim)),
        (tagsim.ArenaAllocator, "malloc", span("arena.malloc", counters.on_malloc)),
        (tagsim.ArenaAllocator, "free", span("arena.free")),
        (tagsim.ArenaAllocator, "find_owner", span("arena.find_owner")),
        (tagsim.StackTagger, "enter_frame", span("stack.enter")),
        (tagsim.StackTagger, "exit_frame", span("stack.exit")),
        (tagsim.StackTagger, "end_scope", span("stack.scope")),
        (tagsim.AccessEngine, "load", span("access.load")),
        (tagsim.AccessEngine, "store", span("access.store")),
        (tagsim.AccessEngine, "sync", span("access.sync", counters.on_sync)),
        (access, "partial_access_ok", span("precision.check")),
        (arena, "mark_partial", span("precision.mark")),
        (tagsim.ShadowStore, "set_range", span("tagspace.set_range")),
        (tagsim.SparseMemory, "fill", span("memory.fill")),
        (tagsim.SparseMemory, "read", span("memory.read")),
        (tagsim.SparseMemory, "write", span("memory.write")),
        (tagsim.rng.SplitMix64, "next_word", span("rng.draw")),
        (cli, "load_trace", span("traces.load")),
        (cli, "analyze_trace", span("traces.analyze")),
    ]


def layer_metrics(tagsim, passes: Passes, seconds: float):
    """Alternate untraced and traced passes of the same blocks until
    every block has run untraced and the traced passes have had about
    ``seconds / 2``; return the per-layer metrics and the pass timings.
    Alternating puts both sides in the same stretch of host speed."""
    workload = passes.workload
    tracer = tracing.Tracer(BOUNDARIES)
    counters = Counters(tagsim.ADDR_SPACE - 1)
    boundaries = patches(tagsim, tracer, counters)
    main = tracer.wrap("cli.main", tagsim.cli.main)
    untraced, traced = [], []
    traced_s = 0.0
    while len(untraced) < workload.blocks or traced_s < seconds / 2:
        block = len(untraced) % workload.blocks
        untraced.append(passes.one(block, tagsim.cli.main))
        if traced_s < seconds / 2:
            t0 = time.perf_counter()
            with tracer.installed(boundaries):
                traced.append(passes.one(block, main, tracer))
            traced_s += time.perf_counter() - t0
    counters.finish()

    # ns per unit at nominal host speed, like ops_per_s
    units = sum(t[0] for t in traced)
    speed = statistics.mean(t[2] for t in traced)
    paired = untraced[: len(traced)]
    untraced_ns = sum(cpu * s for _, cpu, s in paired) / sum(t[0] for t in paired) * 1e9
    traced_ns = sum(tracer.self_ns) * speed / units
    spans_per_unit = sum(tracer.calls) / units
    (tight_ns, in_share), _, tight_speed = measured(tracer.calibrate)
    tight_ns *= tight_speed
    if spans_per_unit * tight_ns >= IN_PLACE_MIN_SHARE * untraced_ns:
        span_ns = (traced_ns - untraced_ns) / spans_per_unit
    else:
        span_ns = tight_ns
    tracer.set_span_cost(span_ns / speed, in_share)
    calibrated = [ns * speed / units for ns in tracer.calibrated_self_ns()]
    layers = calibrated[: tracer.root]

    metrics = {}
    for i, name in enumerate(BOUNDARIES):
        metrics[f"{name}.calls"] = (tracer.calls[i] / units, "calls/op")
        metrics[f"{name}.us"] = (layers[i] / 1e3, "us/op")
    at = BOUNDARIES.index
    checks = tracer.calls[at("access.load")] + tracer.calls[at("access.store")]
    faults = (tracer.raised[at("access.load")] + tracer.raised[at("access.store")]
              + counters.sync_reports)
    mallocs = tracer.calls[at("arena.malloc")]
    metrics["tagspace.writes_per_op"] = (counters.shadow_writes / units, "writes/op")
    metrics["access.fault_share"] = (faults / checks if checks else 0.0, "ratio")
    metrics["arena.reuse_share"] = (counters.reused / mallocs if mallocs else 0.0, "ratio")
    metrics["trace.overhead_pct"] = ((traced_ns / untraced_ns - 1.0) * 100.0, "%")
    metrics["trace.coverage_pct"] = (sum(tracer.self_ns[: tracer.root]) / sum(tracer.self_ns)
                                     * 100.0, "%")
    metrics["trace.calibrated_pct"] = (sum(layers) / untraced_ns * 100.0, "%")
    metrics["trace.span_ns"] = (span_ns, "ns")
    return metrics, untraced + traced


# ----------------------------------------------------------------------
# provenance


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tagsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tagsim" / "__init__.py").is_file():
        print(f"bench: no tagsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    workload_cls = workloads.WORKLOADS[args.workload]
    try:
        setups, tagsim, workload = set_up(workload_cls, args.seed)
        workload.prepare()
        passes = Passes(workload)
        if args.trace:
            metrics, timings = layer_metrics(tagsim, passes, args.seconds)
        else:
            timings = passes.run(tagsim.cli.main, args.seconds, workload.blocks)
            metrics = {
                "setup_s": (statistics.median(cpu * speed for cpu, speed in setups), "s"),
                "ops_per_s": (ops_per_s(timings), "ops/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        summary = workload.summary([passes.outputs[b] for b in sorted(passes.outputs)])
    finally:
        (WORKDIR / f"trace-{args.seed}.txt").unlink(missing_ok=True)
    if args.trace:
        metrics["theory_max_z"] = (summary.get("theory_max_z", 0.0), "sigma")
        metrics["error_share"] = (passes.failed / passes.attempted, "ratio")

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": socket.gethostname(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_sha": git_sha(),
        "src_sha256": src_digest(), "program_output_sha256": passes.output_digest(),
        "setup_cpu_s": [cpu for cpu, _ in setups], "setup_speed": [s for _, s in setups],
        "pass_units": [t[0] for t in timings], "pass_cpu_s": [t[1] for t in timings],
        "pass_speed": [t[2] for t in timings], "errors": passes.errors, **summary,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
