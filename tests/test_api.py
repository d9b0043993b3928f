"""The package's public surface: its exports, the names the benchmark
patches, and the README's Python examples and CLI lines."""

import contextlib
import io
import json
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import tagsim
from tagsim.cli import main
from tagsim.rng import SplitMix64

ROOT = pathlib.Path(__file__).resolve().parent.parent

# 25 names: the five layer classes that Simulator wires (AccessEngine,
# ArenaAllocator, ShadowStore, SparseMemory, StackTagger) are internal,
# importable from their modules like every other internal name
PUBLIC = [
    "ADDR_SPACE", "AccessKind", "Alloc", "AllocationError", "DoubleFreeError",
    "FaultError", "FaultKind", "Free", "InvalidFreeError", "MtConfig",
    "PolicyKind", "Scenario", "ScenarioKind", "Simulator",
    "StoreMode", "TagMismatchError", "TagPolicy", "TagSimError", "TraceError",
    "UsageError", "analyze_trace", "estimate_detection", "load_trace",
    "run_scenario", "theoretical_detection",
]


def test_all_is_the_pinned_public_surface():
    assert len(PUBLIC) == 25
    assert sorted(tagsim.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(tagsim, name) is not None, name


def test_every_exception_class_is_exported():
    from tagsim import errors

    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__ == errors.__name__}
    assert classes <= set(tagsim.__all__)


# Builds bench/run.py's patch list on a tagsim imported afresh in its own
# process, so the re-import cannot disturb the classes other tests hold.
_PATCH_TARGETS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_run", "bench/run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
sys.path.insert(0, str(run.SRC))
tagsim = run.load_tagsim()
boundaries = run.patches(tagsim, run.tracing.Tracer(run.BOUNDARIES),
                         run.Counters(tagsim.ADDR_SPACE - 1))
print(json.dumps([[getattr(owner, "__name__", repr(owner)), attr, hasattr(owner, attr)]
                  for owner, attr, _ in boundaries]))
"""


def test_benchmark_patch_targets_exist():
    proc = subprocess.run([sys.executable, "-c", _PATCH_TARGETS], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    targets = json.loads(proc.stdout)
    assert len(targets) == 22
    assert [t[:2] for t in targets if not t[2]] == []


def _readme_python_blocks():
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_readme_python_blocks_print_what_they_show():
    blocks = _readme_python_blocks()
    assert len(blocks) == 2
    for block in blocks:
        shown = {line.strip()[2:] for line in block.splitlines()
                 if line.strip().startswith("# ")}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        printed = out.getvalue().splitlines()
        assert printed
        for line in printed:
            assert line in shown, line


def _readme_cli_runs():
    """(argv, exit code, shown lines) for each `tagsim` line of the
    README's CLI block that states an exit code or shows output.  Shown
    lines follow their command; a comment after a blank line describes
    the next command and may state its exit code ("exits 1")."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"\n## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    runs, stated, current = [], None, None
    for line in block.splitlines():
        if line.startswith("tagsim "):
            command, _, note = line.partition("#")
            code = re.search(r"\bexits? (\d)\b", note)
            current = [shlex.split(command)[1:], int(code.group(1)) if code else stated, []]
            runs.append(current)
            stated = None
        elif not line.strip():
            current = None
        elif current is not None:
            current[2].append(line.removeprefix("# "))
        else:
            code = re.search(r"\bexits? (\d)\b", line)
            stated = int(code.group(1)) if code else stated
    return [(argv, 0 if code is None else code, shown) for argv, code, shown in runs
            if code is not None or shown]


def _shown_pattern(shown: str) -> str:
    """`...` and `..` stand for any run of non-blank characters."""
    return "".join(r"\S+" if part in ("..", "...") else re.escape(part)
                   for part in re.split(r"(\.{2,3})", shown))


def test_readme_cli_lines_exit_and_print_what_they_show(monkeypatch):
    monkeypatch.chdir(ROOT)
    runs = _readme_cli_runs()
    assert len(runs) == 4
    for argv, code, shown in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == code, argv
        printed = out.getvalue().splitlines() if shown else []
        assert len(printed) == len(shown), argv
        for line, expected in zip(printed, shown):
            assert re.fullmatch(_shown_pattern(expected), line), (argv, line)


def test_facade_hands_out_its_parts_bound_methods():
    sim = tagsim.Simulator()
    for name in ("malloc", "free"):
        assert getattr(sim, name).__self__ is sim.heap, name
    for name in ("load", "store", "sync", "check_user_range"):
        assert getattr(sim, name).__self__ is sim.engine, name


def test_facade_sees_class_level_patches_made_after_construction(monkeypatch):
    # the benchmark's tracer patches these class attributes, and a caller
    # that reads sim.malloc afterwards must reach the patched method
    sim = tagsim.Simulator()
    monkeypatch.setattr(tagsim.arena.ArenaAllocator, "malloc", lambda heap, size: ("malloc", size))
    monkeypatch.setattr(tagsim.access.AccessEngine, "load",
                        lambda engine, word, width=1: ("load", word))
    assert sim.malloc(24) == ("malloc", 24)
    assert sim.load(0x40) == ("load", 0x40)


# Installs bench/run.py's patches with a real Tracer, in its own process
# like _PATCH_TARGETS, and runs a short heap replay and a short probe
# through them; prints the calls each boundary recorded.
_TRACED_CALLS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_run", "bench/run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
sys.path.insert(0, str(run.SRC))
tagsim = run.load_tagsim()
workloads = run.workloads
tracer = run.tracing.Tracer(run.BOUNDARIES)
boundaries = run.patches(tagsim, tracer, run.Counters(tagsim.ADDR_SPACE - 1))
main = tracer.wrap("cli.main", tagsim.cli.main)
cfg = tagsim.MtConfig(tg=16, ts=8, precision_ext=True, quarantine_capacity=1024)
ops = workloads.heap_ops(5, 300, 40)
peak = workloads.analyzer_peak(tagsim, ops, cfg)
kinds = [arg for kind in workloads.PROBE_KINDS for arg in ("--kind", kind)]
failed = []
with tracer.installed(boundaries):
    tracer.start()
    outcome = workloads.replay_heap(tagsim, cfg, 5, ops, peak)
    failed += outcome.errors
    tagsim.Simulator(cfg).sync()  # no workload drains deferred stores
    for label, flags in workloads.PROBE_CONFIGS:
        rc, text = workloads.call_cli(main, ["probe", *kinds, "--trials", "12", *flags])
        failed += [message for _, message in workloads.check_probe(rc, text, 12)]
    tracer.stop()
print(json.dumps({"failed": failed, "calls": dict(zip(run.BOUNDARIES, tracer.calls))}))
"""


def test_every_simulator_boundary_fires_under_the_benchmark_tracer():
    proc = subprocess.run([sys.executable, "-c", _TRACED_CALLS], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["failed"] == []
    silent = [name for name, calls in result["calls"].items()
              if calls == 0 and not name.startswith("traces.")]
    assert silent == []


# Refusals that public calls reach and no other test did: each raises
# its own error type with its own message.
def _end_scope(index):
    stack = tagsim.Simulator().stack
    stack.end_scope(stack.enter_frame([4, 4]), index)


def _local_ptr(index):
    return tagsim.Simulator().stack.enter_frame([4]).local_ptr(index)


_REFUSALS = {
    "store-wraps-the-address-space": (
        tagsim.UsageError, "access wraps the address space",
        lambda: tagsim.Simulator().store(tagsim.ADDR_SPACE - 1, b"ab")),
    "range-wraps-the-address-space": (
        tagsim.UsageError, "range wraps the address space",
        lambda: tagsim.Simulator().check_user_range(tagsim.ADDR_SPACE - 1, 2)),
    "store-mode-not-a-StoreMode": (
        tagsim.UsageError, "store_mode must be a StoreMode, got 'precise'",
        lambda: tagsim.MtConfig(store_mode="precise")),
    "malloc-size-a-bool": (
        tagsim.UsageError, "size must be an int, got True",
        lambda: tagsim.Simulator().malloc(True)),
    "malloc-size-a-float": (
        tagsim.UsageError, "size must be an int, got 4.0",
        lambda: tagsim.Simulator().malloc(4.0)),
    "load-width-a-float": (
        tagsim.UsageError, "load width must be one of (1, 2, 4, 8), got 1.0",
        lambda: tagsim.Simulator().load(0x40, 1.0)),
    "load-width-a-bool": (
        tagsim.UsageError, "load width must be one of (1, 2, 4, 8), got True",
        lambda: tagsim.Simulator().load(0x40, True)),
    "free-word-a-float": (
        tagsim.UsageError, "word must be an int, got 64.0",
        lambda: tagsim.Simulator().free(64.0)),
    "load-word-a-float": (
        tagsim.UsageError, "word must be an int, got 64.0",
        lambda: tagsim.Simulator().load(64.0)),
    "load-word-a-bool": (
        tagsim.UsageError, "word must be an int, got True",
        lambda: tagsim.Simulator().load(True)),
    "store-word-a-float": (
        tagsim.UsageError, "word must be an int, got 64.0",
        lambda: tagsim.Simulator().store(64.0, b"a")),
    "store-data-a-str": (
        tagsim.UsageError, "data must be a bytes, got 'ab'",
        lambda: tagsim.Simulator().store(0x40, "ab")),
    "range-word-a-float": (
        tagsim.UsageError, "word must be an int, got 64.0",
        lambda: tagsim.Simulator().check_user_range(64.0, 1)),
    "range-length-a-float": (
        tagsim.UsageError, "length must be an int, got 1.0",
        lambda: tagsim.Simulator().check_user_range(0x40, 1.0)),
    "simulator-policy-a-str": (
        tagsim.UsageError, "policy must be a TagPolicy, got 'random'",
        lambda: tagsim.Simulator(policy="random")),
    "theory-policy-a-str": (
        tagsim.UsageError, "policy must be a TagPolicy, got 'random'",
        lambda: tagsim.theoretical_detection(tagsim.ScenarioKind.LINEAR_OVERFLOW,
                                             tagsim.MtConfig(), policy="random")),
    "local-size-a-float": (
        tagsim.UsageError, "local size must be an int, got 4.0",
        lambda: tagsim.Simulator().stack.enter_frame([4.0])),
    "local-size-a-bool": (
        tagsim.UsageError, "local size must be an int, got True",
        lambda: tagsim.Simulator().stack.enter_frame([True])),
    "negative-local-size": (
        tagsim.UsageError, "local size must be >= 0, got -1",
        lambda: tagsim.Simulator().stack.enter_frame([-1])),
    "local-sizes-an-int": (
        tagsim.UsageError, "local_sizes must be a list or tuple, got 5",
        lambda: tagsim.Simulator().stack.enter_frame(5)),
    "scope-index-a-float": (
        tagsim.UsageError, "index must be an int, got 0.0",
        lambda: _end_scope(0.0)),
    "scope-index-a-bool": (
        tagsim.UsageError, "index must be an int, got True",
        lambda: _end_scope(True)),
    "simulator-cfg-a-str": (
        tagsim.UsageError, "cfg must be a MtConfig, got 'x'",
        lambda: tagsim.Simulator("x")),
    "estimate-cfg-none": (
        tagsim.UsageError, "cfg must be a MtConfig, got None",
        lambda: tagsim.estimate_detection(tagsim.ScenarioKind.LINEAR_OVERFLOW, None, 10)),
    "theory-cfg-a-list": (
        tagsim.UsageError, "cfg must be a MtConfig, got [1]",
        lambda: tagsim.theoretical_detection(tagsim.ScenarioKind.LINEAR_OVERFLOW, [1])),
    "scenario-cfg-a-str": (
        tagsim.UsageError, "cfg must be a MtConfig, got 'x'",
        lambda: tagsim.run_scenario(tagsim.Scenario(tagsim.ScenarioKind.LINEAR_OVERFLOW), "x")),
    "scenario-reuse-depth-on-linear-overflow": (
        tagsim.UsageError, "reuse_depth does not apply to scenario linear-overflow",
        lambda: tagsim.Scenario(tagsim.ScenarioKind.LINEAR_OVERFLOW, reuse_depth=3)),
    "scenario-offset-on-heap-use-after-free": (
        tagsim.UsageError, "offset does not apply to scenario heap-use-after-free",
        lambda: tagsim.Scenario(tagsim.ScenarioKind.HEAP_USE_AFTER_FREE, offset=3)),
    "scenario-a-str": (
        tagsim.UsageError, "scenario must be a Scenario, got 'x'",
        lambda: tagsim.run_scenario("x", tagsim.MtConfig())),
    "scope-frame-a-str": (
        tagsim.UsageError, "frame must be a Frame, got 'x'",
        lambda: tagsim.Simulator().stack.end_scope("x", 0)),
    "local-index-past-the-slots": (
        tagsim.UsageError, "no local slot 5 in this frame",
        lambda: _local_ptr(5)),
    "local-index-negative": (
        tagsim.UsageError, "no local slot -1 in this frame",
        lambda: _local_ptr(-1)),
    "local-index-a-float": (
        tagsim.UsageError, "index must be an int, got 0.0",
        lambda: _local_ptr(0.0)),
    "local-index-a-bool": (
        tagsim.UsageError, "index must be an int, got False",
        lambda: _local_ptr(False)),
    "scenario-reuse-depth-0-on-linear-overflow": (
        tagsim.UsageError, "reuse_depth does not apply to scenario linear-overflow",
        lambda: tagsim.Scenario(tagsim.ScenarioKind.LINEAR_OVERFLOW, reuse_depth=0)),
    "analyze-events-a-str": (
        tagsim.TraceError, "line 1: unknown trace event '4'",
        lambda: tagsim.analyze_trace("4", [16], 8)),
    "analyze-events-of-ints": (
        tagsim.TraceError, "line 1: unknown trace event 4",
        lambda: tagsim.analyze_trace([4], [16], 8)),
    "analyze-alignments-a-str": (
        tagsim.UsageError, "alignments must be an iterable of ints, got '16'",
        lambda: tagsim.analyze_trace([], "16", 8)),
    "analyze-alignments-bytes": (
        tagsim.UsageError, "alignments must be an iterable of ints, got b'16'",
        lambda: tagsim.analyze_trace([], b"16", 8)),
    "randrange-0": (ValueError, "empty range for randrange(0)",
                    lambda: SplitMix64(0).randrange(0)),
    "choice-of-nothing": (ValueError, "cannot choose from an empty sequence",
                          lambda: SplitMix64(0).choice(())),
}

# ROADMAP item 2's boundary gate, with tests/test_harness.py::_INT_PARAMETERS
# (every int parameter) and _SCENARIO_REFUSALS (Scenario's int fields): each
# other parameter of a public entry refuses each of these values that is not
# of its type.  Of the facade's methods only sync() takes no parameter.
_WRONG_VALUES = (4.0, "4", None, True, [4])


def _cross(entry, call, message, error=tagsim.UsageError, takes=()):
    """The _REFUSALS rows of call(value) for each wrong value but those it ``takes``."""
    return {f"{entry}-{value!r}": (error, message(value), lambda value=value: call(value))
            for value in _WRONG_VALUES if value not in takes}


def _must_be(name, type_name):
    return lambda value: f"{name} must be a {type_name}, got {value!r}"


def _kind_refusal(value):
    if isinstance(value, str):  # a str is a kind's name, perhaps misspelt
        return f"unknown scenario kind {value!r}"
    return f"kind must be a ScenarioKind, got {value!r}"


def _trace_line(line):
    return lambda value: f"line 1: unrecognized trace line {line.format(value)!r}"


_KIND = tagsim.ScenarioKind.LINEAR_OVERFLOW
_REFUSALS |= {
    **_cross("simulator-cfg", tagsim.Simulator, _must_be("cfg", "MtConfig")),
    **_cross("simulator-policy", lambda v: tagsim.Simulator(policy=v),
             _must_be("policy", "TagPolicy")),
    **_cross("load-width", lambda v: tagsim.Simulator().load(0x40, v),
             lambda v: f"load width must be one of (1, 2, 4, 8), got {v!r}"),
    **_cross("store-data", lambda v: tagsim.Simulator().store(0x40, v),
             _must_be("data", "bytes")),
    **_cross("local-sizes", lambda v: tagsim.Simulator().stack.enter_frame(v),
             lambda v: f"local_sizes must be a list or tuple, got {v!r}", takes=([4],)),
    **_cross("exit-frame", lambda v: tagsim.Simulator().stack.exit_frame(v),
             lambda v: "frame exits must be LIFO; this frame is not on top"),
    **_cross("scope-frame", lambda v: tagsim.Simulator().stack.end_scope(v, 0),
             _must_be("frame", "Frame")),
    **_cross("config-store-mode", lambda v: tagsim.MtConfig(store_mode=v),
             _must_be("store_mode", "StoreMode")),
    **_cross("policy-kind", tagsim.TagPolicy, lambda v: f"unknown tag policy {v!r}"),
    "policy-rate-out-of-range": (tagsim.UsageError, "sampling rate must be in [0, 1], got 4.0",
                                 lambda: tagsim.TagPolicy.sampled(4.0)),
    **_cross("policy-rate", tagsim.TagPolicy.sampled,
             lambda v: f"sampling rate must be a number, got {v!r}", takes=(4.0,)),
    **_cross("scenario-kind", tagsim.Scenario, _kind_refusal),
    **_cross("scenario-policy", lambda v: tagsim.Scenario(_KIND, policy=v),
             _must_be("policy", "TagPolicy")),
    **_cross("run-scenario", lambda v: tagsim.run_scenario(v, tagsim.MtConfig()),
             _must_be("scenario", "Scenario")),
    **_cross("run-scenario-cfg", lambda v: tagsim.run_scenario(tagsim.Scenario(_KIND), v),
             _must_be("cfg", "MtConfig")),
    **_cross("estimate-kind", lambda v: tagsim.estimate_detection(v, tagsim.MtConfig(), 3),
             _kind_refusal),
    **_cross("estimate-cfg", lambda v: tagsim.estimate_detection(_KIND, v, 3),
             _must_be("cfg", "MtConfig")),
    **_cross("estimate-policy", lambda v: tagsim.estimate_detection(
        _KIND, tagsim.MtConfig(), 3, policy=v), _must_be("policy", "TagPolicy")),
    **_cross("theory-kind", lambda v: tagsim.theoretical_detection(v, tagsim.MtConfig()),
             _kind_refusal),
    **_cross("theory-cfg", lambda v: tagsim.theoretical_detection(_KIND, v),
             _must_be("cfg", "MtConfig")),
    **_cross("theory-policy", lambda v: tagsim.theoretical_detection(
        _KIND, tagsim.MtConfig(), v), _must_be("policy", "TagPolicy")),
    # a str or list of events is iterable: its items are refused as events above
    **_cross("analyze-events", lambda v: tagsim.analyze_trace(v, [16], 8),
             lambda v: f"events must be iterable, got {v!r}", takes=("4", [4])),
    # a str or bytes is iterable, but of characters or byte values
    **_cross("analyze-alignments", lambda v: tagsim.analyze_trace([], v, 8),
             lambda v: (f"alignments must be an iterable of ints, got {v!r}"
                        if isinstance(v, str) else f"alignments must be iterable, got {v!r}"),
             takes=([4],)),
    # "4" names a file, and a missing one is an OSError
    **_cross("trace-path", tagsim.load_trace,
             lambda v: f"path must be a str, bytes or os.PathLike, got {v!r}", takes=("4",)),
    # an event's id or size is checked as the trace line it writes
    **_cross("alloc-id", lambda v: tagsim.analyze_trace([tagsim.Alloc(v, 8)], [16], 8),
             _trace_line("a {!r} 8"), error=tagsim.TraceError),
    **_cross("alloc-size", lambda v: tagsim.analyze_trace([tagsim.Alloc(1, v)], [16], 8),
             _trace_line("a 1 {!r}"), error=tagsim.TraceError),
    **_cross("free-id", lambda v: tagsim.analyze_trace([tagsim.Free(v)], [16], 8),
             _trace_line("f {!r}"), error=tagsim.TraceError),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_each_refusal_raises_its_message(case):
    error, message, call = _REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_a_simulator_without_a_config_takes_the_default():
    assert tagsim.Simulator().cfg == tagsim.MtConfig()  # Simulator(None) is refused
