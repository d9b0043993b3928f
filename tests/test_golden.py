"""Golden CLI outputs: a fixed list of invocations whose exit code,
stdout and stderr must stay byte-identical.

Each line of golden_cli.txt is the sha256 of one invocation's
``rc NUL stdout NUL stderr`` followed by its argument list.  A refactor
that is meant to keep every output the same must leave that file as it
is.  To compare without pytest, on any Python the package runs on:

    PYTHONPATH=src python tests/test_golden.py --check

which exits 1 and lists the commands whose output changed.  Where an
output is meant to change, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py --write

and say in the change which lines moved and why.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import shlex
import sys

from tagsim.cli import main
from tagsim.scenarios import ScenarioKind

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.txt"

# each config flag and each policy appears at least once, at tg 16, 32 and 64
_PROBE_CONFIGS = [
    [],
    ["--tg", "64", "--ts", "4", "--policy", "adjacent-distinct"],
    ["--tg", "16", "--ts", "8", "--policy", "sampled", "--sampling-rate", "0.5",
     "--zero-on-tag"],
    ["--tg", "32", "--ts", "4", "--precision-ext", "--store-mode", "imprecise"],
    ["--tg", "64", "--ts", "4", "--policy", "adjacent-distinct", "--precision-ext",
     "--quarantine", "4096"],
    ["--tg", "16", "--ts", "4", "--policy", "sampled", "--zero-on-tag",
     "--store-mode", "imprecise"],
]

_SIMULATE_CONFIGS = [
    [],
    ["--policy", "adjacent-distinct", "--precision-ext", "--zero-on-tag"],
    ["--policy", "sampled", "--sampling-rate", "0.5", "--store-mode", "imprecise",
     "--quarantine", "64", "--format", "json"],
]

_TG = 16  # the simulate configs' granule size

# each bad trace ends on a line that `overhead` refuses
_BAD_TRACES = ["double-free", "unknown-free", "non-ascii", "malformed", "reused-id"]


def invocations() -> list[list[str]]:
    kinds = [kind.value for kind in ScenarioKind]
    every_kind = [arg for kind in kinds for arg in ("--kind", kind)]
    runs = []
    for config in _PROBE_CONFIGS:
        for fmt in ("plain", "json"):
            runs.append(["probe", *every_kind, "--trials", "200", "--seed", "5",
                         *config, "--format", fmt])
    for config in _SIMULATE_CONFIGS:
        for kind in kinds:
            for seed in range(4):
                for size in (0, 1, _TG - 2, _TG - 1, _TG, _TG + 1):
                    runs.append(["simulate", kind, "--seed", str(seed), "--size", str(size),
                                 *config])
        for seed in range(4):
            runs.append(["simulate", "heap-use-after-free", "--seed", str(seed),
                         "--reuse-depth", "3", *config])
        for kind in ("linear-overflow", "linear-underflow"):
            for size in (0, 1, _TG - 1, _TG + 1):
                runs.append(["simulate", kind, "--size", str(size), "--offset", str(_TG - 1),
                             *config])
    for fmt in ("plain", "json"):
        runs.append(["overhead", "traces/tiny.txt", "--alignments", "8,16,32,64",
                     "--format", fmt])
    for name in _BAD_TRACES:
        runs.append(["overhead", f"tests/bad_traces/{name}.txt", "--alignments", "8,16"])
    return runs


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    blob = f"{rc}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _current() -> dict[str, str]:
    return {shlex.join(argv): _digest(argv) for argv in invocations()}


def _golden() -> dict[str, str]:
    lines = GOLDEN.read_text().splitlines()
    return {cmd: digest for digest, cmd in (line.split(" ", 1) for line in lines)}


def test_cli_outputs_match_golden_file(monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = _golden()
    current = _current()
    assert list(current) == list(golden)
    changed = [cmd for cmd, digest in current.items() if golden[cmd] != digest]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} --write | --check")
    os.chdir(ROOT)
    if sys.argv[1] == "--write":
        GOLDEN.write_text("".join(f"{digest} {cmd}\n" for cmd, digest in _current().items()))
    else:
        golden, current = _golden(), _current()
        # a command listed on one side only counts as changed
        changed = [cmd for cmd in dict.fromkeys([*golden, *current])
                   if golden.get(cmd) != current.get(cmd)]
        print("\n".join(changed) or f"all {len(golden)} outputs match {GOLDEN.name}")
        sys.exit(1 if changed else 0)
