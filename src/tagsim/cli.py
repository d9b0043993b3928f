"""Command line front end.

    tagsim probe     [config flags] [--kind ...]       detection-rate matrix
    tagsim simulate  <scenario> [config flags]         run one scenario verbosely
    tagsim overhead  <trace> --alignments 8,16,32,64   trace RAM analysis

Exit codes: 0 success; 1 when `simulate` detects its injected bug (so
shell scripts can assert detection); 2 for usage or input errors; 141
(128 + SIGPIPE), with nothing on stderr, when the reader of stdout
closes it early, as `| head -1` does.
JSON output is deterministic: identical arguments and seed produce
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .arena import PolicyKind, TagPolicy
from .detection import estimate_detection
from .errors import AllocationError, TraceError, UsageError
from .scenarios import Scenario, ScenarioKind, run_scenario
from .tagspace import MtConfig, StoreMode
from .traces import analyze_trace, load_trace

_PROBE_DEFAULT_KINDS = (ScenarioKind.HEAP_USE_AFTER_FREE, ScenarioKind.NON_LINEAR_OVERFLOW)

_KIND_ALIASES = {"intra-granule": ScenarioKind.INTRA_GRANULE_OVERFLOW}

def _ascii(kind, form: str):
    """The argparse type of a finite ``kind`` written in ASCII as ``form``:
    int() and float() also take "+", "_", spaces and other scripts'
    digits, and float() reads "1e400" as inf."""
    def parse(text: str):
        if re.fullmatch(form, text):
            value = kind(text)
            if kind is int or math.isfinite(value):
                return value
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")
    parse.__name__ = kind.__name__  # argparse names a ValueError of int() after it
    return parse


_int = _ascii(int, "-?[0-9]+")
_float = _ascii(float, r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")


def _kind_names() -> list[str]:
    return [k.value for k in ScenarioKind] + sorted(_KIND_ALIASES)


def _parse_kind(name: str) -> ScenarioKind:
    # argparse's choices have already refused a name that is neither
    return _KIND_ALIASES.get(name) or ScenarioKind(name)


def _add_ts_and_format(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--ts", type=_int, default=8, help="tag width in bits")
    sub.add_argument("--format", choices=["plain", "json"], default=default_format)


def _add_config_flags(sub: argparse.ArgumentParser, default_format: str) -> None:
    _add_ts_and_format(sub, default_format)
    sub.add_argument("--tg", type=_int, default=16, help="granule size in bytes")
    sub.add_argument("--policy", choices=[k.value for k in PolicyKind],
                     default=PolicyKind.RANDOM.value, help="tag assignment policy")
    sub.add_argument("--seed", type=_int, default=0)
    sub.add_argument("--precision-ext", action="store_true",
                     help="byte-precise checking of partial final granules")
    sub.add_argument("--zero-on-tag", action="store_true",
                     help="zero memory while tagging it")
    sub.add_argument("--store-mode", choices=[m.value for m in StoreMode],
                     default=StoreMode.PRECISE.value)
    sub.add_argument("--quarantine", type=_int, default=0, metavar="BYTES",
                     help="free-quarantine byte budget (0 disables)")
    sub.add_argument("--sampling-rate", type=_float, default=None,
                     help="tag probability under --policy sampled (default 1.0)")


def _config_from(args) -> MtConfig:
    return MtConfig(
        tg=args.tg,
        ts=args.ts,
        zero_on_tag=args.zero_on_tag,
        precision_ext=args.precision_ext,
        store_mode=StoreMode(args.store_mode),
        quarantine_capacity=args.quarantine,
    )


def _policy_from(args) -> TagPolicy:
    kind = PolicyKind(args.policy)
    if kind is PolicyKind.SAMPLED:
        return TagPolicy.sampled(1.0 if args.sampling_rate is None else args.sampling_rate)
    # TagPolicy's rate defaults to 1.0, so only here is an explicit 1.0 seen
    if args.sampling_rate is not None:
        raise UsageError("--sampling-rate requires --policy sampled")
    return TagPolicy(kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tagsim",
                                     description="memory tagging simulator")
    commands = parser.add_subparsers(dest="command", required=True)

    probe = commands.add_parser("probe", help="Monte-Carlo detection rates")
    probe.add_argument("--kind", action="append", choices=_kind_names(),
                       help="scenario kind (repeatable; default: the probabilistic pair)")
    probe.add_argument("--trials", type=_int, default=10000)
    _add_config_flags(probe, default_format="json")

    simulate = commands.add_parser("simulate", help="run one scenario")
    simulate.add_argument("scenario", choices=_kind_names())
    simulate.add_argument("--size", type=_int, default=None)
    simulate.add_argument("--offset", type=_int, default=None)
    simulate.add_argument("--reuse-depth", type=_int, default=None)
    _add_config_flags(simulate, default_format="plain")

    overhead = commands.add_parser("overhead", help="trace RAM overhead table")
    overhead.add_argument("trace", help="allocation trace file")
    overhead.add_argument("--alignments", default="8,16,32,64",
                          help="comma-separated alignment list")
    _add_ts_and_format(overhead, default_format="json")

    return parser


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _cmd_probe(args) -> int:
    policy = _policy_from(args)
    cfg = _config_from(args)
    kinds = [_parse_kind(k) for k in args.kind] if args.kind else list(_PROBE_DEFAULT_KINDS)
    reports = [estimate_detection(kind, cfg, trials=args.trials, seed=args.seed,
                                  policy=policy) for kind in kinds]
    if args.format == "json":
        _emit_json([r.to_json_dict() for r in reports])
    else:
        for r in reports:
            print(r.render())
    return 0


def _cmd_simulate(args) -> int:
    policy = _policy_from(args)
    cfg = _config_from(args)
    kind = _parse_kind(args.scenario)
    scenario = Scenario(kind=kind, size=args.size, offset=args.offset,
                        reuse_depth=args.reuse_depth, seed=args.seed, policy=policy)
    result = run_scenario(scenario, cfg)
    if args.format == "json":
        payload = {
            "kind": kind.value,
            "detected": result.detected,
            "report": result.report.to_json_dict() if result.report else None,
            "config": {**cfg.to_dict(), "sampling_rate": policy.rate},
            "seed": args.seed,
        }
        if result.observed is not None:
            payload["observed"] = result.observed.hex()
        _emit_json(payload)
    else:
        print(f"scenario={kind.value} seed={args.seed} tg={cfg.tg} ts={cfg.ts}"
              f" policy={args.policy}")
        if result.observed is not None:
            print(f"observed={result.observed.hex()}")
        if result.report is not None:
            print(result.report.render())
        print(f"detected={1 if result.detected else 0}")
    return 1 if result.detected else 0


def _parse_alignments(text: str) -> list[int]:
    """The comma-separated --alignments list: every field a run of
    ASCII digits, maybe between spaces, and none repeated."""
    alignments: list[int] = []
    for field in text.split(","):
        try:
            if not field.isascii() or "-" in field:  # unsigned, maybe between spaces
                raise ValueError
            a = _int(field.strip())
        except (ValueError, argparse.ArgumentTypeError):  # int() also has a digit limit
            raise UsageError(f"bad --alignments value {text!r}") from None
        if a in alignments:
            raise UsageError(f"--alignments lists {a} twice")
        alignments.append(a)
    return alignments


def _cmd_overhead(args) -> int:
    alignments = _parse_alignments(args.alignments)
    trace = load_trace(args.trace)
    report = analyze_trace(trace, alignments, ts=args.ts)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        print(report.render())
    return 0


_COMMANDS = {"probe": _cmd_probe, "simulate": _cmd_simulate, "overhead": _cmd_overhead}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; keep its code
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        raise  # not an input error: entry() ends the run quietly
    except (UsageError, TraceError, AllocationError, OSError) as exc:
        print(f"tagsim: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush
        # at exit writes nothing and reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    entry()
