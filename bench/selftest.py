"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each case runs a small real input through tagsim, confirms that the
check accepts the true output, then confirms that it rejects a
deliberately wrong one: an altered detection count, a peak off by one
granule, wrong loaded bytes, a missing or an extra fault, a wrong exit
code, or a repeat whose output changed.  Exits 1 if any case goes wrong.
"""

from __future__ import annotations

import json
import sys

import run
import tracegen
import workloads as wl

_results: list[bool] = []


def expect(name: str, ok: bool) -> None:
    _results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}")


def probe_cases(cli) -> None:
    trials = 40
    kinds = [arg for kind in wl.PROBE_KINDS for arg in ("--kind", kind)]
    for label, flags in wl.PROBE_CONFIGS:
        rc, text = wl.call_cli(cli.main, ["probe", *kinds, "--trials", str(trials),
                                          "--seed", "7", *flags])
        expect(f"probe {label}: true output passes", wl.check_probe(rc, text, trials) == [])
        expect(f"probe {label}: exit code 1 fails", wl.check_probe(1, text, trials) != [])
        for r in json.loads(text):
            if r["theoretical"] in (0.0, 1.0):
                reports = json.loads(text)
                wrong = next(x for x in reports if x["kind"] == r["kind"])
                wrong["detections"] += -1 if wrong["detections"] else 1
                wrong["rate"] = wrong["detections"] / trials
                expect(f"probe {label}: {r['kind']} detections off by one fails",
                       wl.check_probe(0, json.dumps(reports), trials) != [])
        reports = json.loads(text)
        reports[0]["rate"] += 0.5
        expect(f"probe {label}: rate not detections/trials fails",
               wl.check_probe(0, json.dumps(reports), trials) != [])
    fake = json.dumps([{"kind": "k", "detections": 60, "trials": 100, "theoretical": 0.5}])
    expect("theory_max_z of 60/100 against 1/2 is 2", abs(wl.theory_max_z([[fake]]) - 2.0) < 1e-12)


def heap_cases(tagsim) -> None:
    seed = 3
    ops = wl.heap_ops(seed, 800, 80)
    cfg = tagsim.MtConfig(tg=16, ts=8, precision_ext=True, quarantine_capacity=4096)
    peak = wl.analyzer_peak(tagsim, ops, cfg)

    def failed(oracle=peak, sim_class=None) -> int:
        return wl.replay_heap(tagsim, cfg, seed, ops, oracle, sim_class).failed

    class WrongBytes(tagsim.Simulator):
        def load(self, word, width=1):
            data = super().load(word, width)
            return bytes([data[0] ^ 1]) + data[1:]

    class MissedFault(tagsim.Simulator):
        def load(self, word, width=1):
            try:
                return super().load(word, width)
            except tagsim.TagMismatchError:
                return bytes(width)

    class ExtraFault(tagsim.Simulator):
        def store(self, word, data):
            super().store(word ^ (1 << 56), data)  # flip a pointer tag bit

    expect("heap: true replay passes", failed() == 0)
    expect("heap: peak off by one granule fails", failed(peak + cfg.tg) > 0)
    expect("heap: wrong loaded bytes fail", failed(sim_class=WrongBytes) > 0)
    expect("heap: a stale load that does not fault fails", failed(sim_class=MissedFault) > 0)
    expect("heap: an unexpected fault fails", failed(sim_class=ExtraFault) > 0)


def trace_cases(cli) -> None:
    run.WORKDIR.mkdir(exist_ok=True)
    path = run.WORKDIR / "selftest-trace.txt"
    try:
        tracker = tracegen.write_trace(path, 5, 3000, 200, wl.TRACE_ALIGNMENTS)
        peaks = dict(zip(tracker.alignments, tracker.peaks))
        rc, text = wl.call_cli(cli.main, ["overhead", str(path), "--alignments",
                                          ",".join(map(str, wl.TRACE_ALIGNMENTS))])
    finally:
        path.unlink(missing_ok=True)
    expect("trace: true output passes", wl.check_overhead(rc, text, peaks) == [])
    expect("trace: exit code 2 fails", wl.check_overhead(2, text, peaks) != [])
    report = json.loads(text)
    report["rows"][1]["peak_bytes"] += report["rows"][1]["alignment"]
    expect("trace: peak off by one granule fails",
           wl.check_overhead(0, json.dumps(report), peaks) != [])
    report = json.loads(text)
    report["base_peak_bytes"] += 8
    expect("trace: base peak off by 8 bytes fails",
           wl.check_overhead(0, json.dumps(report), peaks) != [])


def repeat_case() -> None:
    class Drifting:
        blocks = 1
        runs = 0

        def run_block(self, block, main):
            self.runs += 1
            outcome = wl.Outcome(10)
            outcome.output = str(self.runs).encode()
            return outcome

    passes = run.Passes(Drifting())
    passes.run(None, 0.0, 2)
    expect("a repeat whose output changed fails", passes.failed == 10)


def main() -> int:
    if not (run.SRC / "tagsim" / "__init__.py").is_file():
        print(f"selftest: no tagsim sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    tagsim = run.load_tagsim()
    probe_cases(tagsim.cli)
    heap_cases(tagsim)
    trace_cases(tagsim.cli)
    repeat_case()
    print(f"{sum(_results)} of {len(_results)} cases passed")
    return 0 if all(_results) else 1


if __name__ == "__main__":
    sys.exit(main())
