"""The heap-churn benchmark's simulated outcome, pinned.

bench/workloads.py::replay_heap replays the workload's seed-1 trace on
one long-lived Simulator and digests the render of every stale-load
fault and the heap's final AllocatorStats.  The CLI golden outputs pin
the Monte-Carlo path; this pins the heap path: a speed-up of malloc,
free, the free list, the quarantine or the access check must leave
every fault and every counter as it is.  Run this file as a script to
print the digest of the tree it runs on.
"""

import importlib
import pathlib
import sys

import tagsim

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
HEAP_SEED = 1
HEAP_SHA256 = "ac88a24aea0311b1d39f8ca6bce161bb0054d87c6471b67143553a39dbee23cc"


def heap_digest() -> str:
    """replay_heap's output digest for the workload's seed-1 inputs; every
    check of the replay must pass."""
    sys.path.insert(0, str(BENCH))  # workloads imports tracegen as a top-level module
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    churn = workloads.HeapChurn(tagsim, HEAP_SEED, None)
    churn.prepare()
    outcome = workloads.replay_heap(tagsim, churn.cfg, HEAP_SEED, churn.ops, churn.oracle_peak)
    assert outcome.errors == [] and outcome.failed == 0
    return outcome.output.decode()


def test_heap_churn_replays_to_the_pinned_outcome():
    assert heap_digest() == HEAP_SHA256


if __name__ == "__main__":
    print(heap_digest())
