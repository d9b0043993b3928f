"""The simulation agrees with the exact theory over the theory pin's grid.

tests/test_theory_pin.py pins what detection._derive says in 2,304
(kind, config, policy) cells; this checks that the Monte-Carlo trials
say the same.  Every cell the theory does not refuse runs TRIALS trials
through estimate_detection, cell i from seed TRIALS * i, so no two
cells share a trial seed.  A cell whose theory is 0 or 1 must detect
exactly never or always.  Every other cell's detection count is
tested against its Fraction with an exact two-sided binomial tail,
summed in log space, at a Bonferroni-corrected ALPHA: at 2,000 trials
the miss count of a 255/256 cell is about 8, where a z-score misleads.

Run as a script to check the whole grid (about 45 s) and print a summary:

    python tests/grid_agreement.py [--every N]

It needs the tagsim package alone; it exits 1 if any cell disagrees.
"""

import argparse
import math
import sys
from fractions import Fraction

from tagsim import MtConfig, ScenarioKind, UsageError, estimate_detection, theoretical_detection

from test_theory_pin import _GRID, _POLICIES

ALPHA = 0.01  # the family-wise error rate over the probabilistic cells
TRIALS = 2000  # per cell


def cells():
    """The theory pin's cells in its order, as (kind, cfg, policy)."""
    for tg, ts, precision_ext, right_align, zero_on_tag, quarantine, mode in _GRID:
        if precision_ext and right_align:
            continue  # mutually exclusive
        cfg = MtConfig(tg=tg, ts=ts, precision_ext=precision_ext, right_align=right_align,
                       zero_on_tag=zero_on_tag, quarantine_capacity=quarantine,
                       store_mode=mode)
        for kind in ScenarioKind:
            for policy in _POLICIES:
                yield kind, cfg, policy


def _log_sum(logs: list[float]) -> float:
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def two_sided_p(k: int, n: int, p: Fraction) -> float:
    """Exact two-sided binomial p-value of k detections in n trials at a
    rate 0 < p < 1: twice the smaller tail, at most 1."""
    log_p, log_q, log_n = math.log(p), math.log(1 - p), math.lgamma(n + 1)
    logs = [log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * log_p + (n - j) * log_q
            for j in range(n + 1)]
    tail = min(_log_sum(logs[:k + 1]), _log_sum(logs[k:]))
    return min(1.0, 2 * math.exp(tail))


def check(every: int = 1) -> dict:
    """Run cell i of the grid wherever i % every == (i // every) % every,
    so that a slice of 1/every takes one (kind, policy) cell of each run
    of ``every`` cells and rotates through them; every=1 is the whole
    grid.  Returns the counts of exact and probabilistic cells, the
    smallest p-value, its Bonferroni bound, and a line per failure."""
    exact, tested, failures = 0, [], []
    for i, (kind, cfg, policy) in enumerate(cells()):
        if i % every != (i // every) % every:
            continue
        try:
            theory = theoretical_detection(kind, cfg, policy)
        except UsageError:
            continue  # the theory refuses the cell, and so does every trial
        seed = TRIALS * i
        detections = estimate_detection(kind, cfg, TRIALS, seed, policy).detections
        cell = f"cell {i} {kind.value} {cfg} {policy.kind.value} seed {seed}"
        if theory in (0, 1):
            exact += 1
            if detections != theory * TRIALS:
                failures.append(f"{cell}: {detections} of {TRIALS} detected, theory {theory}")
        else:
            tested.append((two_sided_p(detections, TRIALS, theory), cell, detections, theory))
    bound = ALPHA / max(len(tested), 1)
    failures += [f"{cell}: {detections} of {TRIALS} detected, theory {theory}, p {p:.3g}"
                 for p, cell, detections, theory in tested if p < bound]
    return {"exact": exact, "probabilistic": len(tested),
            "min_p": min((p for p, *_ in tested), default=1.0), "bound": bound,
            "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--every", type=int, default=1, help="check a 1/EVERY slice")
    result = check(parser.parse_args(argv).every)
    for line in result["failures"]:
        print(line)
    print(f"exact cells {result['exact']}, probabilistic cells {result['probabilistic']},"
          f" smallest p {result['min_p']:.3g} (bound {result['bound']:.3g}),"
          f" failures {len(result['failures'])}")
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
