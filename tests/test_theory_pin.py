"""The exact theory, pinned: every (kind, config, policy) Fraction that
detection._derive produces over the full grid of configs, hashed.

A refactor of the runners, of the scratch simulator the theory runs
them on or of its scripted stream must leave every Fraction as it is,
and a change that moves one changes the digest.  Run this file as a
script to print the digest of the tree it runs on.
"""

import hashlib
import itertools

from tagsim import MtConfig, ScenarioKind, StoreMode, TagPolicy, UsageError
from tagsim import detection

# 8 kinds x tg {16, 32, 64} x ts {4, 8} x 3 flags x quarantine {0, 4096}
# x 2 store modes x 2 policies, less the quarter of the configs with both
# precision_ext and right_align, which MtConfig refuses: 2,304 cases
THEORY_SHA256 = "1d8d6f09e875e9e453f1afcee72227fc573be87ec446ac3ee9588cfd472dc6e2"

_FLAGS = (False, True)
_GRID = list(itertools.product((16, 32, 64), (4, 8), _FLAGS, _FLAGS, _FLAGS, (0, 4096),
                               StoreMode))
_POLICIES = (TagPolicy.random(), TagPolicy.adjacent_distinct())


def _lines():
    for tg, ts, precision_ext, right_align, zero_on_tag, quarantine, mode in _GRID:
        if precision_ext and right_align:
            continue  # mutually exclusive
        cfg = MtConfig(tg=tg, ts=ts, precision_ext=precision_ext, right_align=right_align,
                       zero_on_tag=zero_on_tag, quarantine_capacity=quarantine,
                       store_mode=mode)
        for kind in ScenarioKind:
            for policy in _POLICIES:
                try:
                    theory = detection._derive.__wrapped__(kind, cfg, policy)
                except UsageError as err:
                    theory = f"refused: {err}"
                yield f"{kind.value} {sorted(cfg.to_dict().items())} {policy.kind.value} {theory}"


def theory_digest() -> tuple[int, str]:
    lines = list(_lines())
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_every_theory_fraction_is_unchanged():
    assert theory_digest() == (2304, THEORY_SHA256)


if __name__ == "__main__":
    print(*theory_digest())
