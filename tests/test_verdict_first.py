"""The verdict-first paths against the paths they replace.

A scenario's bug access asks the engine for its verdict alone, and
run_scenario builds the fault report from that verdict; the reference
here makes the same access through ``sim.load``/``sim.store`` and
catches the fault, as every runner once did, and run_scenario returns
the report it caught.  The stack's exit and
scope retag maps one draw onto the free tags instead of building their
list; the reference is ``rng.choice`` over that list.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tagsim import MtConfig, TagMismatchError, UsageError
from tagsim import scenarios
from tagsim.cli import _config_from, _policy_from, build_parser
from tagsim.detection import _reuse_depth
from tagsim.memory import SparseMemory
from tagsim.rng import SplitMix64
from tagsim.scenarios import Scenario, ScenarioKind, ScenarioResult, run_scenario
from tagsim.stack import StackTagger
from tagsim.tagspace import ShadowStore

from test_golden import _PROBE_CONFIGS

# configs A and B of the probe-mix benchmark, then the golden file's probe configs
_CONFIGS = [
    ["--tg", "64", "--ts", "4"],
    ["--tg", "16", "--ts", "8", "--precision-ext", "--zero-on-tag",
     "--store-mode", "imprecise", "--quarantine", "4096"],
    *_PROBE_CONFIGS,
]
_SEEDS = range(200)


def _reference_bug_access(sim, word, store):
    try:
        if store:
            sim.store(word, b"\x00")
        else:
            sim.load(word, 1)
    except TagMismatchError as err:
        return ScenarioResult(detected=True, report=err.report)
    mine = None
    for report in sim.sync():
        assert report.word == word, f"fault outside the injected bug access: {report.render()}"
        if mine is None:
            mine = report
    return ScenarioResult(detected=mine is not None, report=mine)


def _cases(kind, cfg):
    depths = (0, 1) if kind is ScenarioKind.HEAP_USE_AFTER_FREE else (_reuse_depth(kind, cfg),)
    return [(depth, seed) for depth in depths for seed in _SEEDS]


@pytest.mark.parametrize("flags", _CONFIGS, ids=" ".join)
@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_verdict_first_runner_equals_load_store_reference(kind, flags, monkeypatch):
    args = build_parser().parse_args(["probe", *flags])
    cfg, policy = _config_from(args), _policy_from(args)
    detections = 0
    for depth, seed in _cases(kind, cfg):
        scenario = Scenario(kind, reuse_depth=depth, seed=seed, policy=policy)
        new = run_scenario(scenario, cfg)
        with monkeypatch.context() as patched:
            patched.setattr(scenarios, "_bug_access", _reference_bug_access)
            ref = run_scenario(scenario, cfg)
        assert new.detected == ref.detected, (depth, seed)
        assert new.observed == ref.observed, (depth, seed)
        assert new.report == ref.report, (depth, seed)
        if ref.report is not None:
            assert (new.word, new.access) == (ref.report.word, ref.report.access)
            assert new.report.render() == ref.report.render()
            assert new.report.to_json_dict() == ref.report.to_json_dict()
        detections += new.detected
    assert detections or kind in (ScenarioKind.INTRA_GRANULE_OVERFLOW,
                                  ScenarioKind.UNINITIALIZED_READ)


@settings(max_examples=300, deadline=None)
@given(ts=st.sampled_from((4, 8)), precision_ext=st.booleans(),
       seed=st.integers(0, 2**64 - 1), drawn=st.sets(st.integers(0, 255), max_size=24),
       dense=st.booleans())
def test_stack_draw_picks_what_choice_over_the_free_tags_picks(ts, precision_ext, seed,
                                                               drawn, dense):
    cfg = MtConfig(tg=16, ts=ts, precision_ext=precision_ext)
    tags = {t for t in drawn if t < cfg.n_tags}
    if dense:  # exclude nearly every tag, reserved ones included
        tags = set(range(cfg.n_tags)) - tags
    free = [t for t in cfg.usable_tags if t not in tags]
    stack = StackTagger(SparseMemory(), ShadowStore(cfg), cfg, SplitMix64(seed))
    reference = SplitMix64(seed)
    if not free:
        with pytest.raises(UsageError):
            stack._draw_excluding(tags)
        return
    assert stack._draw_excluding(tags) == reference.choice(free)
    assert stack.rng.next_word() == reference.next_word()  # one draw each
