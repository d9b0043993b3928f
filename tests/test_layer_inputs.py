"""The facade hands its layers only inputs they need not check.

ShadowStore.set_range, SparseMemory.fill and SparseMemory.read refuse
nothing: every call reaches them from malloc, free, the stack tagger or
a checked access, which build their spans from inputs the public entries
have refused already.  Random programs run here through the Simulator
facade alone, with those three methods wrapped in a recording spy, and
every recorded call must meet the preconditions the layers once checked
themselves."""

from contextlib import ExitStack
from unittest import mock

from hypothesis import given, settings, strategies as st

from tagsim import FaultError, MtConfig, Simulator, TagPolicy
from tagsim.memory import SparseMemory
from tagsim.tagspace import ADDR_SPACE, ShadowStore

_SPIED = ((ShadowStore, "set_range"), (SparseMemory, "fill"), (SparseMemory, "read"))


def make_config(tg, ts, quarantine, layout, zero_on_tag):
    return MtConfig(tg=tg, ts=ts, quarantine_capacity=quarantine, zero_on_tag=zero_on_tag,
                    precision_ext=layout == "precision_ext",
                    right_align=layout == "right_align")


configs = st.builds(make_config, st.sampled_from([16, 32, 64]), st.sampled_from([4, 8]),
                    st.sampled_from([0, 256]),
                    st.sampled_from(["plain", "precision_ext", "right_align"]), st.booleans())
policies = st.sampled_from([TagPolicy.random(), TagPolicy.adjacent_distinct(),
                            TagPolicy.sampled(0.5)])
picks = st.integers(min_value=0, max_value=1_000)
ops = st.lists(st.one_of(
    st.tuples(st.just("malloc"), picks),  # a size of 0 to 4 granules
    st.tuples(st.just("free"), picks),
    st.tuples(st.just("load"), picks, st.integers(min_value=-8, max_value=72),
              st.sampled_from([1, 2, 4, 8])),
    st.tuples(st.just("enter"), st.lists(picks, min_size=1, max_size=3)),
    st.tuples(st.just("exit")),
    st.tuples(st.just("scope"), picks, picks),
), max_size=40)


def spy(calls, name, method):
    def record(self, *args):
        calls.append((name, args))
        return method(self, *args)
    return record


def run_program(sim, ops):
    """Apply ``ops`` through the facade: malloc, free, load and the
    stack's enter_frame, exit_frame and end_scope."""
    size = lambda pick: pick % (4 * sim.cfg.tg + 1)  # noqa: E731
    live, frames = [], []
    for op in ops:
        name = op[0]
        if name == "malloc":
            live.append(sim.malloc(size(op[1])))
        elif name == "free" and live:
            sim.free(live.pop(op[1] % len(live)))
        elif name == "load":
            words = live + [slot.ptr for frame in frames for slot in frame.slots]
            if words:
                try:
                    sim.load(words[op[1] % len(words)] + op[2], op[3])
                except FaultError:
                    pass
        elif name == "enter":
            frames.append(sim.stack.enter_frame([size(pick) for pick in op[1]]))
        elif name == "exit" and frames:
            sim.stack.exit_frame(frames.pop())
        elif name == "scope" and frames:
            frame = frames[op[1] % len(frames)]
            index = op[2] % len(frame.slots)
            if frame.slots[index].in_scope:
                sim.stack.end_scope(frame, index)


@settings(max_examples=200, deadline=None)
@given(cfg=configs, policy=policies, seed=st.integers(min_value=0, max_value=2**32), ops=ops)
def test_every_layer_call_meets_the_checks_the_layer_dropped(cfg, policy, seed, ops):
    calls = []
    with ExitStack() as patches:
        for owner, name in _SPIED:
            patches.enter_context(
                mock.patch.object(owner, name, spy(calls, name, getattr(owner, name))))
        run_program(Simulator(cfg, seed=seed, policy=policy), ops)
    tg = cfg.tg
    for name, args in calls:
        addr, length = args[0], args[1]
        assert 0 <= addr and addr + length <= ADDR_SPACE, (name, args)
        if name == "set_range":
            assert addr % tg == 0, args
            assert length > 0 and length % tg == 0, args
            assert 0 <= args[2] < cfg.n_tags, args
        else:
            assert length >= 0, (name, args)
        if name == "fill":
            assert 0 <= args[2] <= 0xFF, args
