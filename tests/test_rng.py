"""Premixed trial streams: the lane form of the SplitMix64 finalizer
against mix64, and the streams that the Monte-Carlo trial loop hands its
trials against one-at-a-time SplitMix64 streams."""

import copy

import pytest
from hypothesis import example, given, settings, strategies as st

from tagsim import MtConfig, ScenarioKind, TagPolicy, estimate_detection
from tagsim import detection
from tagsim.rng import PREMIX_STREAMS, SplitMix64, _lanes, mix64, premixed_rows
from tagsim.scenarios import ScenarioResult

M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=-(1 << 70), max_value=1 << 70), k=st.integers(1, 8))
@example(seed=0, k=1)
@example(seed=M64, k=8)
@example(seed=-1, k=3)
@example(seed=-5, k=2)
@example(seed=(1 << 64) - GAMMA, k=1)  # the first state's +GAMMA lands on 2^64
@example(seed=(1 << 64) - GAMMA - 100, k=4)  # later streams wrap on +GAMMA
@example(seed=(1 << 64) - 3, k=5)  # seed + j itself wraps
def test_premixed_rows_are_mix64_of_each_stream(seed, k):
    rows = premixed_rows(seed, k)
    assert len(rows) == PREMIX_STREAMS
    for j, row in enumerate(rows):
        assert row == [mix64((seed + j + w * GAMMA) & M64) for w in reversed(range(k))], j


def test_premixed_stream_draws_on_past_its_row():
    rng = SplitMix64(41)
    rng.premix(premixed_rows(41, 3)[0])
    reference = SplitMix64(41)
    assert [rng.next_word() for _ in range(7)] == [reference.next_word() for _ in range(7)]
    assert rng.words_since(41) == 7


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("count", [1, 2, 255])
def test_a_partial_batch_is_the_first_rows_of_the_full_batch(count, k):
    seed = (1 << 64) - 100 * GAMMA  # its streams' states wrap past 2^64
    assert premixed_rows(seed, k, count) == premixed_rows(seed, k)[:count]


def test_every_partial_batch_is_the_first_rows_of_the_full_batch():
    seed = (1 << 64) - 100 * GAMMA
    for k in (1, 3, 8):
        full = premixed_rows(seed, k)
        for count in range(1, PREMIX_STREAMS + 1):
            assert premixed_rows(seed, k, count) == full[:count], (k, count)
    cache = _lanes.cache_info()
    assert cache.currsize <= cache.maxsize


WORDS = 12
# what trial i >= 1 draws while it runs: none, fewer than k, k and more than k
# for k = 3; trial 0 sets k
LATER_DRAWS = (0, 1, 3, 5)


# 2 and 3 trials leave a partial first batch, 257 one full batch and 258
# a one-trial second batch, and 2 * PREMIX_STREAMS + 3 crosses two
# batch boundaries
@pytest.mark.parametrize("trials", [2, 3, 257, 258, 2 * PREMIX_STREAMS + 3])
@pytest.mark.parametrize("first_draws", [0, 3, 9])
@pytest.mark.parametrize("seed", [0, -5, (1 << 64) - 3])
def test_trials_draw_the_streams_of_seed_plus_i(monkeypatch, seed, first_draws, trials):
    """All trials share one stream, rewound for each, so the runner reads
    a trial's remaining words from a copy: the trial itself leaves its
    unread premixed words behind for the next rewind to drop."""
    streams = []

    def recording_runner(sim, scenario):
        i = len(streams)
        assert sim.seed == seed + i
        draws = first_draws if i == 0 else LATER_DRAWS[i % len(LATER_DRAWS)]
        words = [sim.rng.next_word() for _ in range(draws)]
        rest = copy.deepcopy(sim.rng)
        streams.append(words + [rest.next_word() for _ in range(WORDS - draws)])
        return ScenarioResult(detected=i % 2 == 0)

    # the theory calls the runner through the patched name too: memoise it first
    detection.theoretical_detection(ScenarioKind.UNINITIALIZED_READ, MtConfig())
    monkeypatch.setattr(detection, "scenario_runner", lambda kind: recording_runner)
    report = estimate_detection(ScenarioKind.UNINITIALIZED_READ, MtConfig(), trials, seed=seed)
    assert len(streams) == trials
    assert report.detections == (trials + 1) // 2
    for i, words in enumerate(streams):
        reference = SplitMix64(seed + i)
        assert words == [reference.next_word() for _ in range(WORDS)], i
