"""Long streams serve batch-mixed words: every draw of a stream that
mixes its first BATCH_WORDS words one at a time and then crosses batch
boundaries, with premixed rows and every kind of draw mixed in, against
mix64 of the stream's states."""

import pytest
from hypothesis import example, given, settings, strategies as st

from tagsim import detection, rng
from tagsim.rng import BATCH_WORDS, SplitMix64, mix64, premixed_rows

M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

draws = st.lists(st.one_of(
    st.tuples(st.just("words"), st.integers(1, 2 * BATCH_WORDS)),
    st.tuples(st.just("premix"), st.integers(1, 8)),
    st.tuples(st.just("random")),
    st.tuples(st.just("randrange"), st.integers(1, 1 << 70)),
    st.tuples(st.just("choice"), st.integers(1, 255)),
), max_size=40)

# the seeds whose states wrap past 2^64, from test_premixed_rows_are_mix64_of_each_stream
_WRAPPING_SEEDS = (0, M64, -1, -5, (1 << 64) - GAMMA, (1 << 64) - GAMMA - 100, (1 << 64) - 3)
# a trial's premixed row, a row premixed two one-at-a-time mixes before
# the first batch, then draws across two batch boundaries
_CROSSING = [("premix", 3), ("words", BATCH_WORDS), ("random",), ("premix", 2),
             ("words", BATCH_WORDS - 2), ("choice", 16), ("randrange", 14), ("randrange", 3),
             ("words", BATCH_WORDS + 1)]


def _with_examples(test):
    for seed in _WRAPPING_SEEDS:
        test = example(seed=seed, script=_CROSSING)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=-(1 << 70), max_value=1 << 70), script=draws)
@_with_examples
def test_every_draw_is_mix64_of_its_state(seed, script):
    stream = SplitMix64(seed)
    drawn = 0  # words served so far

    def reference():
        nonlocal drawn
        drawn += 1
        return mix64((seed + (drawn - 1) * GAMMA) & M64)

    for step in script:
        name = step[0]
        if name == "words":
            for _ in range(step[1]):
                assert stream.next_word() == reference(), drawn
        elif name == "premix":
            # a row is the stream's next words: premix takes one only when
            # every word mixed so far has been served
            if stream.words_since(seed) == drawn:
                stream.premix(premixed_rows(seed + drawn * GAMMA, step[1], 1)[0])
        elif name == "random":
            assert stream.random() == (reference() >> 11) / (1 << 53)
        elif name == "randrange":
            assert stream.randrange(step[1]) == reference() % step[1]
        else:
            seq = range(step[1])
            assert stream.choice(seq) == seq[reference() % len(seq)]
    assert stream.words_since(seed) >= drawn


def test_a_short_stream_never_batches(monkeypatch):
    """A stream's first BATCH_WORDS words, and so every word of a stream
    that draws 16 or fewer, are mixed one at a time; the next word mixes
    a batch."""
    batches = []
    real = rng._mixed_lanes
    monkeypatch.setattr(rng, "_mixed_lanes", lambda *args: batches.append(args) or real(*args))
    assert BATCH_WORDS >= 16
    stream = SplitMix64(3)
    for _ in range(BATCH_WORDS):
        stream.next_word()
    assert batches == []
    for _ in range(BATCH_WORDS):
        stream.next_word()
    assert len(batches) == 1
    stream.next_word()
    assert len(batches) == 2


@pytest.mark.parametrize("draws", [0, 1, 7, 8, 9, BATCH_WORDS, BATCH_WORDS + 1, 300])
def test_the_premixed_word_count_does_not_see_batches(draws):
    """estimate_detection premixes min(words_since, _PREMIX_MAX_WORDS)
    words per trial; a batch premixes words ahead of the draws, which
    that bound hides, since BATCH_WORDS is above it."""
    stream = SplitMix64(11)
    for _ in range(draws):
        stream.next_word()
    k = min(stream.words_since(11), detection._PREMIX_MAX_WORDS)
    assert k == min(draws, detection._PREMIX_MAX_WORDS)
