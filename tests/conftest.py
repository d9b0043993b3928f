"""Shared fixtures and helpers for the test suite."""

import pytest

from tagsim import MtConfig, Simulator, detection


@pytest.fixture(autouse=True)
def _fresh_theories():
    """Each test derives its own exact theories: none reads one that an
    earlier test cached under its monkeypatches."""
    detection._derive.cache_clear()


@pytest.fixture
def cfg16():
    return MtConfig(tg=16, ts=8)


@pytest.fixture
def cfg64():
    return MtConfig(tg=64, ts=4)


@pytest.fixture
def sim16(cfg16):
    return Simulator(cfg16, seed=1)


@pytest.fixture
def sim64(cfg64):
    return Simulator(cfg64, seed=1)


def byte_oracle_check(sim, word, length):
    """Reference semantics for check_user_range: probe every byte with a
    1-byte load built from the same tag bits.  Returns True when every
    byte is accessible."""
    from tagsim import FaultError
    from tagsim.tagspace import ADDR_SPACE

    addr = word & (ADDR_SPACE - 1)
    tag_bits = word & ~(ADDR_SPACE - 1)
    for i in range(length):
        try:
            sim.load(tag_bits | (addr + i), 1)
        except FaultError:
            return False
    return True
