"""The SplitMix64 stream against its scalar reference copy.

``tests/support.py`` keeps the earlier ``SplitMix64``, which mixes one
output per call.  The library mixes ``_LANES`` outputs at a time in one int,
a lane per 128-bit slot.  Every seed must give the same outputs through any
mix of ``next_u64`` and ``below`` calls, several blocks deep, including
seeds whose counter wraps past 2^64 in the first lane or inside a block,
and both streams must refuse the same arguments with the same messages.
"""

from __future__ import annotations

import random

import pytest

from efl.generators import _GAMMA, _LANES, SplitMix64, _mix_block
from support import ReferenceSplitMix64

BOUNDS = (1, 7, 100, 2**64, 2**64 + 1)
TOP = 2**64 - 1
# 2^64-k wraps at the first counter; from -k*gamma the counter wraps to 0
# at lane k-1 of the first block, so the block holds lanes on both sides
WRAP_KS = (1, 2, 3, _LANES // 2, _LANES - 1)
SEEDS = list(
    dict.fromkeys(
        [0, 1, 2**63, TOP]
        + [2**64 - k for k in WRAP_KS]
        + [-k * _GAMMA % 2**64 for k in WRAP_KS]
    )
)


def _calls(seed: int) -> list[int | None]:
    """A seeded mix of raw draws (``None``) and bounded ones, 3.5 blocks long."""
    rng = random.Random(seed)
    return [rng.choice((None, *BOUNDS)) for _ in range(3 * _LANES + _LANES // 2)]


def _read(stream, calls: list[int | None]) -> list[int]:
    return [stream.next_u64() if b is None else stream.below(b) for b in calls]


def _assert_same_stream(seed: int) -> None:
    calls = _calls(seed)
    assert _read(SplitMix64(seed), calls) == _read(ReferenceSplitMix64(seed), calls)


@pytest.mark.parametrize("seed", SEEDS)
def test_same_stream_as_reference(seed):
    _assert_same_stream(seed)


def test_same_stream_on_random_seeds():
    rng = random.Random(0)
    for _ in range(200):
        _assert_same_stream(rng.getrandbits(64))


def test_block_counter_wraps_mod_2_64():
    # the stream's counter grows past 2^64 unmasked, so each block masks it
    # first: counter bits from 2^128 up would otherwise reach the next lane
    for state in (0, TOP, 2**63 + 12345):
        assert _mix_block(state + 5 * 2**64) == _mix_block(state)
        assert _mix_block(state + 3 * 2**130) == _mix_block(state)


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
def test_seed_error_text(seed):
    with pytest.raises(ValueError) as expected:
        ReferenceSplitMix64(seed)
    assert str(expected.value) == f"seed must lie in 0..2^64-1, got {seed}"
    with pytest.raises(ValueError) as got:
        SplitMix64(seed)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("bound", [0, -1])
def test_bound_error_text(bound):
    with pytest.raises(ValueError, match=r"^bound must be positive$"):
        ReferenceSplitMix64(5).below(bound)
    stream = SplitMix64(5)
    with pytest.raises(ValueError, match=r"^bound must be positive$"):
        stream.below(bound)
    # a refused call draws nothing
    assert stream.next_u64() == ReferenceSplitMix64(5).next_u64()
