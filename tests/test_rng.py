"""SplitMix64: published known answers, and each block method against the
same number of scalar calls, values and final state alike."""

import numpy as np
import pytest

from edakit.rng import _GAMMA, SplitMix64

# the state passes through 0 at the fifth draw, so a block of 1000 wraps midway
WRAPS_AT_5 = (-5 * _GAMMA) % 2**64
SEEDS = [0, 2**64 - 1, WRAPS_AT_5, 1234567]
SIZES = [0, 1, 1000]


def test_known_answers():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_seed_is_taken_mod_2_64():
    assert SplitMix64(-1).next_u64() == SplitMix64(2**64 - 1).next_u64()
    assert SplitMix64(2**64 + 7).next_u64() == SplitMix64(7).next_u64()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_next_u64s_equal_scalar_calls(seed, n):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    got = block.next_u64s(n)
    assert got.dtype == np.uint64
    assert got.tolist() == [scalar.next_u64() for _ in range(n)]
    assert block._state == scalar._state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_randoms_equal_scalar_calls(seed, n):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    got = block.randoms(n)
    assert got.dtype == np.float64
    assert got.tolist() == [scalar.random() for _ in range(n)]
    assert block._state == scalar._state


# 2**63 + 1 rejects about half of all draws; 2**64 and 1 reject none
@pytest.mark.parametrize("m", [1, 11, 1_000_000, 2**63 + 1, 2**64])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_randints_equal_scalar_calls(seed, n, m):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    got = block.randints(n, m)
    assert got.dtype == np.uint64
    assert got.tolist() == [scalar.randint(m) for _ in range(n)]
    assert block._state == scalar._state


def test_randints_redraw_after_a_rejected_draw():
    rng = SplitMix64(WRAPS_AT_5)
    rng.randints(1000, 2**63 + 1)
    unrejected = SplitMix64(WRAPS_AT_5)
    unrejected.advance(1000)
    assert rng._state != unrejected._state


def test_blocks_continue_one_stream():
    block, scalar = SplitMix64(99), SplitMix64(99)
    got = block.next_u64s(3).tolist() + block.randoms(2).tolist() + block.randints(4, 6).tolist()
    want = [scalar.next_u64() for _ in range(3)] + [scalar.random() for _ in range(2)]
    assert got == want + [scalar.randint(6) for _ in range(4)]
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed", SEEDS)
def test_advance_skips_and_steps_back(seed):
    rng, drawn = SplitMix64(seed), SplitMix64(seed)
    rng.advance(7)
    drawn.next_u64s(7)
    assert rng._state == drawn._state
    first = SplitMix64(seed).next_u64s(10)
    rng.advance(-7)
    assert rng.next_u64s(10).tolist() == first.tolist()


def test_bad_counts_refused():
    rng = SplitMix64(1)
    for call in (lambda: rng.randint(0), lambda: rng.randints(3, 0),
                 lambda: rng.randint(2**64 + 1), lambda: rng.randints(3, 2**64 + 1)):
        with pytest.raises(ValueError, match=r"n must lie in \[1, 2\*\*64\]"):
            call()
    with pytest.raises(ValueError, match="n must be >= 0"):
        rng.next_u64s(-1)
    assert rng._state == 1
