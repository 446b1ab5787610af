"""Seeded pseudo-random numbers with portable integer semantics.

SplitMix64 (Steele, Lea, Flood 2014) is implemented directly on 64-bit
integer arithmetic so that a given seed produces the same stream on every
platform and Python build. All stochastic procedures in this package
(k-means++ initialization and anything derived from it) draw from this
generator, which is what makes seeded results bit-reproducible.

The generator is counter-based: draw i of a stream is a fixed mix of
``seed + i * gamma``. The block methods (``next_u64s``, ``randoms``,
``randints``) compute a run of draws in one pass over wrapping uint64
arrays; they return exactly what the same number of scalar calls would, in
stream order, and leave the state where those calls would.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _rejection_bound(n: int) -> int:
    """Draws at or above this bound are redrawn, so that ``u % n`` is unbiased."""
    if not 0 < n <= 1 << 64:
        raise ValueError("n must lie in [1, 2**64]")
    return (1 << 64) - ((1 << 64) % n)


class SplitMix64:
    """Deterministic 64-bit generator; one instance per seeded procedure."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_u64s(self, n: int) -> np.ndarray:
        """The next ``n`` draws of ``next_u64`` as a uint64 array."""
        if n < 0:
            raise ValueError("n must be >= 0")
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)  # uint64 arrays wrap, as the & _MASK64 above does
        z += np.uint64(self._state)
        self.advance(n)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def advance(self, n: int) -> None:
        """Skip the next ``n`` draws; a negative ``n`` steps back over the last ``-n``."""
        self._state = (self._state + n * _GAMMA) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randoms(self, n: int) -> np.ndarray:
        """The next ``n`` draws of ``random`` as a float64 array."""
        return (self.next_u64s(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        bound = _rejection_bound(n)
        while True:
            u = self.next_u64()
            if u < bound:
                return u % n

    def randints(self, n: int, m: int) -> np.ndarray:
        """The next ``n`` draws of ``randint(m)`` as a uint64 array.

        A rejected draw is redrawn, as ``randint`` does, so the stream ends
        just after the n-th accepted draw.
        """
        last = np.uint64(_rejection_bound(m) - 1)
        kept, need = [np.empty(0, np.uint64)], n
        while need:
            # a block of need draws holds at most need accepted ones: none past the n-th is taken
            u = self.next_u64s(need)
            u = u[u <= last]
            kept.append(u)
            need -= len(u)
        u = np.concatenate(kept)
        return u % np.uint64(m) if m < 1 << 64 else u

    def choice_weighted(self, weights: Sequence[float]) -> int:
        """Index drawn with probability proportional to the given weights.

        Weights must be non-negative with a positive sum.
        """
        total = 0.0
        for w in weights:
            if w < 0:
                raise ValueError("weights must be non-negative")
            total += w
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        target = self.random() * total
        acc = 0.0
        last_positive = 0
        for i, w in enumerate(weights):
            if w > 0:
                last_positive = i
            acc += w
            if target < acc:
                return i
        # float round-off can leave target == acc; fall back deterministically
        return last_positive
