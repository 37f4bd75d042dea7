"""Deterministic pseudo-random numbers shared by every seeded operation.

The generator is splitmix64 (Steele, Lea, Flood 2014): a 64-bit counter
advanced by the constant 0x9E3779B97F4A7C15, finalized with two xor-shift
multiplies.  It is tiny, passes BigCrush, and its output stream for a given
seed is identical on every platform and Python version, which is what the
reproducibility guarantees of this package rest on.

Draw orders used elsewhere are fixed and documented at the call sites:
uniform doubles take the top 53 bits of one 64-bit word, bounded integers
use rejection sampling, and normal deviates come from one Box-Muller pair
per two outputs.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 1 / 2**53, so 53-bit mantissas map onto [0, 1)
_INV53 = 1.0 / (1 << 53)


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1): top 53 bits of one output."""
        return (self.next_u64() >> 11) * _INV53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        # reject draws from the partial final cycle of 2**64 / n
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def normal_pair(self) -> tuple[float, float]:
        """One Box-Muller pair of independent standard normals.

        u1 is shifted into (0, 1] so the log never sees zero; u2 stays in
        [0, 1).  Exactly two raw outputs are consumed per call.
        """
        u1 = ((self.next_u64() >> 11) + 1) * _INV53
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        return r * math.cos(theta), r * math.sin(theta)

    def normals(self, count: int) -> list[float]:
        """`count` standard normals, drawn as consecutive Box-Muller pairs."""
        out: list[float] = []
        while len(out) < count:
            z0, z1 = self.normal_pair()
            out.append(z0)
            if len(out) < count:
                out.append(z1)
        return out

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """First k entries of a Fisher-Yates shuffle of range(n).

        Swap i draws below(n - i); only the k-long prefix is materialized
        in output order.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n} without replacement")
        items = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            items[i], items[j] = items[j], items[i]
        return items[:k]
