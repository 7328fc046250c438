"""A tiny fixed pseudo-random generator.

Equal-degree polynomial splitting and the corollary's subset sample need a
stream of small integers that is reproducible byte-for-byte across platforms
and Python versions (reports must be identical for identical seeds), so we
avoid the stdlib `random` module and use an xorshift64* generator.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_MIX = 0x2545F4914F6CDD1D


class DeterministicRng:
    def __init__(self, seed: int):
        # avoid the all-zero fixed point; fold the seed into 64 bits
        self._state = ((seed & _MASK) * 6364136223846793005 + 1442695040888963407) & _MASK
        if self._state == 0:
            self._state = 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK
        x ^= (x >> 27)
        self._state = x
        return (x * _MIX) & _MASK

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n). Modulo bias is irrelevant here."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)
