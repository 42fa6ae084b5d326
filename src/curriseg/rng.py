"""Deterministic random numbers via SplitMix64.

Every stochastic path in the library draws from this generator so that runs
are reproducible bit-for-bit across processes and across implementations in
other languages. The generator is SplitMix64 (Steele, Lea & Flood's
fixed-increment variant), fully specified by three constants:

    state    <- (state + 0x9E3779B97F4A7C15) mod 2^64      (per draw)
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

Because the state advances by a fixed increment, draw k (1-based) from seed s
is ``mix64(s + k * GOLDEN)``; block draws therefore vectorize over a counter.

Derived conventions, all part of the on-disk reproducibility contract:

* ``uniform``: a 53-bit mantissa double, ``(u >> 11) * 2**-53`` in [0, 1).
* ``normals``: Box-Muller on consecutive uniform pairs (u1, u2):
  ``r = sqrt(-2 ln(1 - u1))``, ``z0 = r cos(2 pi u2)``, ``z1 = r sin(2 pi u2)``,
  emitted in that order.
* ``below(n)``: ``next_u64() mod n`` (n is tiny everywhere we use it).
* ``shuffle``: backward Fisher-Yates, ``j = below(i + 1)`` for
  i = n-1 .. 1.
* substreams: ``derive_seed(seed, i)`` is output i+1 of the stream seeded
  with ``seed``, i.e. ``mix64(seed + (i + 1) * GOLDEN)``.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 output function on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Seed for substream `index`: output index+1 of the master stream."""
    return mix64((seed + (index + 1) * GOLDEN) & _MASK)


def _mix_block(states: np.ndarray) -> np.ndarray:
    # vectorized mix64 on a uint64 array
    z = states.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


class Rng:
    """Stateful SplitMix64 stream with vectorized block draws."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._count = 0  # draws consumed so far

    def next_u64(self) -> int:
        self._count += 1
        return mix64((self._seed + self._count * GOLDEN) & _MASK)

    def u64_block(self, n: int) -> np.ndarray:
        ks = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        states = np.uint64(self._seed) + ks * np.uint64(GOLDEN)
        return _mix_block(states)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        return (self.u64_block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller; pairs consumed in order."""
        m = (n + 1) // 2
        u = self.uniforms(2 * m)
        u1, u2 = u[0::2], u[1::2]
        r = np.sqrt(-2.0 * np.log1p(-u1))
        a = (2.0 * math.pi) * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(a)
        out[1::2] = r * np.sin(a)
        return out[:n]

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); modulo reduction by contract."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place backward Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
