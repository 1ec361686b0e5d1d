"""Deterministic pseudo-randomness for every seeded operation in the package.

All randomness flows from explicit 64-bit seeds through SplitMix64 streams.
Child seeds are derived with :func:`derive`, never by sharing streams, so any
unit of work (a scan, a tree, an evaluation seed) is a pure function of its
own seed and can run in parallel while producing the bytes a sequential run
would produce.

The generator is Vigna's SplitMix64: state advances by the 64-bit golden
ratio constant and each output is the avalanche mix of the new state. The
n-th output is therefore a closed-form function of (seed, n), which is what
makes the vectorized block draws below exactly equal to n scalar draws.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# 2**-53: a 53-bit integer mapped to [0, 1) keeps full double precision.
_INV53 = 1.0 / 9007199254740992.0

# numpy scalars for the block path, built once: each call then does array work only
_U64_GOLDEN, _U64_MIX1, _U64_MIX2 = (np.uint64(c) for c in (_GOLDEN, _MIX1, _MIX2))
_U64_27, _U64_30, _U64_31 = np.uint64(27), np.uint64(30), np.uint64(31)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def derive(seed: int, *parts: int | str) -> int:
    """Derive a child seed from ``seed`` and a role path.

    Strings are hashed as UTF-8, integers as 8-byte little-endian words,
    both with 64-bit FNV-1a; each part is folded into the running seed
    through ``mix64(seed ^ fnv1a(part))``. The derivation is part of the
    reproducibility contract: identical (seed, parts) yield identical
    streams everywhere, and distinct roles get decorrelated streams.
    """
    h = seed & _MASK64
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
        elif isinstance(part, (int, np.integer)):
            data = (int(part) & _MASK64).to_bytes(8, "little")
        else:
            raise TypeError(f"derive() parts must be str or int, got {type(part)!r}")
        h = mix64(h ^ _fnv1a(data))
    return h


class SplitMix64:
    """A single deterministic random stream.

    Scalar and block methods interleave freely: ``u64_block(n)`` consumes
    exactly the same state as n calls to ``next_u64``.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def u64_block(self, n: int) -> np.ndarray:
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _U64_GOLDEN
        z += np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        z ^= z >> _U64_30
        z *= _U64_MIX1
        z ^= z >> _U64_27
        z *= _U64_MIX2
        z ^= z >> _U64_31
        return z

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def uniform_block(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        u = (self.u64_block(n) >> np.uint64(11)).astype(np.float64) * _INV53
        return lo + (hi - lo) * u

    def normal_block(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive u64 pairs.

        Pair (a, b) yields (r cos t, r sin t) with r = sqrt(-2 ln u1),
        u1 = ((a >> 11) + 1) * 2**-53 in (0, 1], t = 2 pi u2,
        u2 = (b >> 11) * 2**-53 in [0, 1). Outputs interleave cos/sin.
        """
        pairs = (n + 1) // 2
        words = self.u64_block(2 * pairs)
        u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53
        u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * _INV53
        r = np.sqrt(-2.0 * np.log(u1))
        t = (2.0 * math.pi) * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(t)
        out[1::2] = r * np.sin(t)
        return out[:n]

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        if n > 1 << 64:  # the rejection limit would be 0 and reject every word
            raise ValueError("randrange() bound must be at most 2**64")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def randrange_block(self, n: int, count: int) -> np.ndarray:
        """``count`` uniform integers in [0, n) as uint64: the values and the
        final state of ``count`` scalar :meth:`randrange` calls.

        Each pass draws one word per value still missing and keeps the words
        below the rejection limit, so the words consumed are exactly those
        the scalar calls would consume, in the same order.
        """
        if not 0 < n < 1 << 64:
            raise ValueError("randrange_block() bound must be in [1, 2**64)")
        if count < 0:
            raise ValueError("randrange_block() count must be >= 0")
        limit = (1 << 64) - ((1 << 64) % n)  # 2**64 when n is a power of two
        out = np.empty(0, dtype=np.uint64)
        while out.size < count:
            words = self.u64_block(count - out.size)
            if limit <= _MASK64:
                words = words[words < np.uint64(limit)]
            out = np.concatenate([out, words])
        return out % np.uint64(n)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("randint() empty range")
        return lo + self.randrange(hi - lo + 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), via partial Fisher-Yates.

        Step i draws ``randrange(n - i)``. The k words are drawn as one
        block; on the first word the scalar rule would reject, the stream is
        rewound to it and the remaining steps run scalar, so the result and
        the final state equal the all-scalar shuffle.
        """
        if not 0 <= k <= n:
            raise ValueError("sample_indices() needs 0 <= k <= n")
        start = self._state
        pool = list(range(n))
        for i, x in enumerate(self.u64_block(k).tolist()):
            bound = n - i
            # the limit exceeds 2**64 - bound, so most words skip its modulo
            if x > _MASK64 - bound and x >= (1 << 64) - ((1 << 64) % bound):
                self._state = (start + i * _GOLDEN) & _MASK64
                for i in range(i, k):
                    j = i + self.randrange(n - i)
                    pool[i], pool[j] = pool[j], pool[i]
                break
            j = i + x % bound
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
