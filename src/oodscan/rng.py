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
Scalar ``randrange`` is the reference rejection rule; the array draws decide
rejection in one place, ``_keep``.
"""

from __future__ import annotations

import functools
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
_U64_GOLDEN, _U64_MIX1, _U64_MIX2, _U64_FNV_PRIME = (
    np.uint64(c) for c in (_GOLDEN, _MIX1, _MIX2, _FNV_PRIME))
_U64_27, _U64_30, _U64_31 = np.uint64(27), np.uint64(30), np.uint64(31)

# Words drawn at once by ``tree_streams``: (streams, n + k) blocks of at most this
# many. A 200-tree fit on 1,440 x 129 features peaked at 1.45 MB with 1 << 13
# (1.38 MB drawing tree by tree) and at 2.47 MB with 1 << 16, no faster.
_SETUP_WORDS = 1 << 13


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_block(z: np.ndarray) -> np.ndarray:
    """``mix64`` of every word of the uint64 array ``z``, in place."""
    z ^= z >> _U64_30
    z *= _U64_MIX1
    z ^= z >> _U64_27
    z *= _U64_MIX2
    z ^= z >> _U64_31
    return z


def _keep(words: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which uint64 ``words`` ``randrange(b)`` keeps for uint64 ``bounds`` b, and
    ``words % b``: a word's multiple of b at or below it, plus b, must fit in 2**64."""
    rem = words % bounds
    return words - rem <= -bounds, rem


def _box_muller(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius r and angle t of the Box-Muller pairs of uint64 words (a, b)."""
    u1 = ((a >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53
    u2 = (b >> np.uint64(11)).astype(np.float64) * _INV53
    return np.sqrt(-2.0 * np.log(u1)), (2.0 * math.pi) * u2


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


def derive_block(seed: int, parts) -> np.ndarray:
    """``derive(seed, t)`` for every integer ``t`` of ``parts``, as uint64:
    FNV-1a over each ``t``'s 8 little-endian bytes, all at once."""
    t = np.array(parts, dtype=np.uint64)
    h = np.full(t.shape, _FNV_OFFSET, dtype=np.uint64)
    for shift in range(0, 64, 8):
        h = (h ^ (t >> np.uint64(shift)) & np.uint64(0xFF)) * _U64_FNV_PRIME
    return _mix_block(h ^ np.uint64(seed & _MASK64))


class SplitMix64:
    """A single deterministic random stream.

    Scalar and block methods interleave freely: ``u64_block`` and
    ``randrange_each`` consume exactly the state of the scalar calls they stand for.
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
        return _mix_block(z)

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
        r, t = _box_muller(words[0::2], words[1::2])
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(t)
        out[1::2] = r * np.sin(t)
        return out[:n]

    def normal_block_at(self, n: int, idx: np.ndarray) -> np.ndarray:
        """``normal_block(n)[idx]`` bit for bit, drawing only the pairs it keeps:
        output i comes from words 2 (i // 2) + 1 and 2 (i // 2) + 2. The state
        still advances past the whole block."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size and not (0 <= idx.min() and idx.max() < n):
            raise ValueError("normal_block_at() indices must lie in [0, n)")
        first = (idx & -2).astype(np.uint64) + np.uint64(1)
        words = _mix_block(np.add.outer(first, np.arange(2, dtype=np.uint64)) * _U64_GOLDEN
                           + np.uint64(self._state))
        self._state = (self._state + 2 * ((n + 1) // 2) * _GOLDEN) & _MASK64
        r, t = _box_muller(words[:, 0], words[:, 1])
        return r * np.where(idx & 1, np.sin(t), np.cos(t))

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

    def randrange_each(self, bounds: np.ndarray) -> np.ndarray:
        """One :meth:`randrange` per bound of the uint64 array ``bounds``, in order:
        the same values (as uint64), words and final state. Each pass keeps the
        words before the first rejected one, consumes that one and goes on."""
        if not bounds.all():
            raise ValueError("randrange_each() bounds must be positive")
        out, i = np.empty_like(bounds), 0
        while i < bounds.size:
            keep, rem = _keep(SplitMix64(self._state).u64_block(bounds.size - i), bounds[i:])
            kept = keep.size if keep.all() else int(keep.argmin())
            out[i:i + kept] = rem[:kept]
            self._state = (self._state + min(kept + 1, keep.size) * _GOLDEN) & _MASK64
            i += kept
        return out

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


@functools.cache
def _steps(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The bounds ``n - i`` and offsets ``i`` of ``_BLOCK`` draws' steps, read-only uint64."""
    offsets = np.tile(np.arange(k, dtype=np.uint64), IndexSubsets._BLOCK)
    bounds = np.uint64(n) - offsets
    bounds.flags.writeable = offsets.flags.writeable = False
    return bounds, offsets


class IndexSubsets:
    """Successive draws of ``k`` distinct indices from range(n) out of ``rng``:
    partial Fisher-Yates, step i swapping in ``i + rng.randrange(n - i)``.
    The subsets own ``rng``, their tree's stream: the first draw's swaps are
    ``first`` when given, the others come ``_BLOCK`` draws at a time from
    ``rng.randrange_each``, so the stream runs ahead of the draws made.
    """

    _BLOCK = 16  # a tree draws once per split; one block holds 99 % of `hard`'s trees

    def __init__(self, rng: SplitMix64, n: int, k: int, *, first: list[int] | None = None):
        if not 0 <= k <= n:
            raise ValueError("IndexSubsets needs 0 <= k <= n")
        self.rng, self.n, self.k = rng, n, k
        self._swaps = [] if first is None else [first]

    def draw(self) -> list[int]:
        if not self._swaps:
            bounds, offsets = _steps(self.n, self.k)
            swaps = self.rng.randrange_each(bounds) + offsets
            self._swaps = swaps.reshape(self._BLOCK, self.k).tolist()[::-1]
        pool = list(range(self.n))
        for i, j in enumerate(self._swaps.pop()):
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:self.k]


def tree_streams(seeds: np.ndarray, n: int, d: int, k: int):
    """Per seed, what ``rng = SplitMix64(seed)`` gives scalar: the intp rows of
    n ``rng.randrange(n)`` calls, then ``IndexSubsets(rng, d, k)``.
    Words 1..n (the rows) and n+1..n+k (the first draw) of a chunk of streams
    are one array, as word j is ``mix64(seed + j * GOLDEN)``; a stream with a
    word the scalar rule rejects draws wholly from ``SplitMix64(seed)``.
    """
    bounds, offsets = _steps(d, k)
    bounds = np.concatenate([np.full(n, n, dtype=np.uint64), bounds[:k]])
    steps = np.arange(1, n + k + 1, dtype=np.uint64) * _U64_GOLDEN
    chunk = max(1, _SETUP_WORDS // (n + k))
    for lo in range(0, len(seeds), chunk):
        keep, rem = _keep(_mix_block(np.add.outer(seeds[lo:lo + chunk], steps)), bounds)
        rows, first = rem[:, :n].view(np.intp), (rem[:, n:] + offsets[:k]).tolist()
        for i, (seed, ok) in enumerate(zip(seeds[lo:lo + chunk].tolist(),
                                           keep.all(axis=1).tolist())):
            rng = SplitMix64(seed + (n + k) * _GOLDEN if ok else seed)  # past the words taken
            yield ((rows[i], IndexSubsets(rng, d, k, first=first[i])) if ok else
                   (rng.randrange_each(bounds[:n]).view(np.intp), IndexSubsets(rng, d, k)))
