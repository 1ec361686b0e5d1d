"""Toy hierarchical encoder producing the 5-stage feature pyramid.

Stands in for a pretrained transformer encoder at desk scale: the patch
embedding stage average-pools non-overlapping patch_size^3 blocks and mixes
the pooled scalar into ``widths[0]`` channels through a seeded fixed linear
map plus tanh; every subsequent stage halves the grid with a 2^3 average
pool and applies its own seeded channel map plus tanh. The multi-scale,
locally mixing structure the downstream classifier consumes is preserved
while the computation stays dependency-free, and real encoder exports can
replace the output because only the FeaturePyramid interface is shared:
five channel-major ``Grid`` stages plus their downsampling factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import SplitMix64, derive
from .volumes import FeaturePyramid, Grid


@dataclass(frozen=True)
class ToyEncoderConfig:
    patch_size: int = 2
    widths: tuple[int, int, int, int, int] = (8, 8, 16, 32, 64)
    seed: int = 101

    def __post_init__(self):
        if self.patch_size < 1:
            raise ConfigError("patch_size must be >= 1")
        if len(self.widths) != 5 or any(w < 1 for w in self.widths):
            raise ConfigError("widths must be 5 positive channel counts")
        if any(b < a for a, b in zip(self.widths, self.widths[1:])):
            raise ConfigError("stage widths must be non-decreasing")


def _pool_axis(arr: np.ndarray, axis: int, k: int) -> np.ndarray:
    """Average-pool one axis with window k; a trailing partial window is
    averaged over the cells it actually covers (ceil-division grid)."""
    if k == 1:
        return arr
    n = arr.shape[axis]
    starts = np.arange(0, n, k)
    sums = np.add.reduceat(arr, starts, axis=axis)
    counts = np.minimum(starts + k, n) - starts
    shape = [1] * arr.ndim
    shape[axis] = len(starts)
    return sums / counts.reshape(shape)


def avg_pool3(arr: np.ndarray, k: int) -> np.ndarray:
    """Average-pool the last three axes by factor k (ceil output grid)."""
    out = arr
    for axis in (-3, -2, -1):
        out = _pool_axis(out, axis % out.ndim, k)
    return out


@functools.cache
def stage_weights(cfg: ToyEncoderConfig, stage_index: int, fan_in: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed linear map for one stage, drawn from the documented stream.

    Entries are uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); the weight matrix
    comes first in row-major (out, in) order, then the bias vector. Drawn
    once per (cfg, stage_index, fan_in) and shared by every scan, so both
    arrays are read-only.
    """
    out = cfg.widths[stage_index]
    rng = SplitMix64(derive(cfg.seed, "encoder", stage_index))
    bound = 1.0 / math.sqrt(fan_in)
    w = rng.uniform_block(out * fan_in, -bound, bound).reshape(out, fan_in)
    b = rng.uniform_block(out, -bound, bound)
    w.flags.writeable = b.flags.writeable = False
    return w, b


def toy_encode(volume: Grid, cfg: ToyEncoderConfig) -> FeaturePyramid:
    if any(d % cfg.patch_size != 0 for d in volume.dims):
        raise ValueError(
            f"patch_size {cfg.patch_size} must divide volume dims {volume.dims}"
        )

    factors = tuple(cfg.patch_size * 2 ** s for s in range(5))
    stages = []
    for s, factor in enumerate(factors):
        if s == 0:
            pooled = avg_pool3(volume.data.astype(np.float64), cfg.patch_size)
            w, b = stage_weights(cfg, 0, fan_in=1)
            current = np.tanh(w[:, 0, None, None, None] * pooled[None, :, :, :]
                              + b[:, None, None, None])
        else:
            pooled = avg_pool3(current, 2)
            w, b = stage_weights(cfg, s, fan_in=current.shape[0])
            current = np.tanh(np.einsum("oi,izyx->ozyx", w, pooled) + b[:, None, None, None])
        stages.append(Grid(current, tuple(sp * factor for sp in volume.spacing)))

    return FeaturePyramid(volume_dims=volume.dims, stages=tuple(stages), factors=factors)
