"""Tumor-region machinery: components, crops, and masked multi-scale features.

The deep feature row for one crop is the concatenation, over the five
pyramid stages, of the per-channel mean of stage features across the stage
cells covered by the (crop-restricted) mask. A scan yields a (crops,
features) array, one row per crop; classifier probabilities, not features,
are averaged downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .rng import SplitMix64, derive
from .volumes import STAGE_IDS, FeaturePyramid, Grid

# The last column of every feature row: 1.0 when the (crop-restricted) mask was
# empty and whole-region statistics were used instead. An empty prediction is
# itself evidence the scan is unlike the training data, so the classifier
# gets to see it.
EMPTY_MASK_FEATURE = "empty_mask"

_CONNECTIVITY_26 = np.ones((3, 3, 3), dtype=bool)


@dataclass(frozen=True)
class CropBox:
    origin: tuple[int, int, int]
    size: tuple[int, int, int]

    def __post_init__(self):
        if any(s <= 0 for s in self.size):
            raise ValueError(f"crop size must be positive, got {self.size}")
        if any(o < 0 for o in self.origin):
            raise ValueError(f"crop origin must be non-negative, got {self.origin}")

    def slices(self) -> tuple[slice, slice, slice]:
        return tuple(slice(o, o + s) for o, s in zip(self.origin, self.size))


def connected_components(mask: Grid) -> list[np.ndarray]:
    """26-connectivity foreground components as (n_i, 3) voxel index arrays.

    Sorted by size descending; ties broken by the smallest (z, y, x) voxel
    contained in the component.
    """
    labels, n = ndimage.label(mask.data, structure=_CONNECTIVITY_26)
    comps = []
    for lbl in range(1, n + 1):
        coords = np.argwhere(labels == lbl)
        comps.append(coords)
    comps.sort(key=lambda c: (-len(c), tuple(c[0])))  # argwhere rows are C-ordered
    return comps


def largest_component_centroid(mask: Grid) -> tuple[float, float, float] | None:
    comps = connected_components(mask)
    if not comps:
        return None
    return tuple(comps[0].mean(axis=0))


def tumor_crops(
    mask: Grid,
    k: int = 8,
    crop_size: tuple[int, int, int] = (16, 16, 16),
    jitter_radius: int = 2,
    seed: int = 0,
) -> list[CropBox]:
    """k fixed-size crops around the largest tumor component's centroid.

    Crop 0 uses zero jitter; crops 1..k-1 displace the center by independent
    uniform integers in [-jitter_radius, +jitter_radius] per axis (drawn
    z, y, x per crop from the stream seeded by derive(seed, "crops")), then
    clamp so the box stays inside the volume. An empty mask centers crops on
    the volume midpoint instead of failing: downstream features carry an
    explicit empty-mask flag.
    """
    if k < 1:
        raise ValueError("need at least one crop")
    dims = mask.dims
    if any(c > d for c, d in zip(crop_size, dims)):
        raise ValueError(f"crop size {crop_size} exceeds volume dims {dims}")

    centroid = largest_component_centroid(mask)
    if centroid is None:
        center = [d // 2 for d in dims]
    else:
        center = [math.floor(c + 0.5) for c in centroid]  # round half up

    rng = SplitMix64(derive(seed, "crops"))
    crops = []
    for i in range(k):
        if i == 0:
            jitter = (0, 0, 0)
        else:
            jitter = tuple(rng.randint(-jitter_radius, jitter_radius) for _ in range(3))
        origin = []
        for c, j, s, d in zip(center, jitter, crop_size, dims):
            o = c + j - s // 2
            origin.append(min(max(o, 0), d - s))
        crops.append(CropBox(origin=tuple(origin), size=tuple(crop_size)))
    return crops


def downsample_mask_to_stage(mask: np.ndarray, factor: int) -> np.ndarray:
    """Any-coverage (max-pool) reduction of a 3-D 0/1 array onto a
    ceil(dims/factor) grid whose cells start at multiples of ``factor``."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    out = mask.astype(bool)
    for axis in range(3):
        starts = np.arange(0, out.shape[axis], factor)
        out = np.maximum.reduceat(out, starts, axis=axis)
    return out


def masked_mean(stage_data: np.ndarray, stage_mask: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-channel mean of (C, ...) data over mask cells.

    Empty mask falls back to the mean over the whole grid and reports it.
    """
    flat = stage_data.reshape(stage_data.shape[0], -1).astype(np.float64)
    sel = stage_mask.reshape(-1).astype(bool)
    if sel.any():
        return flat[:, sel].mean(axis=1), False
    return flat.mean(axis=1), True


def deep_feature_names(pyramid: FeaturePyramid) -> tuple[str, ...]:
    """Column names of the rows ``deep_feature_vector`` returns."""
    names = tuple(f"{stage_id}_{c:03d}"
                  for stage_id, stage in zip(STAGE_IDS, pyramid.stages)
                  for c in range(stage.channels))
    return names + (EMPTY_MASK_FEATURE,)


def deep_feature_vector(
    pyramid: FeaturePyramid,
    mask: Grid,
    crops: list[CropBox],
) -> np.ndarray:
    """Masked multi-scale features as a float64 (crops, features) array.

    Row i belongs to crops[i]; its columns are ``deep_feature_names``: per
    stage PE||SB1..||SB4 the per-channel mean of the stage features over the
    cells [floor(o/f), ceil((o+size)/f)) per axis that the crop-restricted
    mask covers, then the empty-mask flag. Mask voxels outside the crop can
    never influence the result.
    """
    rows = []
    for crop in crops:
        if any(o + s > d for o, s, d in zip(crop.origin, crop.size, mask.dims)):
            raise ValueError(f"crop {crop} exceeds volume dims {mask.dims}")
        crop_mask = mask.data[crop.slices()]
        parts = []
        fallback = False
        for stage, f in zip(pyramid.stages, pyramid.factors):
            lo = [o // f for o in crop.origin]
            hi = [
                min(-(-(o + s) // f), g)
                for o, s, g in zip(crop.origin, crop.size, stage.dims)
            ]
            # The crop zero-padded to the voxels [lo*f, hi*f) of the stage
            # cells it touches; the window starts on a multiple of f, so its
            # pooled cells are exactly the stage's cells lo..hi.
            pad = [(o - a * f, min(b * f, d) - o - s) for o, s, a, b, d
                   in zip(crop.origin, crop.size, lo, hi, mask.dims)]
            stage_mask = downsample_mask_to_stage(np.pad(crop_mask, pad), f)
            sl = tuple(slice(a, b) for a, b in zip(lo, hi))
            values, fb = masked_mean(stage.data[(slice(None),) + sl], stage_mask)
            fallback = fallback or fb
            parts.append(values)
        parts.append(np.array([1.0 if fallback else 0.0]))
        rows.append(np.concatenate(parts))
    return np.stack(rows)
