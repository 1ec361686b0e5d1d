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

from .rng import SplitMix64, derive
from .volumes import STAGE_IDS, FeaturePyramid, Grid

# The last column of every feature row: 1.0 when the (crop-restricted) mask was
# empty and whole-region statistics were used instead. An empty prediction is
# itself evidence the scan is unlike the training data, so the classifier
# gets to see it.
EMPTY_MASK_FEATURE = "empty_mask"

# The 13 of the 26 neighbour offsets that come later in C order: every pair
# of touching voxels is one edge from the earlier voxel to the later one.
_FORWARD_26 = np.array([d for d in np.ndindex(3, 3, 3) if d > (1, 1, 1)]) - 1


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
    contained in the component. Each array lists its voxels in C order.

    Union-find over the foreground voxels, numbered in C order: each voxel
    has an edge to each of its 13 later neighbours, found through an index
    volume padded by one background voxel per side. Each round hooks the
    larger root of every edge whose ends have different roots onto the
    smaller one (``np.minimum.at``), then jumps pointers until every voxel
    points at its root (after Shiloach & Vishkin 1982). A voxel's parent
    never exceeds it, so each component's root is its first voxel.
    """
    padded = tuple(d + 2 for d in mask.data.shape)
    fg = np.zeros(padded, dtype=bool)
    fg[1:-1, 1:-1, 1:-1] = mask.data
    at = np.flatnonzero(fg)  # the padded volume's C order is the mask's
    n = at.size
    if n == 0:
        return []
    index = np.full(fg.size, -1, dtype=np.intp)
    index[at] = np.arange(n)
    later = index[at[:, None] + _FORWARD_26 @ np.array([padded[1] * padded[2], padded[2], 1])]
    touching = later >= 0
    a = np.nonzero(touching)[0]
    b = later[touching]
    parent = np.arange(n)
    while a.size:
        ra, rb = parent[a], parent[b]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
        apart = parent[a] != parent[b]
        a, b = a[apart], b[apart]
    roots, sizes = np.unique(parent, return_counts=True)
    vox = np.column_stack(np.unravel_index(at, padded)) - 1
    groups = np.split(vox[np.argsort(parent, kind="stable")], np.cumsum(sizes)[:-1])
    return [groups[i] for i in np.lexsort((roots, -sizes))]


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
        vox = np.argwhere(mask.data[crop.slices()]) + crop.origin
        parts = []
        fallback = False
        for stage, f in zip(pyramid.stages, pyramid.factors):
            lo = [o // f for o in crop.origin]
            hi = [
                min(-(-(o + s) // f), g)
                for o, s, g in zip(crop.origin, crop.size, stage.dims)
            ]
            # a stage cell is covered when any mask voxel of the crop falls in it
            stage_mask = np.zeros([b - a for a, b in zip(lo, hi)], dtype=bool)
            stage_mask[tuple((vox // f - lo).T)] = True
            sl = tuple(slice(a, b) for a, b in zip(lo, hi))
            values, fb = masked_mean(stage.data[(slice(None),) + sl], stage_mask)
            fallback = fallback or fb
            parts.append(values)
        parts.append(np.array([1.0 if fallback else 0.0]))
        rows.append(np.concatenate(parts))
    return np.stack(rows)
