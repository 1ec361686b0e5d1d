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


def foreground_voxels(mask: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The z, y and x indices of the mask's set voxels in C order: those of
    ``np.nonzero(mask.data)``, which took 7 times as long on a 32^3 mask."""
    return np.unravel_index(np.flatnonzero(mask.data.view(bool)), mask.dims)


def component_roots(mask: Grid) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """26-connectivity foreground components as union-find roots.

    Returns ``foreground_voxels(mask)`` and, for each of those voxels, the
    position in that order of its component's root. A voxel's parent never
    exceeds it, so each component's root is its first voxel.

    Each voxel has an edge to each of its 13 later neighbours, found through
    an index volume padded by one background voxel per side. Each round
    hooks the larger root of every edge whose ends have different roots onto
    the smaller one (``np.minimum.at``), then jumps pointers until every
    voxel points at its root (after Shiloach & Vishkin 1982).
    """
    zyx = foreground_voxels(mask)
    n = zyx[0].size
    pz, py, px = (d + 2 for d in mask.dims)
    at = ((zyx[0] + 1) * py + zyx[1] + 1) * px + zyx[2] + 1
    index = np.full(pz * py * px, -1, dtype=np.intp)
    index[at] = np.arange(n)
    later = index[at[:, None] + _FORWARD_26 @ np.array([py * px, px, 1])]
    edges = np.flatnonzero(later >= 0)
    a, b = edges // len(_FORWARD_26), later.ravel()[edges]
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
    return zyx, parent


def largest_component_centroid(mask: Grid) -> tuple[float, float, float] | None:
    """Mean voxel index of the largest 26-connected component; of equal
    ones, the one whose first voxel in C order comes first. None when the
    mask is empty."""
    zyx, root = component_roots(mask)
    if root.size == 0:
        return None
    # roots are first voxels, so argmax's first maximum breaks ties that way
    members = root == np.bincount(root).argmax()
    return tuple(c[members].mean() for c in zyx)


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
    mask covers, then the empty-mask flag. A crop without mask voxels takes
    the means over all those cells instead and sets the flag. Mask voxels
    outside the crop can never influence the result.

    One pass per stage serves every crop: the sorted unique (crop, cell)
    keys of the crops' voxels list each crop's covered cells in C order, and
    one gather converts them all to float64. Each crop's means are then
    ``np.add.reduce`` over its run of cells divided by their count, the
    operands and order of ``mean`` over the cells picked by a stage mask.
    """
    for crop in crops:
        if any(o + s > d for o, s, d in zip(crop.origin, crop.size, mask.dims)):
            raise ValueError(f"crop {crop} exceeds volume dims {mask.dims}")
    lo = np.array([crop.origin for crop in crops]).T
    hi = lo + np.array([crop.size for crop in crops]).T
    zyx = foreground_voxels(mask)
    inside = np.ones((len(crops), zyx[0].size), dtype=bool)
    for c, a, b in zip(zyx, lo, hi):
        inside &= (c >= a[:, None]) & (c < b[:, None])
    owner, at = np.divmod(np.flatnonzero(inside), zyx[0].size)
    z, y, x = (c[at] for c in zyx)
    empty = np.bincount(owner, minlength=len(crops)) == 0

    width = sum(stage.channels for stage in pyramid.stages)
    rows = np.empty((len(crops), width + 1))
    col = 0
    for stage, f in zip(pyramid.stages, pyramid.factors):
        channels, (gz, gy, gx) = stage.channels, stage.dims
        keys = np.sort(((owner * gz + z // f) * gy + y // f) * gx + x // f)
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        crop_of, cell = np.divmod(keys[first], gz * gy * gx)
        bounds = np.searchsorted(crop_of, np.arange(len(crops) + 1))
        flat = stage.data.reshape(channels, -1)
        vals = flat[:, cell].astype(np.float64)
        for i, crop in enumerate(crops):
            if empty[i]:
                window = stage.data[(slice(None),) + tuple(
                    slice(o // f, min(-(-(o + s) // f), g))
                    for o, s, g in zip(crop.origin, crop.size, stage.dims))]
                means = window.reshape(channels, -1).astype(np.float64).mean(axis=1)
            else:
                a, b = bounds[i], bounds[i + 1]
                means = np.add.reduce(vals[:, a:b], axis=1) / (b - a)
            rows[i, col:col + channels] = means
        col += channels
    rows[:, -1] = empty
    return rows
