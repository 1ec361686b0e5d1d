"""Tumor-region machinery: components, crops, and masked multi-scale features.

The deep feature vector for one crop is the concatenation, over the five
pyramid stages, of the per-channel mean of stage features across the stage
cells covered by the (crop-restricted) mask. A scan yields one vector per
crop; classifier probabilities, not features, are averaged downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .rng import SplitMix64, derive
from .volumes import STAGE_IDS, FeaturePyramid, Grid

# Appended to every feature vector: 1.0 when the (crop-restricted) mask was
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


@dataclass(frozen=True)
class FeatureVector:
    scan_id: str
    kind: str  # "deep" | "radiomics"
    names: tuple[str, ...]
    values: np.ndarray  # float64
    stage_slices: dict | None = None  # deep only: stage_id -> (start, stop)
    crop_index: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if len(self.names) != values.size:
            raise ValueError("names and values must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("feature names must be unique")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature values must all be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))


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


def downsample_mask_to_stage(mask: Grid, factor: int) -> np.ndarray:
    """Any-coverage (max-pool) reduction onto a ceil(dims/factor) grid."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return mask.data.astype(bool)
    out = mask.data.astype(bool)
    for axis in range(3):
        n = out.shape[axis]
        starts = np.arange(0, n, factor)
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


def deep_feature_names(pyramid: FeaturePyramid) -> tuple[list[str], dict]:
    names: list[str] = []
    slices: dict = {}
    for stage_id, stage in zip(STAGE_IDS, pyramid.stages):
        start = len(names)
        names.extend(f"{stage_id}_{c:03d}" for c in range(stage.channels))
        slices[stage_id] = (start, len(names))
    names.append(EMPTY_MASK_FEATURE)
    return names, slices


def deep_feature_vector(
    pyramid: FeaturePyramid,
    mask: Grid,
    crops: list[CropBox],
    scan_id: str = "",
) -> list[FeatureVector]:
    """One masked multi-scale feature vector per crop.

    Per crop: zero the mask outside the crop, reduce it onto each stage grid,
    restrict the stage grid to cells [floor(o/f), ceil((o+size)/f)) per axis,
    and take per-channel masked means; stages concatenate PE||SB1..||SB4.
    Mask voxels outside the crop can never influence the result.
    """
    names, slices = deep_feature_names(pyramid)
    vectors = []
    for crop_index, crop in enumerate(crops):
        if any(o + s > d for o, s, d in zip(crop.origin, crop.size, mask.dims)):
            raise ValueError(f"crop {crop} exceeds volume dims {mask.dims}")
        cropped = np.zeros(mask.dims, dtype=np.uint8)
        cropped[crop.slices()] = mask.data[crop.slices()]
        cropped_mask = Grid(cropped, mask.spacing)

        parts = []
        fallback = False
        for stage, f in zip(pyramid.stages, pyramid.factors):
            lo = [o // f for o in crop.origin]
            hi = [
                min(-(-(o + s) // f), g)
                for o, s, g in zip(crop.origin, crop.size, stage.dims)
            ]
            sl = tuple(slice(a, b) for a, b in zip(lo, hi))
            stage_mask = downsample_mask_to_stage(cropped_mask, f)[sl]
            values, fb = masked_mean(stage.data[(slice(None),) + sl], stage_mask)
            fallback = fallback or fb
            parts.append(values)
        parts.append(np.array([1.0 if fallback else 0.0]))
        vectors.append(
            FeatureVector(
                scan_id=scan_id,
                kind="deep",
                names=tuple(names),
                values=np.concatenate(parts),
                stage_slices=slices,
                crop_index=crop_index,
            )
        )
    return vectors
