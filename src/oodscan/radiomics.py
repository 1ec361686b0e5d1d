"""Radiomics-lite: 26 first-order and shape features over the masked region.

A deliberately small, fully documented feature set (14 first-order + 12
shape) that plays the comparison-classifier role at desk scale. Texture
matrix families are out of scope. ``radiomics_lite`` returns one float64 row
per scan: the 26 features, then the empty-mask flag, in ``RADIOMICS_NAMES``
order.

Conventions, fixed so results are reproducible across implementations:
first-order statistics use population moments (divide by n); percentiles
use linear interpolation between order statistics; the intensity histogram
has 64 equal bins on [0, 1] with a right-closed last bin; entropy uses the
natural log. Shape features count exposed voxel faces with per-orientation
physical face areas, and sphericity is (36 pi V^2)^(1/3) / A.
"""

from __future__ import annotations

import numpy as np

from .regions import EMPTY_MASK_FEATURE, foreground_voxels
from .volumes import Grid

FIRST_ORDER_NAMES = (
    "fo_mean",
    "fo_variance",
    "fo_skewness",
    "fo_kurtosis",
    "fo_min",
    "fo_max",
    "fo_median",
    "fo_p10",
    "fo_p90",
    "fo_iqr",
    "fo_rms",
    "fo_energy",
    "fo_entropy",
    "fo_uniformity",
)

SHAPE_NAMES = (
    "sh_voxel_count",
    "sh_volume_mm3",
    "sh_surface_mm2",
    "sh_surface_to_volume",
    "sh_sphericity",
    "sh_bbox_z",
    "sh_bbox_y",
    "sh_bbox_x",
    "sh_bbox_diag",
    "sh_centroid_off_z",
    "sh_centroid_off_y",
    "sh_centroid_off_x",
)

RADIOMICS_NAMES = FIRST_ORDER_NAMES + SHAPE_NAMES + (EMPTY_MASK_FEATURE,)

HISTOGRAM_BINS = 64


def _first_order(x: np.ndarray) -> list[float]:
    n = x.size
    mean = float(x.mean())
    var = float(((x - mean) ** 2).mean())
    if n < 2 or var == 0.0:
        skew, kurt = 0.0, 0.0
    else:
        std = var ** 0.5
        skew = float((((x - mean) / std) ** 3).mean())
        kurt = float((((x - mean) / std) ** 4).mean()) - 3.0
    p10, p25, med, p75, p90 = (float(v) for v in np.percentile(x, [10, 25, 50, 75, 90]))
    rms = float(np.sqrt((x ** 2).mean()))
    energy = float((x ** 2).sum())

    # right-closed last bin: values at exactly 1.0 land in bin 63
    idx = np.minimum((np.clip(x, 0.0, 1.0) * HISTOGRAM_BINS).astype(np.int64),
                     HISTOGRAM_BINS - 1)
    counts = np.bincount(idx, minlength=HISTOGRAM_BINS)
    p = counts[counts > 0] / n
    entropy = float(-(p * np.log(p)).sum())
    uniformity = float((p ** 2).sum())

    return [mean, var, skew, kurt, float(x.min()), float(x.max()), med,
            p10, p90, p75 - p25, rms, energy, entropy, uniformity]


def _surface_area(mask: np.ndarray, spacing) -> float:
    """Exposed-face count per orientation times the matching face area.

    Along each axis a face is exposed between unlike neighbours and on the
    volume's two outer sides wherever the mask is set.
    """
    face_area = (
        spacing[1] * spacing[2],  # faces orthogonal to z
        spacing[0] * spacing[2],  # orthogonal to y
        spacing[0] * spacing[1],  # orthogonal to x
    )
    total = 0.0
    m = mask.astype(bool)
    for axis, area in enumerate(face_area):
        v = np.moveaxis(m, axis, 0)
        exposed = (np.count_nonzero(v[1:] != v[:-1])
                   + np.count_nonzero(v[0]) + np.count_nonzero(v[-1]))
        total += float(exposed) * area
    return total


def _shape(mask: Grid) -> list[float]:
    coords = foreground_voxels(mask)
    n = coords[0].size
    spacing = mask.spacing
    volume = n * spacing[0] * spacing[1] * spacing[2]
    area = _surface_area(mask.data, spacing)
    sphericity = (36.0 * np.pi * volume ** 2) ** (1.0 / 3.0) / area
    bbox = np.array([c.max() - c.min() + 1 for c in coords])
    bbox_mm = bbox * np.array(spacing)
    diag = float(np.sqrt((bbox_mm ** 2).sum()))
    centroid = [c.mean() for c in coords]
    # offset of the mask centroid from the volume center, normalized per axis
    offsets = [(c - (d - 1) / 2.0) / d for c, d in zip(centroid, mask.dims)]
    return [float(n), volume, area, area / volume, sphericity,
            float(bbox_mm[0]), float(bbox_mm[1]), float(bbox_mm[2]), diag,
            offsets[0], offsets[1], offsets[2]]


def radiomics_lite(volume: Grid, mask: Grid) -> np.ndarray:
    """First-order + shape features over masked voxels of a [0, 1] volume,
    as a float64 array in ``RADIOMICS_NAMES`` order.

    An empty mask yields all-zero features with the empty-mask flag set.
    """
    if volume.dims != mask.dims:
        raise ValueError(f"volume dims {volume.dims} != mask dims {mask.dims}")
    sel = mask.data.astype(bool)
    if not sel.any():
        values = np.zeros(len(RADIOMICS_NAMES))
        values[-1] = 1.0
        return values

    intensities = volume.data[sel].astype(np.float64)
    return np.array(_first_order(intensities) + _shape(mask) + [0.0])
