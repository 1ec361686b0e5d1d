"""Dense 3-D tensors shared by the whole pipeline.

One validated type, ``Grid``, carries every tensor: volumes, masks, logits
and encoder stages. Axis order is fixed to (z, y, x) with x fastest
everywhere; channel tensors put the channel axis first. The dtype decides
the kind, as the OVF dtype byte does: bool or uint8 data is a 3-D mask of
0/1 values, anything else becomes finite float32 of shape (z, y, x) or
(C, z, y, x). Instances are treated as immutable after construction and are
safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STAGE_IDS = ("PE", "SB1", "SB2", "SB3", "SB4")

Dims = tuple[int, int, int]
Spacing = tuple[float, float, float]


@dataclass(frozen=True)
class Grid:
    """A mask, scalar volume or channel-major tensor with physical cell
    spacing (mm per cell along z, y, x)."""

    data: np.ndarray
    spacing: Spacing = (1.0, 1.0, 1.0)

    def __post_init__(self):
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 3 or any(not np.isfinite(s) or s <= 0 for s in spacing):
            raise ValueError(f"spacing must be 3 positive reals, got {spacing}")
        data = np.asarray(self.data)
        if data.dtype in (np.bool_, np.uint8):
            data = np.ascontiguousarray(data, dtype=np.uint8)
            if data.ndim != 3:
                raise ValueError(f"mask must be 3-D, got shape {data.shape}")
        else:
            data = np.ascontiguousarray(data, dtype=np.float32)
            if data.ndim not in (3, 4):
                raise ValueError(f"grid must be 3-D or 4-D, got shape {data.shape}")
        if 0 in data.shape:
            raise ValueError(f"grid shape {data.shape} has a zero-length axis")
        if data.dtype == np.uint8:
            if data.max() > 1:
                raise ValueError("mask values must be 0 or 1")
        elif not np.all(np.isfinite(data)):
            raise ValueError("grid data contains non-finite values")
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "data", data)

    @property
    def dims(self) -> Dims:
        return self.data.shape[-3:]

    @property
    def channels(self) -> int:
        return self.data.shape[0] if self.data.ndim == 4 else 1


@dataclass(frozen=True)
class FeaturePyramid:
    """Ordered 5-stage feature hierarchy for one scan.

    Stage i is ``STAGE_IDS[i]``; ``factors[i]`` is its downsampling factor
    and its spacing is the volume spacing times that factor. The on-disk
    format stores spacing rather than the factor, which is recovered from
    the spacing ratio when a pyramid is reassembled from files.
    """

    volume_dims: Dims
    stages: tuple[Grid, ...]
    factors: tuple[int, ...]

    def __post_init__(self):
        volume_dims = tuple(int(d) for d in self.volume_dims)
        if len(volume_dims) != 3 or any(d <= 0 for d in volume_dims):
            raise ValueError(f"volume dims must be 3 positive integers, got {volume_dims}")
        stages, factors = tuple(self.stages), tuple(int(f) for f in self.factors)
        if len(stages) != len(STAGE_IDS) or len(factors) != len(STAGE_IDS):
            raise ValueError("pyramid must hold exactly the stages PE,SB1,SB2,SB3,SB4 in order")
        for i, (stage_id, s, f) in enumerate(zip(STAGE_IDS, stages, factors)):
            if s.data.ndim != 4:
                raise ValueError(f"stage {stage_id} must be a channel-major (C, z, y, x) grid")
            if f <= (factors[i - 1] if i else 0):
                raise ValueError(f"stage {stage_id} factor {f} must be >= 1 and exceed "
                                 "the previous stage's (factors strictly increase)")
            if i and s.channels < stages[i - 1].channels:
                raise ValueError(f"stage {stage_id} has fewer channels than the previous "
                                 "stage (channel counts are non-decreasing)")
            expect = tuple(-(-d // f) for d in volume_dims)  # ceil division
            if s.dims != expect:
                raise ValueError(
                    f"stage {stage_id} grid {s.dims} != ceil(volume dims / {f}) = {expect}"
                )
        object.__setattr__(self, "volume_dims", volume_dims)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "factors", factors)
