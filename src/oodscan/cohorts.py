"""Deterministic synthetic cohorts: volume + predicted mask + per-voxel logits.

Each scan is a pure function of (spec.seed, index). Blobs are ellipsoids on
the voxel lattice; the "predicted" mask is their union, the volume adds blob
texture on a noisy background, and the logits paint a confident tumor signal
inside the mask. The ``logit_miscalibration`` knob injects an extra positive
tumor logit inside the blobs, producing scans whose segmentation looks
plausible while the model's confidence is misleading — the failure mode that
breaks confidence-score baselines.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .manifest import CohortManifest, ScanRecord, is_file_stem, save_manifest
from .ovf import write_ovf
from .rng import SplitMix64, derive
from .volumes import Grid

# Fixed logit geometry: tumor logit is +GAIN inside blobs and -GAIN outside,
# the background channel stays near zero, both carry NOISE_STD jitter.
LOGIT_GAIN = 4.0
LOGIT_NOISE_STD = 0.5


@dataclass(frozen=True)
class CohortSpec:
    cohort_name: str
    cohort_label: str  # "ID" or "OOD"
    n_scans: int
    seed: int
    dims: tuple[int, int, int] = (32, 32, 32)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    blob_count: tuple[int, int] = (1, 3)
    blob_radius: tuple[float, float] = (3.0, 6.0)
    texture_mean: float = 0.25
    texture_std: float = 0.05
    background_mean: float = 0.30
    background_std: float = 0.05
    logit_miscalibration: float = 0.0

    def __post_init__(self):
        if not is_file_stem(self.cohort_name):
            raise ConfigError(f"cohort {self.cohort_name!r}: a cohort_name must be a plain "
                              "file-name stem (no '/', '\\' or NUL, not starting with '.')")
        if self.cohort_label not in ("ID", "OOD"):
            raise ConfigError(f"cohort {self.cohort_name!r}: label must be ID or OOD")
        if self.n_scans < 1:
            raise ConfigError(f"cohort {self.cohort_name!r}: empty cohort (n_scans >= 1)")
        if self.blob_count[0] < 0 or self.blob_count[1] < self.blob_count[0]:
            raise ConfigError(f"cohort {self.cohort_name!r}: bad blob_count range")
        if self.blob_radius[0] <= 0 or self.blob_radius[1] < self.blob_radius[0]:
            raise ConfigError(f"cohort {self.cohort_name!r}: bad blob_radius range")
        margin = 2 * math.ceil(self.blob_radius[1]) + 1
        if margin > min(self.dims):
            raise ConfigError(
                f"cohort {self.cohort_name!r}: blob radius {self.blob_radius[1]} "
                f"does not fit inside dims {self.dims}"
            )
        if self.texture_std < 0 or self.background_std < 0:
            raise ConfigError(f"cohort {self.cohort_name!r}: texture std must be >= 0")
        if self.texture_mean < 0 or self.background_mean < 0:
            raise ConfigError(f"cohort {self.cohort_name!r}: texture means must be >= 0")
        if self.logit_miscalibration < 0:
            raise ConfigError(f"cohort {self.cohort_name!r}: miscalibration must be >= 0")


def _paint_ellipsoid(mask: np.ndarray, center, radii) -> None:
    # Bounding box only; membership test ||(p - c) / r||_2 <= 1 on lattice points.
    lo = [max(0, math.floor(c - r)) for c, r in zip(center, radii)]
    hi = [min(n - 1, math.ceil(c + r)) for c, r, n in zip(center, radii, mask.shape)]
    zz, yy, xx = np.ogrid[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1]
    inside = (
        ((zz - center[0]) / radii[0]) ** 2
        + ((yy - center[1]) / radii[1]) ** 2
        + ((xx - center[2]) / radii[2]) ** 2
    ) <= 1.0
    mask[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1] |= inside


def generate_scan(spec: CohortSpec, index: int) -> tuple[Grid, Grid, Grid]:
    """Produce the (volume, mask, logits) triple for scan ``index``.

    Draw order from the per-scan stream (seed = derive(spec.seed, "scan", i)):
    blob count; per blob radii (z,y,x real) then integer center (z,y,x);
    then four noise blocks (background, blob texture, background-channel
    logit, tumor-channel logit). Changing any earlier draw shifts the rest,
    which is fine: determinism is per (spec, index), not across specs.
    The texture block is evaluated only inside the blobs, the one place the
    scan keeps it (``SplitMix64.normal_block_at``); the stream still moves
    past the whole block.
    """
    rng = SplitMix64(derive(spec.seed, "scan", index))
    dims = spec.dims
    n_vox = dims[0] * dims[1] * dims[2]

    n_blobs = rng.randint(spec.blob_count[0], spec.blob_count[1])
    mask = np.zeros(dims, dtype=bool)
    for _ in range(n_blobs):
        radii = [rng.uniform(spec.blob_radius[0], spec.blob_radius[1]) for _ in range(3)]
        center = [
            rng.randint(math.ceil(r), d - 1 - math.ceil(r)) for r, d in zip(radii, dims)
        ]
        _paint_ellipsoid(mask, center, radii)
    inside = np.flatnonzero(mask)

    volume = rng.normal_block(n_vox)
    volume *= spec.background_std
    volume += spec.background_mean
    texture = rng.normal_block_at(n_vox, inside)
    volume[inside] = volume[inside] + spec.texture_mean + spec.texture_std * texture
    np.clip(volume, 0.0, 1.0, out=volume)

    # channel 0 is the background logit, channel 1 the tumor logit: +GAIN
    # inside the blobs (plus any miscalibration) and -GAIN outside
    logits = np.empty((2, n_vox))
    np.multiply(rng.normal_block(n_vox), LOGIT_NOISE_STD, out=logits[0])
    tumor = np.multiply(rng.normal_block(n_vox), LOGIT_NOISE_STD, out=logits[1])
    hot = tumor[inside] + LOGIT_GAIN
    if spec.logit_miscalibration > 0.0:
        hot += spec.logit_miscalibration
    tumor -= LOGIT_GAIN
    tumor[inside] = hot
    return (Grid(volume.reshape(dims), spec.spacing), Grid(mask, spec.spacing),
            Grid(logits.reshape((2,) + dims), spec.spacing))


def make_cohort(specs: list[CohortSpec], out_dir, map_fn=map) -> CohortManifest:
    """Write all scan artifacts plus a manifest under ``out_dir``.

    ``map_fn`` lets callers parallelize the per-scan work; outputs are
    byte-identical to sequential execution either way.
    """
    out_dir = Path(out_dir)
    names = [s.cohort_name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate cohort names: {names}")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create {out_dir}: {exc}") from exc

    jobs = [(spec, i) for spec in specs for i in range(spec.n_scans)]

    def build(job):
        spec, i = job
        sid = f"{spec.cohort_name}_{i:04d}"
        vol, msk, logits = generate_scan(spec, i)
        paths = {
            "volume": out_dir / f"{sid}_vol.ovf",
            "mask": out_dir / f"{sid}_mask.ovf",
            "logits": out_dir / f"{sid}_logits.ovf",
        }
        write_ovf(vol, paths["volume"])
        write_ovf(msk, paths["mask"])
        write_ovf(logits, paths["logits"])
        return ScanRecord(
            scan_id=sid,
            cohort_label=spec.cohort_label,
            cohort_name=spec.cohort_name,
            volume=paths["volume"],
            mask=paths["mask"],
            logits=paths["logits"],
        )

    records = list(map_fn(build, jobs))
    provenance = {
        "generator": "oodscan synthetic cohorts",
        "specs": [asdict(spec) for spec in specs],
    }
    manifest = CohortManifest(
        dataset_name="+".join(names),
        records=tuple(records),
        provenance=provenance,
    )
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest
