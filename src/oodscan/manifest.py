"""Cohort manifests: which scans exist, where their tensors live, ID/OOD labels.

Manifests are JSON; artifact paths are stored relative to the manifest file
so a cohort directory can be moved wholesale. Loading checks the records
(unique ids, known labels, artifact keys); the per-scan loaders parse each
tensor when a stage reads it, and every failure names the offending scan_id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_text_atomic
from .errors import DataError
from .ovf import read_ovf
from .volumes import STAGE_IDS, FeaturePyramid, Grid

COHORT_LABELS = ("ID", "OOD")


@dataclass(frozen=True)
class ScanRecord:
    scan_id: str
    cohort_label: str
    cohort_name: str
    volume: Path
    mask: Path
    logits: Path
    pyramid: tuple[Path, ...] | None = None


@dataclass(frozen=True)
class CohortManifest:
    dataset_name: str
    records: tuple[ScanRecord, ...]
    provenance: dict | None = None

    def cohort_names(self, label: str | None = None) -> list[str]:
        """Cohort names in first-appearance order, optionally by label."""
        seen: list[str] = []
        for rec in self.records:
            if label is not None and rec.cohort_label != label:
                continue
            if rec.cohort_name not in seen:
                seen.append(rec.cohort_name)
        return seen

    def by_cohort(self, cohort_name: str) -> list[ScanRecord]:
        return [r for r in self.records if r.cohort_name == cohort_name]


def load_manifest(path) -> CohortManifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {path} is not valid JSON: {exc}") from exc

    if not isinstance(doc, dict) or "dataset_name" not in doc or "records" not in doc:
        raise DataError(f"manifest {path} must carry dataset_name and records")

    base = path.parent
    records = []
    seen_ids: set[str] = set()
    for entry in doc["records"]:
        sid = entry.get("scan_id")
        if not sid or not isinstance(sid, str):
            raise DataError(f"manifest {path}: record without scan_id")
        if sid in seen_ids:
            raise DataError(f"manifest {path}: duplicate scan_id {sid!r}")
        seen_ids.add(sid)
        label = entry.get("cohort_label")
        if label not in COHORT_LABELS:
            raise DataError(f"scan {sid!r}: unknown cohort_label {label!r}")
        pyramid = entry.get("pyramid")
        if pyramid is not None:
            if len(pyramid) != len(STAGE_IDS):
                raise DataError(f"scan {sid!r}: pyramid must list {len(STAGE_IDS)} paths")
            pyramid = tuple(base / p for p in pyramid)
        try:
            rec = ScanRecord(
                scan_id=sid,
                cohort_label=label,
                cohort_name=entry.get("cohort_name", label),
                volume=base / entry["volume"],
                mask=base / entry["mask"],
                logits=base / entry["logits"],
                pyramid=pyramid,
            )
        except KeyError as exc:
            raise DataError(f"scan {sid!r}: missing artifact key {exc}") from exc
        records.append(rec)

    return CohortManifest(
        dataset_name=doc["dataset_name"],
        records=tuple(records),
        provenance=doc.get("provenance"),
    )


def save_manifest(manifest: CohortManifest, path) -> None:
    path = Path(path)
    base = path.parent

    def rel(p: Path) -> str:
        return Path(p).relative_to(base).as_posix() if Path(p).is_absolute() else str(p)

    doc = {
        "dataset_name": manifest.dataset_name,
        "records": [
            {
                "scan_id": r.scan_id,
                "cohort_label": r.cohort_label,
                "cohort_name": r.cohort_name,
                "volume": rel(r.volume),
                "mask": rel(r.mask),
                "logits": rel(r.logits),
                **({"pyramid": [rel(p) for p in r.pyramid]} if r.pyramid else {}),
            }
            for r in manifest.records
        ],
    }
    if manifest.provenance is not None:
        doc["provenance"] = manifest.provenance
    text = json.dumps(doc, indent=2) + "\n"
    # equal bytes keep the old mtime, so stages that read the manifest stay fresh
    if path.is_file() and path.read_text() == text:
        return
    write_text_atomic(path, text)


def _read(rec: ScanRecord, path) -> Grid:
    try:
        return read_ovf(path)
    except DataError as exc:
        raise DataError(f"scan {rec.scan_id!r}: {exc}") from exc


def load_volume(rec: ScanRecord) -> Grid:
    vol = _read(rec, rec.volume)
    if vol.data.ndim != 3 or vol.data.dtype != np.float32:
        raise DataError(f"scan {rec.scan_id!r}: {rec.volume} is not a scalar volume")
    return vol


def load_mask(rec: ScanRecord) -> Grid:
    mask = _read(rec, rec.mask)
    if mask.data.dtype != np.uint8:
        raise DataError(f"scan {rec.scan_id!r}: {rec.mask} is not a mask")
    return mask


def load_logits(rec: ScanRecord) -> Grid:
    logits = _read(rec, rec.logits)
    if logits.data.ndim != 4 or logits.channels != 2:
        raise DataError(f"scan {rec.scan_id!r}: {rec.logits} is not a 2-channel logit tensor")
    return logits


def load_pyramid(rec: ScanRecord, volume: Grid) -> FeaturePyramid:
    """Reassemble a scan's pyramid from its stage files.

    Each stage's downsample factor is the (rounded) ratio of its stored
    spacing to the companion volume's spacing, and its grid must be that
    volume's dims divided by the factor, rounded up.
    """
    if rec.pyramid is None:
        raise DataError(f"scan {rec.scan_id!r}: no pyramid in manifest (run encode first)")
    stages, factors = [], []
    for p in rec.pyramid:
        grid = _read(rec, p)
        ratios = [g / b for g, b in zip(grid.spacing, volume.spacing)]
        factor = int(round(ratios[0]))
        if factor < 1 or any(abs(r - factor) > 0.01 * factor for r in ratios):
            raise DataError(f"scan {rec.scan_id!r}: {p}: stage spacing {grid.spacing} is not "
                            f"an integer multiple of volume spacing {volume.spacing}")
        stages.append(grid)
        factors.append(factor)
    try:
        return FeaturePyramid(volume_dims=volume.dims, stages=tuple(stages),
                              factors=tuple(factors))
    except ValueError as exc:
        raise DataError(f"scan {rec.scan_id!r}: {exc}") from exc
