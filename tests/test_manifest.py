import json

import numpy as np
import pytest

from oodscan.errors import DataError
from oodscan.manifest import (
    load_manifest,
    load_mask,
    load_pyramid,
    load_volume,
    save_manifest,
)
from oodscan.ovf import write_ovf
from oodscan.volumes import Grid


def write_scan_files(directory, sid, dims=(2, 2, 2)):
    rng = np.random.default_rng(hash(sid) % 2**32)
    vol = Grid(rng.random(dims).astype(np.float32), (1, 1, 1))
    mask = Grid(rng.integers(0, 2, dims).astype(np.uint8))
    logits = Grid(rng.normal(size=(2,) + dims).astype(np.float32))
    write_ovf(vol, directory / f"{sid}_vol.ovf")
    write_ovf(mask, directory / f"{sid}_mask.ovf")
    write_ovf(logits, directory / f"{sid}_logits.ovf")
    return {
        "scan_id": sid,
        "cohort_label": "ID",
        "cohort_name": "lung",
        "volume": f"{sid}_vol.ovf",
        "mask": f"{sid}_mask.ovf",
        "logits": f"{sid}_logits.ovf",
    }


def write_manifest(directory, records):
    p = directory / "manifest.json"
    p.write_text(json.dumps({"dataset_name": "t", "records": records}))
    return p


def test_load_valid_manifest_preserves_order(tmp_path):
    records = [write_scan_files(tmp_path, f"s{i}") for i in range(3)]
    m = load_manifest(write_manifest(tmp_path, records))
    assert [r.scan_id for r in m.records] == ["s0", "s1", "s2"]
    assert m.cohort_names() == ["lung"]


def test_duplicate_scan_id_names_offender(tmp_path):
    rec = write_scan_files(tmp_path, "s1")
    with pytest.raises(DataError, match="s1"):
        load_manifest(write_manifest(tmp_path, [rec, dict(rec)]))


def test_empty_records_is_valid(tmp_path):
    m = load_manifest(write_manifest(tmp_path, []))
    assert m.records == ()


def test_missing_mask_file_reports_path(tmp_path):
    rec = write_scan_files(tmp_path, "s2")
    (tmp_path / "s2_mask.ovf").unlink()
    m = load_manifest(write_manifest(tmp_path, [rec]))
    with pytest.raises(DataError, match="s2_mask.ovf"):
        load_mask(m.records[0])


def test_unknown_cohort_label(tmp_path):
    rec = write_scan_files(tmp_path, "s3")
    rec["cohort_label"] = "MAYBE"
    with pytest.raises(DataError, match="unknown cohort_label"):
        load_manifest(write_manifest(tmp_path, [rec]))


def test_corrupt_artifact_names_scan(tmp_path):
    rec = write_scan_files(tmp_path, "s4")
    raw = bytearray((tmp_path / "s4_vol.ovf").read_bytes())
    raw[0] ^= 0xFF
    (tmp_path / "s4_vol.ovf").write_bytes(bytes(raw))
    m = load_manifest(write_manifest(tmp_path, [rec]))
    with pytest.raises(DataError, match="scan 's4'"):
        load_volume(m.records[0])


def test_save_load_round_trip(tmp_path):
    records = [write_scan_files(tmp_path, f"r{i}") for i in range(2)]
    m = load_manifest(write_manifest(tmp_path, records))
    out = tmp_path / "copy.json"
    save_manifest(m, out)
    again = load_manifest(out)
    assert [r.scan_id for r in again.records] == [r.scan_id for r in m.records]
    assert all(r.volume.is_file() for r in again.records)


def test_load_pyramid_requires_encode(tmp_path):
    rec = write_scan_files(tmp_path, "s5")
    m = load_manifest(write_manifest(tmp_path, [rec]))
    with pytest.raises(DataError, match="encode"):
        load_pyramid(m.records[0], load_volume(m.records[0]))
