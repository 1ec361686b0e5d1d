import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from oodscan import parallel, pipeline
from oodscan.cli import main
from oodscan.config import ProtocolConfig, RunConfig
from oodscan.errors import DataError
from oodscan.forest import RFParams
from oodscan.manifest import CohortManifest, ScanRecord
from oodscan.protocol import repeated_split_eval, split_cohort
from oodscan.rng import SplitMix64, derive
from oodscan.tables import FeatureTable, write_feature_table
from test_cli import write_config


def fake_manifest(n_id=10, n_ood=10):
    records = []
    for i in range(n_id):
        records.append(ScanRecord(
            scan_id=f"lung_{i:04d}", cohort_label="ID", cohort_name="lung",
            volume="x", mask="x", logits="x"))
    for i in range(n_ood):
        records.append(ScanRecord(
            scan_id=f"pe_{i:04d}", cohort_label="OOD", cohort_name="pe",
            volume="x", mask="x", logits="x"))
    return CohortManifest(dataset_name="t", records=tuple(records))


def feature_tables(manifest, crops=2, d=4, gap=3.0, seed=0):
    """Separable deep (``crops`` rows a scan) and radiomics (one row a scan) tables."""
    rng = SplitMix64(seed)
    deep_rows, rad_rows = [], []
    for rec in manifest.records:
        shift = gap if rec.cohort_label == "OOD" else 0.0
        deep_rows += [rng.normal_block(d) + shift for _ in range(crops)]
        rad_rows.append(rng.normal_block(d) + shift)

    def table(kind, rows):
        return FeatureTable(
            kind=kind,
            names=tuple(f"{kind[0]}{j}" for j in range(d)),
            scan_ids=tuple(r.scan_id for r in manifest.records),
            labels=tuple(r.cohort_label for r in manifest.records),
            values=np.stack(rows),
        )

    return table("deep", deep_rows), table("radiomics", rad_rows)


def baseline_scores(manifest, quality=1.0, seed=3):
    rng = SplitMix64(seed)
    out = {m: {} for m in ("maxsoftmax", "maxlogit", "energy", "entropy")}
    for rec in manifest.records:
        base = quality if rec.cohort_label == "OOD" else 0.0
        for m in out:
            out[m][rec.scan_id] = base + 0.1 * rng.normal_block(1)[0]
    return out


def run_config(n_seeds, base_seed):
    """The 40/60 protocol over ``n_seeds`` seeds with small forests."""
    return RunConfig(work_dir=Path("work"), manifest=Path("work/manifest.json"),
                     forest=RFParams(n_trees=8, max_depth=5),
                     protocol=ProtocolConfig(n_seeds=n_seeds, base_seed=base_seed))


def run(manifest, n_seeds=3):
    deep, rad = feature_tables(manifest)
    return repeated_split_eval(
        manifest,
        run_config(n_seeds, base_seed=42),
        deep_table=deep,
        radiomics_table=rad,
        baseline_scores=baseline_scores(manifest),
    )


def test_split_counts_forty_sixty():
    split = split_cohort([f"s{i}" for i in range(10)], 0.4, seed=1)
    assert len(split.train) == 4 and len(split.test) == 6


def test_split_partitions_scan_ids():
    ids = [f"s{i}" for i in range(13)]
    for s in range(50):
        split = split_cohort(ids, 0.4, derive(99 ^ s, "split", "c"))
        assert sorted(split.train + split.test) == sorted(ids)
        assert not set(split.train) & set(split.test)


def test_split_rejects_tiny_cohort():
    with pytest.raises(DataError, match="cannot be split"):
        split_cohort(["only"], 0.4, seed=0)


def test_report_shape_and_determinism():
    manifest = fake_manifest()
    a = run(manifest)
    b = run(manifest)
    assert a.methods == ("maxsoftmax", "maxlogit", "energy", "entropy",
                         "rf_radiomics", "rf_deep")
    assert a.cohorts == ("pe",)
    for key, res in a.results.items():
        assert len(res.per_seed) == 3
        assert all(0.0 <= v <= 100.0 for pair in res.per_seed for v in pair)
        assert res.per_seed == b.results[key].per_seed


def test_baselines_computed_once_with_zero_std():
    report = run(fake_manifest(), n_seeds=4)
    res = report.results[("energy", "pe")]
    assert len(set(res.per_seed)) == 1
    assert res.auroc_std == 0.0 and res.fpr95_std == 0.0


def test_separable_features_score_high():
    report = run(fake_manifest())
    for method in ("rf_deep", "rf_radiomics"):
        res = report.results[(method, "pe")]
        assert res.auroc_mean >= 95.0
        assert res.fpr95_mean <= 20.0


def test_rf_methods_vary_across_seeds_with_weak_features():
    manifest = fake_manifest(n_id=8, n_ood=8)
    deep, rad = feature_tables(manifest, gap=0.4, seed=9)
    report = repeated_split_eval(manifest, run_config(5, base_seed=7), ("rf_deep",),
                                 deep_table=deep)
    res = report.results[("rf_deep", "pe")]
    assert len(set(res.per_seed)) > 1  # different splits, different metrics


def test_missing_feature_rows_detected(tmp_path):
    """The protocol trusts its tables to cover the manifest; the pipeline
    refuses a table short of two scans where it reads it, naming the file."""
    manifest = fake_manifest()
    deep, rad = feature_tables(manifest)
    trimmed = FeatureTable(
        kind="deep", names=deep.names,
        scan_ids=deep.scan_ids[2:], labels=deep.labels[2:],
        values=deep.values[2 * deep.crops:],
    )
    cfg = RunConfig(work_dir=tmp_path, manifest=tmp_path / "manifest.json")
    write_feature_table(trimmed, tmp_path / "features_deep.csv")
    with pytest.raises(DataError, match=re.escape(str(tmp_path / "features_deep.csv"))
                       + r": no feature rows for 2 manifest scan\(s\), first "
                       r"\['lung_0000', 'lung_0001'\]"):
        pipeline._labelled_table(cfg, manifest, "deep")


def test_missing_baseline_scores_detected():
    manifest = fake_manifest()
    with pytest.raises(DataError, match="requires baseline scores"):
        repeated_split_eval(manifest, run_config(1, base_seed=0), ("energy",))


def test_only_gen_and_encode_use_a_thread_pool(tmp_path, monkeypatch):
    """Forest fitting and extraction hold the interpreter lock, so a second
    thread only adds contention; just the OVF-writing stages get a pool."""
    pooled = []
    command = None

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pooled.append(command)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)
    cfg = str(write_config(tmp_path))
    for command in ("gen", "encode", "extract", "score", "train", "eval",
                    "report", "ablate", "explain"):
        assert main([command, "--config", cfg, "--threads", "4"]) == 0
    assert pooled == ["gen", "encode"]
