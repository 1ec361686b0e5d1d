"""Pipeline stages and orchestration with content-hash idempotence.

Each stage writes its outputs plus a stamp file recording the config hash;
`pipeline` skips a stage when its stamp matches the current hash and all
declared outputs still exist. Stage failures surface as StageError with the
stage name prefixed, so the CLI can emit one machine-readable error line.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .config import RunConfig
from .cohorts import make_cohort
from .encoder import toy_encode
from .errors import DataError, OodscanError
from .forest import fit_forest, load_model, save_model
from .manifest import (
    CohortManifest,
    ScanRecord,
    load_manifest,
    load_mask,
    load_logits,
    load_pyramid,
    load_volume,
    save_manifest,
)
from .ovf import write_ovf
from .parallel import make_map_fn
from .protocol import METHOD_ORDER, repeated_split_eval
from .radiomics import RADIOMICS_NAMES, radiomics_lite
from .regions import deep_feature_names, deep_feature_vector, tumor_crops
from .report import (
    read_per_seed_csv,
    render_summary_text,
    write_ablation_csv,
    write_per_seed_csv,
    write_summary_csv,
    write_summary_text,
)
from .rng import derive
from .scores import METHODS as SCORE_METHODS
from .scores import ScoreConfig, scan_score
from .tables import (
    FeatureTable,
    read_feature_table,
    read_scores_csv,
    write_feature_table,
    write_scores_csv,
)
from .treeshap import tree_shap

class StageError(OodscanError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage={stage}: {cause}")
        self.stage = stage
        self.cause = cause


def _paths(cfg: RunConfig) -> dict[str, Path]:
    w = cfg.work_dir
    return {
        "manifest": cfg.manifest,
        "deep": w / "features_deep.csv",
        "radiomics": w / "features_radiomics.csv",
        "scores": w / "scores.csv",
        "model_deep": w / "rf_deep.model.json",
        "model_radiomics": w / "rf_radiomics.model.json",
        "per_seed": w / "per_seed.csv",
        "summary_csv": w / "summary.csv",
        "summary_txt": w / "summary.txt",
        "ablation": w / "ablation.csv",
    }


def _stamp_path(cfg: RunConfig, stage: str) -> Path:
    return cfg.work_dir / ".stamps" / f"{stage}.json"


def write_stamp(cfg: RunConfig, stage: str, outputs: list[Path]) -> None:
    p = _stamp_path(cfg, stage)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps({
        "stage": stage,
        "config_hash": cfg.config_hash(),
        "outputs": [str(o) for o in outputs],
    }, indent=2) + "\n")


def stamp_is_fresh(cfg: RunConfig, stage: str) -> bool:
    p = _stamp_path(cfg, stage)
    if not p.is_file():
        return False
    try:
        doc = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    if doc.get("config_hash") != cfg.config_hash():
        return False
    return all(Path(o).exists() for o in doc.get("outputs", []))


def stage_gen(cfg: RunConfig) -> list[Path]:
    if not cfg.cohorts:
        raise DataError("config lists no cohorts to generate")
    manifest = make_cohort(list(cfg.cohorts), cfg.work_dir,
                           map_fn=make_map_fn(cfg.threads))
    outputs = [cfg.manifest]
    for rec in manifest.records:
        outputs += [rec.volume, rec.mask, rec.logits]
    return outputs


def stage_encode(cfg: RunConfig) -> list[Path]:
    manifest = load_manifest(cfg.manifest)
    map_fn = make_map_fn(cfg.threads)

    def encode_one(rec: ScanRecord) -> ScanRecord:
        volume = load_volume(rec)
        pyramid = toy_encode(volume, cfg.encoder)
        paths = []
        for i, stage in enumerate(pyramid.stages):
            p = cfg.work_dir / f"{rec.scan_id}_p{i}.ovf"
            write_ovf(stage, p)
            paths.append(p)
        return ScanRecord(**{**rec.__dict__, "pyramid": tuple(paths)})

    records = map_fn(encode_one, manifest.records)
    updated = CohortManifest(dataset_name=manifest.dataset_name,
                             records=tuple(records),
                             provenance=manifest.provenance,
                             path=manifest.path)
    save_manifest(updated, cfg.manifest)
    outputs = [cfg.manifest]
    for rec in records:
        outputs += list(rec.pyramid)
    return outputs


def stage_extract(cfg: RunConfig) -> list[Path]:
    manifest = load_manifest(cfg.manifest)
    base_seed = cfg.protocol.base_seed
    map_fn = make_map_fn(cfg.threads)

    def extract_one(rec: ScanRecord):
        volume = load_volume(rec)
        mask = load_mask(rec)
        pyramid = load_pyramid(rec, volume)
        crops = tumor_crops(
            mask,
            k=cfg.crops.count,
            crop_size=cfg.crops.size,
            jitter_radius=cfg.crops.jitter_radius,
            seed=derive(base_seed, "crops", rec.scan_id),
        )
        return (deep_feature_names(pyramid),
                deep_feature_vector(pyramid, mask, crops),
                radiomics_lite(volume, mask))

    records = manifest.records
    if not records:
        raise DataError(f"manifest {cfg.manifest} lists no scans")
    results = map_fn(extract_one, records)
    deep_names = results[0][0]
    for rec, (names, _, _) in zip(records, results):
        if names != deep_names:
            raise DataError(f"scan {rec.scan_id!r}: deep feature columns differ "
                            f"from those of scan {records[0].scan_id!r}")

    def table(kind, names, per_scan, values) -> FeatureTable:
        return FeatureTable(
            kind=kind,
            names=names,
            scan_ids=tuple(r.scan_id for r in records for _ in range(per_scan)),
            labels=tuple(r.cohort_label for r in records for _ in range(per_scan)),
            crop_indices=tuple(range(per_scan)) * len(records),
            values=values,
        )

    paths = _paths(cfg)
    write_feature_table(table("deep", deep_names, cfg.crops.count,
                              np.concatenate([rows for _, rows, _ in results])),
                        paths["deep"])
    write_feature_table(table("radiomics", RADIOMICS_NAMES, 1,
                              np.stack([rad for _, _, rad in results])),
                        paths["radiomics"])
    return [paths["deep"], paths["radiomics"]]


def stage_score(cfg: RunConfig) -> list[Path]:
    manifest = load_manifest(cfg.manifest)
    map_fn = make_map_fn(cfg.threads)
    configs = [ScoreConfig(method=m, temperature=cfg.temperature)
               for m in SCORE_METHODS]

    def score_one(rec: ScanRecord):
        mask = load_mask(rec)
        logits = load_logits(rec)
        return [
            (rec.scan_id, rec.cohort_label, s.method, s.value, s.fallback_used)
            for s in (scan_score(logits, mask, c, scan_id=rec.scan_id)
                      for c in configs)
        ]

    rows = [row for chunk in map_fn(score_one, manifest.records) for row in chunk]
    paths = _paths(cfg)
    write_scores_csv(rows, paths["scores"])
    return [paths["scores"]]


def stage_train(cfg: RunConfig) -> list[Path]:
    paths = _paths(cfg)
    outputs = []
    for kind, table_path, model_path in (
        ("deep", paths["deep"], paths["model_deep"]),
        ("radiomics", paths["radiomics"], paths["model_radiomics"]),
    ):
        table = read_feature_table(table_path, kind)
        y = [1 if lbl == "OOD" else 0 for lbl in table.labels]
        forest = fit_forest(table.values, y, cfg.forest,
                            derive(cfg.protocol.base_seed, "train", kind),
                            feature_names=table.names)
        save_model(forest, model_path)
        outputs.append(model_path)
    return outputs


def stage_eval(cfg: RunConfig) -> list[Path]:
    paths = _paths(cfg)
    manifest = load_manifest(cfg.manifest, validate=False)
    deep = read_feature_table(paths["deep"], "deep")
    radiomics = read_feature_table(paths["radiomics"], "radiomics")
    baselines = read_scores_csv(paths["scores"])
    report = repeated_split_eval(
        manifest,
        methods=METHOD_ORDER,
        deep_table=deep,
        radiomics_table=radiomics,
        baseline_scores=baselines,
        rf_params=cfg.forest,
        rfe_target=cfg.rfe_target,
        rfe_step=cfg.rfe_step,
        train_frac=cfg.protocol.train_frac,
        n_seeds=cfg.protocol.n_seeds,
        base_seed=cfg.protocol.base_seed,
        map_fn=make_map_fn(cfg.threads),
    )
    write_per_seed_csv(report, paths["per_seed"])
    write_summary_csv(report, paths["summary_csv"])
    write_summary_text(report, paths["summary_txt"])
    return [paths["per_seed"], paths["summary_csv"], paths["summary_txt"]]


def stage_report(cfg: RunConfig) -> list[Path]:
    paths = _paths(cfg)
    report = read_per_seed_csv(paths["per_seed"])
    write_summary_csv(report, paths["summary_csv"])
    write_summary_text(report, paths["summary_txt"])
    print(render_summary_text(report), end="")
    return [paths["summary_csv"], paths["summary_txt"]]


def run_ablate(cfg: RunConfig) -> Path:
    """Stage-wise evaluation: rf_deep restricted to one stage's features."""
    paths = _paths(cfg)
    manifest = load_manifest(cfg.manifest, validate=False)
    deep = read_feature_table(paths["deep"], "deep")
    stage_reports = {}
    for stage in cfg.ablate_stages:
        keep = [i for i, n in enumerate(deep.names) if n.startswith(f"{stage}_")]
        if not keep:
            raise DataError(f"deep feature table has no columns for stage {stage}")
        sub = deep.select_columns(keep)
        stage_reports[stage] = repeated_split_eval(
            manifest,
            methods=("rf_deep",),
            deep_table=sub,
            rf_params=cfg.forest,
            train_frac=cfg.protocol.train_frac,
            n_seeds=cfg.protocol.n_seeds,
            base_seed=cfg.protocol.base_seed,
            map_fn=make_map_fn(cfg.threads),
        )
    write_ablation_csv(stage_reports, paths["ablation"])
    return paths["ablation"]


def run_explain(cfg: RunConfig, kind: str = "deep", limit: int | None = None) -> Path:
    """Exact per-feature attributions for every (scan, crop) row."""
    paths = _paths(cfg)
    model_path = paths["model_deep"] if kind == "deep" else paths["model_radiomics"]
    table = read_feature_table(paths[kind], kind)
    forest = load_model(model_path)
    if forest.feature_names != table.names:
        raise DataError(f"model {model_path} was fit on other columns than {paths[kind]}")
    out_path = cfg.work_dir / f"shap_{kind}.csv"
    n_rows = len(table.scan_ids) if limit is None else min(limit, len(table.scan_ids))
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scan_id", "crop_index", "base_value", "prediction",
                         *table.names])
        for i in range(n_rows):
            exp = tree_shap(forest, table.values[i])
            writer.writerow([
                table.scan_ids[i], table.crop_indices[i],
                repr(float(exp.base_value)), repr(float(exp.prediction)),
                *(repr(float(v)) for v in exp.contributions),
            ])
    return out_path


_STAGE_FNS = {  # in pipeline run order
    "gen": stage_gen,
    "encode": stage_encode,
    "extract": stage_extract,
    "score": stage_score,
    "train": stage_train,
    "eval": stage_eval,
    "report": stage_report,
}
PIPELINE_STAGES = tuple(_STAGE_FNS)


def run_stage(cfg: RunConfig, stage: str) -> list[Path]:
    cfg.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        outputs = _STAGE_FNS[stage](cfg)
    except Exception as exc:
        raise StageError(stage, exc) from exc
    write_stamp(cfg, stage, outputs)
    return outputs


def run_pipeline(cfg: RunConfig, force: bool = False) -> list[str]:
    """gen -> encode -> extract -> score -> train -> eval -> report.

    Returns the list of stages that actually ran (others were skipped as
    up to date).
    """
    ran = []
    for stage in PIPELINE_STAGES:
        if not force and stamp_is_fresh(cfg, stage):
            continue
        run_stage(cfg, stage)
        ran.append(stage)
    return ran
