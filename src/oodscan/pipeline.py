"""Commands, declared once in ``COMMANDS``, and `run_stage`, which runs each.

After a command runs, its stamp records the hash of its config slice, its
options and the ``[size, mtime_ns]`` of every file it read. `pipeline` runs
``STAGES`` and skips one whose stamp equals the one it would write now and
whose outputs all exist. Failures surface as StageError naming the command.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Callable

import numpy as np

from .config import RunConfig
from .cohorts import make_cohort
from .encoder import toy_encode
from .errors import ConfigError, DataError, OodscanError
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
from .parallel import parallel_map
from .protocol import METHOD_ORDER, fitted_width, repeated_split_eval
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
    csv_writer,
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
        **{f"shap_{kind}": w / f"shap_{kind}.csv" for kind in ("deep", "radiomics")},
    }


def _labelled_table(cfg: RunConfig, manifest: CohortManifest, kind: str) -> FeatureTable:
    """Read a feature table with a feature column and rows for exactly the
    manifest's scans, each scan's cohort_label the manifest's."""
    path = _paths(cfg)[kind]
    table = read_feature_table(path, kind)
    if not table.names:
        raise DataError(f"{path}: no feature columns")
    labels = {r.scan_id: r.cohort_label for r in manifest.records}
    for sid, label in zip(table.scan_ids, table.labels):
        if labels.get(sid) != label:
            raise DataError(f"{path}: scan {sid!r} is labelled {label!r}, "
                            f"the manifest says {labels.get(sid)!r}")
    _require_scans(path, "feature rows", manifest, set(table.scan_ids))
    return table


def _require_scans(path: Path, what: str, manifest: CohortManifest, present: set) -> None:
    """Refuse the table at ``path`` when it has no ``what`` for a manifest scan."""
    missing = [r.scan_id for r in manifest.records if r.scan_id not in present]
    if missing:
        raise DataError(f"{path}: no {what} for {len(missing)} manifest scan(s), "
                        f"first {missing[:3]}")


def _check_max_features(cfg: RunConfig, widths: dict[str, int]) -> None:
    """Refuse, before any fit, a ``forest.max_features`` above a table's width."""
    for table, width in widths.items():
        try:
            cfg.forest.resolve_max_features(width)
        except ValueError as exc:
            raise ConfigError(f"forest.max_features {cfg.forest.max_features} exceeds "
                              f"the {width} columns of {table}") from exc


def stage_gen(cfg: RunConfig) -> None:
    if not cfg.cohorts:
        raise DataError("config lists no cohorts to generate")
    make_cohort(list(cfg.cohorts), cfg.work_dir,
                map_fn=lambda fn, items: parallel_map(fn, items, cfg.threads))


def stage_encode(cfg: RunConfig) -> None:
    manifest = load_manifest(cfg.manifest)

    def encode_one(rec: ScanRecord) -> ScanRecord:
        volume = load_volume(rec)
        if any(d % cfg.encoder.patch_size for d in volume.dims):
            raise ConfigError(f"encoder.patch_size {cfg.encoder.patch_size} does not divide "
                              f"the dims {list(volume.dims)} of scan {rec.scan_id!r}")
        pyramid = toy_encode(volume, cfg.encoder)
        paths = []
        for i, stage in enumerate(pyramid.stages):
            p = cfg.work_dir / f"{rec.scan_id}_p{i}.ovf"
            write_ovf(stage, p)
            paths.append(p)
        return dataclasses.replace(rec, pyramid=tuple(paths))

    records = tuple(parallel_map(encode_one, manifest.records, cfg.threads))
    save_manifest(dataclasses.replace(manifest, records=records), cfg.manifest)


def stage_extract(cfg: RunConfig) -> None:
    records = load_manifest(cfg.manifest).records
    if not records:
        raise DataError(f"manifest {cfg.manifest} lists no scans")
    deep_rows, radiomics_rows = [], []
    for rec in records:
        volume = load_volume(rec)
        mask = load_mask(rec)
        if any(c > d for c, d in zip(cfg.crops.size, mask.dims)):
            raise ConfigError(f"crops.size {list(cfg.crops.size)} exceeds the dims "
                              f"{list(mask.dims)} of scan {rec.scan_id!r}")
        pyramid = load_pyramid(rec, volume)
        names = deep_feature_names(pyramid)
        if deep_rows and names != deep_names:
            raise DataError(f"scan {rec.scan_id!r}: deep feature columns differ "
                            f"from those of scan {records[0].scan_id!r}")
        deep_names = names
        crops = tumor_crops(
            mask,
            k=cfg.crops.count,
            crop_size=cfg.crops.size,
            jitter_radius=cfg.crops.jitter_radius,
            seed=derive(cfg.protocol.base_seed, "crops", rec.scan_id),
        )
        deep_rows.append(deep_feature_vector(pyramid, mask, crops))
        radiomics_rows.append(radiomics_lite(volume, mask))

    ids, labels = zip(*((r.scan_id, r.cohort_label) for r in records))
    for kind, names, values in (("deep", deep_names, np.concatenate(deep_rows)),
                                ("radiomics", RADIOMICS_NAMES, np.stack(radiomics_rows))):
        write_feature_table(FeatureTable(kind, names, ids, labels, values), _paths(cfg)[kind])


def stage_score(cfg: RunConfig) -> None:
    configs = [ScoreConfig(method=m, temperature=cfg.temperature)
               for m in SCORE_METHODS]
    rows = []
    for rec in load_manifest(cfg.manifest).records:
        mask = load_mask(rec)
        logits = load_logits(rec)
        for c in configs:
            score = scan_score(logits, mask, c, scan_id=rec.scan_id)
            rows.append((rec.scan_id, rec.cohort_label, score.method,
                         score.value, score.fallback_used))
    write_scores_csv(rows, _paths(cfg)["scores"])


def stage_train(cfg: RunConfig) -> None:
    manifest = load_manifest(cfg.manifest)
    paths = _paths(cfg)
    tables = {kind: _labelled_table(cfg, manifest, kind) for kind in ("deep", "radiomics")}
    _check_max_features(cfg, {str(paths[kind]): len(t.names) for kind, t in tables.items()})
    for kind, table in tables.items():
        y = np.repeat([lbl == "OOD" for lbl in table.labels], table.crops)
        forest = fit_forest(table.values, y, cfg.forest,
                            derive(cfg.protocol.base_seed, "train", kind),
                            feature_names=table.names)
        save_model(forest, paths[f"model_{kind}"])


def stage_eval(cfg: RunConfig) -> None:
    paths = _paths(cfg)
    manifest = load_manifest(cfg.manifest)
    deep = _labelled_table(cfg, manifest, "deep")
    radiomics = _labelled_table(cfg, manifest, "radiomics")
    baselines = read_scores_csv(paths["scores"])
    for method in SCORE_METHODS:
        _require_scans(paths["scores"], f"{method} score", manifest,
                       set(baselines.get(method, ())))
    _check_max_features(cfg, {str(paths["deep"]): len(deep.names),
                              f"{paths['radiomics']} after rfe_target {cfg.rfe_target}":
                              fitted_width(len(radiomics.names), cfg.rfe_target)})
    report = repeated_split_eval(manifest, cfg, METHOD_ORDER, deep_table=deep,
                                 radiomics_table=radiomics, baseline_scores=baselines)
    write_per_seed_csv(report, paths["per_seed"])
    write_summary_csv(report, paths["summary_csv"])
    write_summary_text(report, paths["summary_txt"])


def stage_report(cfg: RunConfig) -> None:
    paths = _paths(cfg)
    report = read_per_seed_csv(paths["per_seed"])
    if report.protocol["n_seeds"] != cfg.protocol.n_seeds:
        raise DataError(f"{paths['per_seed']}: {report.protocol['n_seeds']} seeds, "
                        f"protocol.n_seeds is {cfg.protocol.n_seeds}")
    write_summary_csv(report, paths["summary_csv"])
    write_summary_text(report, paths["summary_txt"])
    print(render_summary_text(report), end="")


def stage_ablate(cfg: RunConfig) -> None:
    """Stage-wise evaluation: rf_deep restricted to one stage's features."""
    paths = _paths(cfg)
    manifest = load_manifest(cfg.manifest)
    deep = _labelled_table(cfg, manifest, "deep")
    columns = {}
    for stage in cfg.ablate_stages:
        columns[stage] = [i for i, n in enumerate(deep.names) if n.startswith(f"{stage}_")]
        if not columns[stage]:
            raise DataError(f"deep feature table has no columns for stage {stage}")
    _check_max_features(cfg, {f"stage {s} of {paths['deep']}": len(c) for s, c in columns.items()})
    stage_reports = {stage: repeated_split_eval(manifest, cfg, ("rf_deep",),
                                                deep_table=deep.select_columns(keep))
                     for stage, keep in columns.items()}
    write_ablation_csv(stage_reports, paths["ablation"])


def stage_explain(cfg: RunConfig, kind: str = "deep", limit: int | None = None) -> None:
    """Exact per-feature attributions for every (scan, crop) row."""
    paths = _paths(cfg)
    model_path = paths[f"model_{kind}"]
    table = _labelled_table(cfg, load_manifest(cfg.manifest), kind)
    forest = load_model(model_path)
    if forest.feature_names != table.names:
        raise DataError(f"model {model_path} was fit on other columns than {paths[kind]}")
    with csv_writer(paths[f"shap_{kind}"]) as writer:
        writer.writerow(["scan_id", "crop_index", "base_value", "prediction", *table.names])
        for i, row in enumerate(table.values[:limit]):
            exp = tree_shap(forest, row)
            writer.writerow([table.scan_ids[i // table.crops], i % table.crops,
                             repr(float(exp.base_value)), repr(float(exp.prediction)),
                             *(repr(float(v)) for v in exp.contributions)])


def _limit(text: str) -> int:
    """``explain --limit``: argparse's ``int``, but a negative one is a ConfigError."""
    if (count := int(text)) < 0:
        raise ConfigError(f"--limit must be >= 0, got {count}")
    return count


@dataclasses.dataclass(frozen=True)
class Stage:
    """One command and everything its stamp depends on.

    ``config`` lists dotted RunConfig fields. A name in ``reads`` or
    ``writes`` is a `_paths` key or a ScanRecord field; a field expands over
    the manifest's records (``pyramid`` to its stage files). ``options``, the
    command's flags as (name, argparse keywords), go to ``run`` and the stamp.
    """
    name: str
    help: str
    run: Callable[..., None]
    config: tuple[str, ...]
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    options: tuple[tuple[str, dict], ...] = ()


STAGES = (  # in pipeline run order
    Stage("gen", "generate synthetic cohorts and a manifest", stage_gen,
          ("cohorts",), (), ("manifest", "volume", "mask", "logits")),
    Stage("encode", "build feature pyramids for every scan", stage_encode,
          ("encoder",), ("manifest", "volume"), ("manifest", "pyramid")),
    Stage("extract", "write deep and radiomics feature tables", stage_extract,
          ("crops", "protocol.base_seed"), ("manifest", "volume", "mask", "pyramid"),
          ("deep", "radiomics")),
    Stage("score", "compute confidence-score baselines", stage_score,
          ("temperature",), ("manifest", "mask", "logits"), ("scores",)),
    Stage("train", "fit forests on the full cohorts and save model files", stage_train,
          ("forest", "protocol.base_seed"), ("manifest", "deep", "radiomics"),
          ("model_deep", "model_radiomics")),
    Stage("eval", "run the repeated-split protocol and write metric tables", stage_eval,
          ("forest", "protocol", "rfe_target", "rfe_step"),
          ("manifest", "deep", "radiomics", "scores"),
          ("per_seed", "summary_csv", "summary_txt")),
    Stage("report", "render the summary table from per-seed metrics", stage_report,
          ("protocol.n_seeds",), ("per_seed",), ("summary_csv", "summary_txt")),
)
COMMANDS = STAGES + (  # run by hand only, never by `pipeline`
    Stage("ablate", "evaluate rf_deep per encoder stage", stage_ablate,
          ("forest", "protocol", "ablate_stages"), ("manifest", "deep"), ("ablation",)),
    Stage("explain", "write exact per-feature attributions", stage_explain,
          (), ("manifest", "{kind}", "model_{kind}"), ("shap_{kind}",),
          (("kind", {"choices": ("deep", "radiomics"), "default": "deep"}),
           ("limit", {"type": _limit, "default": None,
                      "help": "explain only the first N feature rows"}))),
)


def _files(cfg: RunConfig, names: tuple[str, ...], options: dict,
           manifest: CohortManifest | None = None) -> list[Path]:
    """The files that Stage ``names`` stand for under ``options``. Reads
    records from ``manifest``, the parsed ``cfg.manifest``, when given; else
    loads it once, and only when a name is a record field."""
    paths = _paths(cfg)
    out = []
    for name in (n.format(**options) for n in names):
        if name in paths:
            out.append(paths[name])
            continue
        if manifest is None:
            manifest = load_manifest(cfg.manifest)
        for rec in manifest.records:
            value = getattr(rec, name)
            if value is None:
                raise DataError(f"scan {rec.scan_id!r}: manifest lists no {name}")
            out.extend(value if isinstance(value, tuple) else (value,))
    return out


def _signatures(cfg: RunConfig, files: list[Path]) -> dict[str, list[int]]:
    root = f"{cfg.work_dir}{os.sep}"  # keys relative to it survive moving the work dir
    return {str(p).removeprefix(root): [(st := p.stat()).st_size, st.st_mtime_ns]
            for p in files}


def _stamp(cfg: RunConfig, stage: Stage, options: dict, reads: dict) -> dict:
    return {"config_hash": cfg.config_hash(stage.config), "options": options, "reads": reads}


def _stamp_path(cfg: RunConfig, stage: Stage) -> Path:
    return cfg.work_dir / ".stamps" / f"{stage.name}.json"


def stamp_is_fresh(cfg: RunConfig, stage: Stage,
                   manifest: CohortManifest | None = None) -> bool:
    """Whether a stage of ``STAGES``, which have no options, may be skipped."""
    try:
        doc = json.loads(_stamp_path(cfg, stage).read_text(encoding="utf-8"))
        reads = _signatures(cfg, _files(cfg, stage.reads, {}, manifest))
        return doc == _stamp(cfg, stage, {}, reads) and \
            all(p.exists() for p in _files(cfg, stage.writes, {}, manifest))
    except (OSError, ValueError, DataError):
        return False


def run_stage(cfg: RunConfig, stage: Stage, **options) -> None:
    """Run one command with ``options``, a value for each of its flags, and
    stamp what it read as it read it: the inputs it rewrites (encode's
    manifest) are signed after the run, the others before. A command that
    fails, or that misses an input before it runs, is left unstamped."""
    stamp_path = _stamp_path(cfg, stage)
    before = tuple(n for n in stage.reads if n not in stage.writes)
    after = tuple(n for n in stage.reads if n in stage.writes)
    try:
        stamp_path.parent.mkdir(parents=True, exist_ok=True)
        stamp_path.unlink(missing_ok=True)
        try:
            reads = _signatures(cfg, _files(cfg, before, options))
        except (OSError, DataError):
            reads = None  # the run reports the missing input itself
        stage.run(cfg, **options)
        if reads is not None:
            reads |= _signatures(cfg, _files(cfg, after, options))
    except Exception as exc:
        raise StageError(stage.name, exc) from exc
    if reads is not None:
        stamp_path.write_text(json.dumps(_stamp(cfg, stage, options, reads), indent=2) + "\n",
                              encoding="utf-8")


def run_pipeline(cfg: RunConfig, force: bool = False) -> list[str]:
    """Run STAGES in order, skipping fresh ones unless ``force``; return those
    run. The checks share one parse of the manifest, renewed after a stage
    that writes it has run."""
    ran = []
    manifest = None
    for stage in STAGES:
        if not force and manifest is None:
            try:
                manifest = load_manifest(cfg.manifest)
            except DataError:
                pass  # no valid manifest yet: each check loads and fails on its own
        if force or not stamp_is_fresh(cfg, stage, manifest):
            run_stage(cfg, stage)
            ran.append(stage.name)
            if "manifest" in stage.writes:
                manifest = None
    return ran
