"""Repeated patient-level split protocol producing AUROC/FPR95 reports.

Forest-based methods are evaluated over ``n_seeds`` independent 40/60
patient-level splits: per seed, each cohort's scan list is shuffled with a
seed derived from base_seed XOR the seed index, the first
max(1, floor(train_frac * n)) scans train (all crops of a scan stay on one
side), one forest is fit on the pooled ID+OOD training sides, and metrics
are computed per OOD cohort against the shared ID test pool. By the
``FeatureTable`` layout, scan i owns rows i*k..i*k+k-1, and its P(OOD) is the
mean over those k crops. Training-free confidence baselines need no
auxiliary data, so their metrics are computed once on the full cohorts and
written to every seed (std 0).

Reported values are percentages; summaries use population mean/std.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import DataError
from .forest import RFParams, fit_forest, predict_proba_batch
from .manifest import CohortManifest
from .metrics import auroc, fpr_at_tpr
from .rng import SplitMix64, derive
from .scores import METHODS as SCORE_METHODS
from .selection import rfe
from .tables import FeatureTable

DISPLAY_NAMES = {
    "maxsoftmax": "MaxSoftmax",
    "maxlogit": "MaxLogits",
    "energy": "Energy",
    "entropy": "Entropy",
    "rf_radiomics": "RF-Radiomics",
    "rf_deep": "RF-Deep",
}
METHOD_ORDER = tuple(DISPLAY_NAMES)
RF_METHODS = ("rf_radiomics", "rf_deep")


@dataclass(frozen=True)
class EvalReport:
    """``values[m, c, :, s]`` is the (AUROC, FPR95) percentage pair of
    ``methods[m]`` on OOD cohort ``cohorts[c]`` at split seed ``s``. Seeds are
    the last, contiguous axis, so a mean or std over ``axis=-1`` sums each
    cell's seeds pairwise, bit for bit as ``np.mean``/``np.std`` of its list."""
    methods: tuple[str, ...]
    cohorts: tuple[str, ...]  # OOD cohort names, manifest order
    values: np.ndarray  # float64, (methods, cohorts, 2, n_seeds)


def split_cohort(scan_ids: list[str], train_frac: float, seed: int) -> tuple[list[str], list[str]]:
    """Deterministic patient-level (train, test) split; train = max(1, floor(frac * n))."""
    if len(scan_ids) < 2:
        raise DataError(
            f"cohort with {len(scan_ids)} scan(s) cannot be split into "
            "non-empty train and test sides"
        )
    ids = list(scan_ids)
    SplitMix64(seed).shuffle(ids)
    n_train = max(1, int(train_frac * len(ids)))
    return ids[:n_train], ids[n_train:]


def fitted_width(n_columns: int, rfe_target: int | None) -> int:
    """Columns a forest is fitted on: RFE leaves ``rfe_target`` of a wider table."""
    return n_columns if rfe_target is None else min(rfe_target, n_columns)


def _rf_seed_scores(table: FeatureTable, splits: dict[str, tuple[list[str], list[str]]], *,
                    params: RFParams, forest_seed: int,
                    rfe_target: int | None, rfe_step: int | None,
                    rfe_seed: int) -> dict[str, float]:
    """Train one forest on all cohorts' train sides, return per-test-scan
    P(OOD), with classifier output averaged over each scan's crops."""
    k = table.crops
    position = {sid: i for i, sid in enumerate(table.scan_ids)}

    def rows(scan_ids: list[str]) -> np.ndarray:  # scan i owns rows i*k..i*k+k-1
        return (np.array([position[sid] for sid in scan_ids])[:, None] * k + np.arange(k)).ravel()

    train_ids = [sid for train, _ in splits.values() for sid in train]
    test_ids = [sid for _, test in splits.values() for sid in test]
    X_train = table.values[rows(train_ids)]
    y_train = np.repeat([table.labels[position[sid]] == "OOD" for sid in train_ids], k)

    if (width := fitted_width(X_train.shape[1], rfe_target)) < X_train.shape[1]:
        step = rfe_step if rfe_step else max(1, X_train.shape[1] // 10)
        table = table.select_columns(rfe(X_train, y_train, params, width, step, rfe_seed))
        X_train = table.values[rows(train_ids)]
    forest = fit_forest(X_train, y_train, params, forest_seed, feature_names=table.names)
    # one call over every test row: row i * k + c is crop c of test scan i
    p_ood = predict_proba_batch(forest, table.values[rows(test_ids)])[:, 1]
    return dict(zip(test_ids, p_ood.reshape(len(test_ids), k).mean(axis=1).tolist()))


def _metrics_pct(labels, scores) -> tuple[float, float]:
    return 100.0 * auroc(labels, scores), 100.0 * fpr_at_tpr(labels, scores)


def repeated_split_eval(
    manifest: CohortManifest,
    cfg: RunConfig,
    methods: tuple[str, ...] = METHOD_ORDER,
    *,
    deep_table: FeatureTable | None = None,
    radiomics_table: FeatureTable | None = None,
    baseline_scores: dict[str, dict[str, float]] | None = None,
) -> EvalReport:
    """The protocol as ``cfg`` sets it (``forest``, ``protocol``, ``rfe_target``
    and ``rfe_step``) over the given tables, which must cover every manifest
    scan: the pipeline checks that where it reads them."""
    train_frac, n_seeds, base_seed = (cfg.protocol.train_frac, cfg.protocol.n_seeds,
                                      cfg.protocol.base_seed)
    id_cohorts = manifest.cohort_names(label="ID")
    ood_cohorts = manifest.cohort_names(label="OOD")
    id_ids = [r.scan_id for r in manifest.records if r.cohort_label == "ID"]
    if not id_ids or not ood_cohorts:
        raise DataError("evaluation needs at least one ID scan and one OOD cohort")
    cohort_ids = {c: [r.scan_id for r in manifest.by_cohort(c)]
                  for c in id_cohorts + ood_cohorts}

    tables = {"rf_deep": deep_table, "rf_radiomics": radiomics_table}
    for method in methods:
        if method in RF_METHODS and tables[method] is None:
            raise DataError(f"method {method} requires its feature table")
        if method in SCORE_METHODS:
            if baseline_scores is None or method not in baseline_scores:
                raise DataError(f"method {method} requires baseline scores")

    ordered = tuple(m for m in METHOD_ORDER if m in methods)
    values = np.empty((len(ordered), len(ood_cohorts), 2, n_seeds))

    # Training-free baselines: one pass over the full cohorts, the same
    # pair at every seed.
    for m, method in enumerate(ordered):
        if method not in SCORE_METHODS:
            continue
        per_scan = baseline_scores[method]
        for c, cohort in enumerate(ood_cohorts):
            labels = [0] * len(id_ids) + [1] * len(cohort_ids[cohort])
            values[m, c, 0], values[m, c, 1] = _metrics_pct(
                labels, [per_scan[sid] for sid in id_ids + cohort_ids[cohort]])

    rf_methods = [(m, method) for m, method in enumerate(ordered) if method in RF_METHODS]
    # All crops of a scan stay on one side: splits operate on scan ids,
    # independently per cohort. The ID test pool is shared across the
    # per-OOD-cohort metric computations within a seed.
    for s in range(n_seeds if rf_methods else 0):
        splits = {cohort: split_cohort(cohort_ids[cohort], train_frac,
                                       derive(base_seed ^ s, "split", cohort))
                  for cohort in id_cohorts + ood_cohorts}
        id_test = [sid for c in id_cohorts for sid in splits[c][1]]
        for m, method in rf_methods:
            use_rfe = method == "rf_radiomics"
            scan_scores = _rf_seed_scores(
                tables[method], splits,
                params=cfg.forest,
                forest_seed=derive(base_seed, method, s),
                rfe_target=cfg.rfe_target if use_rfe else None,
                rfe_step=cfg.rfe_step,
                rfe_seed=derive(base_seed, "rfe", method, s),
            )
            for c, cohort in enumerate(ood_cohorts):
                ood_test = splits[cohort][1]
                labels = [0] * len(id_test) + [1] * len(ood_test)
                values[m, c, :, s] = _metrics_pct(
                    labels, [scan_scores[sid] for sid in id_test + ood_test])
    return EvalReport(methods=ordered, cohorts=tuple(ood_cohorts), values=values)
