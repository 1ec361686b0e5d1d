"""Repeated patient-level split protocol producing AUROC/FPR95 reports.

Forest-based methods are evaluated over ``n_seeds`` independent 40/60
patient-level splits: per seed, each cohort's scan list is shuffled with a
seed derived from base_seed XOR the seed index, the first
max(1, floor(train_frac * n)) scans train (all crops of a scan stay on one
side), one forest is fit on the pooled ID+OOD training sides, and metrics
are computed per OOD cohort against the shared ID test pool. Training-free
confidence baselines need no auxiliary data, so their metrics are computed
once on the full cohorts and repeated across seeds (std 0).

Reported values are percentages; summaries use population mean/std.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .forest import RFParams, fit_forest, predict_proba_batch
from .manifest import CohortManifest
from .metrics import auroc, fpr_at_tpr
from .rng import SplitMix64, derive
from .selection import rfe
from .tables import FeatureTable

METHOD_ORDER = ("maxsoftmax", "maxlogit", "energy", "entropy", "rf_radiomics", "rf_deep")
DISPLAY_NAMES = {
    "maxsoftmax": "MaxSoftmax",
    "maxlogit": "MaxLogits",
    "energy": "Energy",
    "entropy": "Entropy",
    "rf_radiomics": "RF-Radiomics",
    "rf_deep": "RF-Deep",
}
BASELINE_METHODS = ("maxsoftmax", "maxlogit", "energy", "entropy")
RF_METHODS = ("rf_radiomics", "rf_deep")


@dataclass(frozen=True)
class MethodCohortResult:
    per_seed: tuple[tuple[float, float], ...]  # (auroc_pct, fpr95_pct) per seed

    @property
    def auroc_mean(self) -> float:
        return float(np.mean([a for a, _ in self.per_seed]))

    @property
    def auroc_std(self) -> float:
        return float(np.std([a for a, _ in self.per_seed]))

    @property
    def fpr95_mean(self) -> float:
        return float(np.mean([f for _, f in self.per_seed]))

    @property
    def fpr95_std(self) -> float:
        return float(np.std([f for _, f in self.per_seed]))


@dataclass(frozen=True)
class EvalReport:
    methods: tuple[str, ...]
    cohorts: tuple[str, ...]  # OOD cohort names, manifest order
    results: dict = field(default_factory=dict)  # (method, cohort) -> MethodCohortResult
    protocol: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Split:
    train: list[str]
    test: list[str]


def split_cohort(scan_ids: list[str], train_frac: float, seed: int) -> _Split:
    """Deterministic patient-level split; train = max(1, floor(frac * n))."""
    if len(scan_ids) < 2:
        raise DataError(
            f"cohort with {len(scan_ids)} scan(s) cannot be split into "
            "non-empty train and test sides"
        )
    ids = list(scan_ids)
    SplitMix64(seed).shuffle(ids)
    n_train = max(1, int(train_frac * len(ids)))
    return _Split(train=ids[:n_train], test=ids[n_train:])


def _scan_matrix(table: FeatureTable, scan_ids: list[str],
                 row_index: dict[str, list[int]]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stack rows of the listed scans; y = 1 for rows of OOD scans."""
    rows, labels, owners = [], [], []
    for sid in scan_ids:
        for i in row_index[sid]:
            rows.append(i)
            labels.append(1 if table.labels[i] == "OOD" else 0)
            owners.append(sid)
    return table.values[rows], np.array(labels, dtype=np.int64), owners


def _row_index(table: FeatureTable) -> dict[str, list[int]]:
    idx: dict[str, list[int]] = {}
    for i, sid in enumerate(table.scan_ids):
        idx.setdefault(sid, []).append(i)
    return idx


def fitted_width(n_columns: int, rfe_target: int | None) -> int:
    """Columns a forest is fitted on: RFE leaves ``rfe_target`` of a wider table."""
    return n_columns if rfe_target is None else min(rfe_target, n_columns)


def _rf_seed_scores(table: FeatureTable, splits: dict[str, _Split], *,
                    params: RFParams, forest_seed: int,
                    rfe_target: int | None, rfe_step: int | None,
                    rfe_seed: int) -> dict[str, float]:
    """Train one forest on all cohorts' train sides, return per-test-scan
    P(OOD), with classifier output averaged over each scan's crops."""
    row_index = _row_index(table)
    train_ids = [sid for split in splits.values() for sid in split.train]
    test_ids = [sid for split in splits.values() for sid in split.test]
    X_train, y_train, _ = _scan_matrix(table, train_ids, row_index)

    columns = None
    if (width := fitted_width(X_train.shape[1], rfe_target)) < X_train.shape[1]:
        step = rfe_step if rfe_step else max(1, X_train.shape[1] // 10)
        columns = rfe(X_train, y_train, params, width, step, rfe_seed)
        X_train = X_train[:, columns]

    forest = fit_forest(X_train, y_train, params, forest_seed,
                        feature_names=tuple(table.names[i] for i in columns)
                        if columns is not None else table.names)

    X_test, _, owners = _scan_matrix(table, test_ids, row_index)
    if columns is not None:
        X_test = X_test[:, columns]
    p_ood = predict_proba_batch(forest, X_test)[:, 1]
    scores: dict[str, list[float]] = {}
    for sid, p in zip(owners, p_ood):
        scores.setdefault(sid, []).append(float(p))
    return {sid: float(np.mean(vals)) for sid, vals in scores.items()}


def _metrics_pct(labels, scores) -> tuple[float, float]:
    return 100.0 * auroc(labels, scores), 100.0 * fpr_at_tpr(labels, scores)


def repeated_split_eval(
    manifest: CohortManifest,
    *,
    methods: tuple[str, ...] = METHOD_ORDER,
    deep_table: FeatureTable | None = None,
    radiomics_table: FeatureTable | None = None,
    baseline_scores: dict[str, dict[str, float]] | None = None,
    rf_params: RFParams = RFParams(),
    rfe_target: int = 32,
    rfe_step: int | None = None,
    train_frac: float = 0.4,
    n_seeds: int = 100,
    base_seed: int = 0,
) -> EvalReport:
    if n_seeds < 1:
        raise DataError("n_seeds must be >= 1")
    id_cohorts = manifest.cohort_names(label="ID")
    ood_cohorts = manifest.cohort_names(label="OOD")
    id_ids = [r.scan_id for r in manifest.records if r.cohort_label == "ID"]
    if not id_ids or not ood_cohorts:
        raise DataError("evaluation needs at least one ID scan and one OOD cohort")
    cohort_ids = {c: [r.scan_id for r in manifest.by_cohort(c)]
                  for c in id_cohorts + ood_cohorts}
    label_by_scan = {r.scan_id: r.cohort_label for r in manifest.records}

    tables = {"rf_deep": deep_table, "rf_radiomics": radiomics_table}
    for method in methods:
        if method in RF_METHODS and tables[method] is None:
            raise DataError(f"method {method} requires its feature table")
        if method in BASELINE_METHODS:
            if baseline_scores is None or method not in baseline_scores:
                raise DataError(f"method {method} requires baseline scores")
        if method in RF_METHODS:
            covered = set(tables[method].scan_ids)
            missing = [s for s in label_by_scan if s not in covered]
            if missing:
                raise DataError(
                    f"feature table for {method} is missing scans {missing[:3]}"
                )

    results: dict = {}

    # Training-free baselines: one pass over the full cohorts.
    for method in methods:
        if method not in BASELINE_METHODS:
            continue
        per_scan = baseline_scores[method]
        for cohort in ood_cohorts:
            sids = id_ids + cohort_ids[cohort]
            try:
                vals = [per_scan[s] for s in sids]
            except KeyError as exc:
                raise DataError(
                    f"baseline {method}: missing score for scan {exc}") from exc
            labels = [0] * len(id_ids) + [1] * len(cohort_ids[cohort])
            a, f = _metrics_pct(labels, vals)
            results[(method, cohort)] = MethodCohortResult(
                per_seed=tuple((a, f) for _ in range(n_seeds))
            )

    rf_methods = [m for m in methods if m in RF_METHODS]
    rf_per_seed = {(m, c): [] for m in rf_methods for c in ood_cohorts}
    if rf_methods:
        # All crops of a scan stay on one side: splits operate on scan ids,
        # independently per cohort. The ID test pool is shared across the
        # per-OOD-cohort metric computations within a seed.
        for s in range(n_seeds):
            splits = {
                cohort: split_cohort(cohort_ids[cohort], train_frac,
                                     derive(base_seed ^ s, "split", cohort))
                for cohort in id_cohorts + ood_cohorts
            }
            id_test = [sid for c in id_cohorts for sid in splits[c].test]
            for method in rf_methods:
                use_rfe = method == "rf_radiomics"
                scan_scores = _rf_seed_scores(
                    tables[method], splits,
                    params=rf_params,
                    forest_seed=derive(base_seed, method, s),
                    rfe_target=rfe_target if use_rfe else None,
                    rfe_step=rfe_step,
                    rfe_seed=derive(base_seed, "rfe", method, s),
                )
                for cohort in ood_cohorts:
                    sids = id_test + splits[cohort].test
                    labels = [0] * len(id_test) + [1] * len(splits[cohort].test)
                    rf_per_seed[(method, cohort)].append(_metrics_pct(
                        labels, [scan_scores[sid] for sid in sids]))
    for key, per_seed in rf_per_seed.items():
        results[key] = MethodCohortResult(per_seed=tuple(per_seed))

    ordered = tuple(m for m in METHOD_ORDER if m in methods)
    return EvalReport(
        methods=ordered,
        cohorts=tuple(ood_cohorts),
        results=results,
        protocol={"train_frac": train_frac, "n_seeds": n_seeds, "base_seed": base_seed},
    )
