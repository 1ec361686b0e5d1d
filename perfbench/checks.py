"""Output checks of a benchmark run, written with the standard library only.

Besides the sha256 comparisons that ``run.py`` makes (against ``golden.json``
at the seeds pinned there, and traced against timed bytes at any seed), two kinds of check,
each counted as one operation:

- ``invariant_checks``: properties every correct run has at any seed,
  recomputed from the artifacts by code that shares nothing with the
  program (brute-force AUROC/FPR95, population mean/std, SHAP efficiency);
- ``expected_calls``: the call counts a configuration implies, compared with
  the traced run's span counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

DISPLAY = ("MaxSoftmax", "MaxLogits", "Energy", "Entropy", "RF-Radiomics", "RF-Deep")
BASELINES = {"maxsoftmax": "MaxSoftmax", "maxlogit": "MaxLogits",
             "energy": "Energy", "entropy": "Entropy"}
STAGE_IDS = ("PE", "SB1", "SB2", "SB3", "SB4")
CORE_ARTIFACTS = ("per_seed.csv", "summary.csv", "features_deep.csv",
                  "features_radiomics.csv", "scores.csv",
                  "rf_deep.model.json", "rf_radiomics.model.json")
EXTRA_ARTIFACTS = {"explain": "shap_deep.csv", "ablate": "ablation.csv"}


class CheckFailed(Exception):
    pass


def artifacts(extra: list[list[str]]) -> list[str]:
    return list(CORE_ARTIFACTS) + [EXTRA_ARTIFACTS[c[0]] for c in extra]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _expect(header is not None, f"{path.name} is empty")
        return header, list(reader)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _pct(v: str) -> float:
    x = float(v)
    _expect(math.isfinite(x) and 0.0 <= x <= 100.0, f"value {v} not a percentage")
    return x


class Expected:
    """What a run configuration implies, independent of the program."""

    def __init__(self, cfg: dict, extra: list[list[str]]):
        self.cohorts = [(c["cohort_name"], c["cohort_label"], c["n_scans"])
                        for c in cfg["cohorts"]]
        self.ood = [name for name, label, _ in self.cohorts if label == "OOD"]
        self.scan_ids = [f"{name}_{i:04d}" for name, _, n in self.cohorts
                         for i in range(n)]
        self.n_scans = len(self.scan_ids)
        self.crops = cfg.get("crops", {}).get("count", 8)
        self.n_trees = cfg["forest"]["n_trees"]
        self.n_seeds = cfg["protocol"]["n_seeds"]
        self.rfe_target = cfg.get("rfe_target", 32)
        self.rfe_step = cfg.get("rfe_step")
        self.commands = [c[0] for c in extra]
        self.limit = next((int(c[c.index("--limit") + 1]) for c in extra
                           if c[0] == "explain" and "--limit" in c), None)

    def rfe_rounds(self, d: int) -> int:
        """Forest fits per RFE call on a d-column table; 0 when RFE is skipped."""
        if self.rfe_target >= d:
            return 0
        step = self.rfe_step or max(1, d // 10)
        rounds = 0
        while d > self.rfe_target:
            d -= min(step, d - self.rfe_target)
            rounds += 1
        return rounds


def per_seed_table(work: Path) -> dict:
    """(method display name, cohort) -> list of (auroc, fpr95) by seed."""
    header, rows = _rows(work / "per_seed.csv")
    _expect(header == ["seed", "method", "cohort", "auroc", "fpr95"],
            "per_seed.csv header")
    table: dict = {}
    for seed, method, cohort, a, f in rows:
        table.setdefault((method, cohort), {})[int(seed)] = (_pct(a), _pct(f))
    return {k: [v[s] for s in sorted(v)] for k, v in table.items()}


def _pairwise_auroc(pos: list[float], neg: list[float]) -> float:
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def _exhaustive_fpr95(pos: list[float], neg: list[float]) -> float:
    best = 1.0
    for t in set(pos) | set(neg):
        if sum(p >= t for p in pos) / len(pos) >= 0.95:
            best = min(best, sum(n >= t for n in neg) / len(neg))
    return best


def invariant_checks(work: Path, exp: Expected) -> dict:
    """name -> zero-argument check that raises when the check fails."""

    def per_seed():
        table = per_seed_table(work)
        _expect(set(table) == {(m, c) for m in DISPLAY for c in exp.ood},
                "per_seed.csv method/cohort set")
        _expect(all(len(v) == exp.n_seeds for v in table.values()),
                f"per_seed.csv must hold {exp.n_seeds} seeds per method/cohort")

    def summary():
        table = per_seed_table(work)
        header, rows = _rows(work / "summary.csv")
        _expect([r[0] for r in rows] == list(DISPLAY), "summary.csv method order")
        for row in rows:
            cells = dict(zip(header[1:], (float(v) for v in row[1:])))
            for cohort in exp.ood:
                vals = table[(row[0], cohort)]
                for i, metric in enumerate(("auroc", "fpr95")):
                    xs = [v[i] for v in vals]
                    for stat, want in (("mean", statistics.fmean(xs)),
                                       ("std", statistics.pstdev(xs))):
                        got = cells[f"{cohort}_{metric}_{stat}"]
                        _expect(abs(got - want) <= 0.0051,
                                f"summary {row[0]} {cohort} {metric} {stat}: "
                                f"{got} vs {want}")

    def baselines():
        table = per_seed_table(work)
        _, rows = _rows(work / "scores.csv")
        scores = {(sid, method): float(v) for sid, _, method, v, _ in rows}
        label = {name: lbl for name, lbl, _ in exp.cohorts}
        ids = [s for s in exp.scan_ids if label[s[:-5]] == "ID"]
        for method, display in BASELINES.items():
            neg = [scores[(s, method)] for s in ids]
            for cohort in exp.ood:
                pos = [scores[(s, method)] for s in exp.scan_ids
                       if s[:-5] == cohort]
                want = (100.0 * _pairwise_auroc(pos, neg),
                        100.0 * _exhaustive_fpr95(pos, neg))
                for got in table[(display, cohort)]:
                    _expect(all(abs(g - w) <= 1e-9 for g, w in zip(got, want)),
                            f"{display} {cohort}: {got} vs oracle {want}")

    def features():
        for name, rows_per_scan in (("features_deep.csv", exp.crops),
                                    ("features_radiomics.csv", 1)):
            _, rows = _rows(work / name)
            _expect(len(rows) == exp.n_scans * rows_per_scan, f"{name} row count")
            _expect(sorted({r[0] for r in rows}) == sorted(exp.scan_ids),
                    f"{name} scan ids")
            _expect(all(math.isfinite(float(v)) for r in rows for v in r[3:]),
                    f"{name} holds a non-finite value")

    def models():
        for kind in ("deep", "radiomics"):
            doc = json.loads((work / f"rf_{kind}.model.json").read_text())
            header, _ = _rows(work / f"features_{kind}.csv")
            _expect(doc.get("format") == "oodscan-forest-v1", f"rf_{kind} format")
            _expect(len(doc["trees"]) == exp.n_trees, f"rf_{kind} tree count")
            _expect(doc["n_features"] == len(header) - 3, f"rf_{kind} width")

    def shap():
        header, rows = _rows(work / "shap_deep.csv")
        _expect(len(rows) == min(exp.limit, exp.n_scans * exp.crops),
                "shap_deep.csv row count")
        for r in rows:
            base, pred = float(r[2]), float(r[3])
            _expect(abs(base + math.fsum(float(v) for v in r[4:]) - pred) <= 1e-6,
                    f"shap efficiency fails for {r[0]} crop {r[1]}")

    def ablation():
        _, rows = _rows(work / "ablation.csv")
        _expect([r[0] for r in rows] == list(STAGE_IDS), "ablation.csv stages")
        _expect(all(len(r) == 1 + 4 * len(exp.ood) for r in rows),
                "ablation.csv width")
        for r in rows:
            for v in r[1:]:
                _pct(v)

    checks = {"per_seed": per_seed, "summary": summary, "baselines": baselines,
              "features": features, "models": models}
    if "explain" in exp.commands:
        checks["shap"] = shap
    if "ablate" in exp.commands:
        checks["ablation"] = ablation
    return checks


def expected_calls(exp: Expected, radiomics_width: int) -> dict:
    """Span counts the configuration implies for one traced pass."""
    n, s, t = exp.n_scans, exp.n_seeds, exp.n_trees
    n_ood, n_coh = len(exp.ood), len(exp.cohorts)
    ablate = len(STAGE_IDS) if "ablate" in exp.commands else 0
    rounds = exp.rfe_rounds(radiomics_width)
    forests = 2 + 2 * s + s * rounds + ablate * s
    return {
        "cohorts.generate_scan": n,
        "encoder.toy_encode": n,
        "regions.deep_feature_vector": n,
        "radiomics.radiomics_lite": n,
        "scores.scan_score": len(BASELINES) * n,
        "forest.fit_forest": forests,
        "forest.fit_tree": forests * t,
        "selection.rfe": s if rounds else 0,
        "protocol.repeated_split_eval": 1 + ablate,
        "protocol.split_cohort": s * n_coh * (1 + ablate),
        "metrics.auroc": len(BASELINES) * n_ood + 2 * s * n_ood + ablate * s * n_ood,
        "metrics.fpr_at_tpr": len(BASELINES) * n_ood + 2 * s * n_ood + ablate * s * n_ood,
        "treeshap.tree_shap": min(exp.limit, n * exp.crops) if exp.limit else 0,
    }
