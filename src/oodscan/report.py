"""Rendering of evaluation reports: per-seed CSV, summary CSV, aligned text.

Summaries print percentages with two decimals, methods as rows and one
AUROC/FPR95 column pair per OOD cohort.
"""

from __future__ import annotations

import csv

from .atomic import write_text_atomic
from .errors import DataError
from .protocol import DISPLAY_NAMES, EvalReport, MethodCohortResult
from .tables import csv_writer, finite_float, format_float


def write_per_seed_csv(report: EvalReport, path) -> None:
    with csv_writer(path) as writer:
        writer.writerow(["seed", "method", "cohort", "auroc", "fpr95"])
        n_seeds = report.protocol.get("n_seeds", 0)
        for seed in range(n_seeds):
            for method in report.methods:
                for cohort in report.cohorts:
                    a, f = report.results[(method, cohort)].per_seed[seed]
                    writer.writerow([seed, DISPLAY_NAMES[method], cohort,
                                     format_float(a), format_float(f)])


def read_per_seed_csv(path) -> EvalReport:
    """Rebuild an EvalReport from a per-seed CSV (for `report`/`ablate` reuse)."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["seed", "method", "cohort", "auroc", "fpr95"]:
                raise DataError(f"{path}: not a per-seed metrics table")
            for seed, method, cohort, a, f in reader:
                rows.append((int(seed), method, cohort, finite_float(a),
                             finite_float(f)))
    except OSError as exc:
        raise DataError(f"cannot read per-seed table {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: malformed per-seed table: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty per-seed table")

    by_display = {v: k for k, v in DISPLAY_NAMES.items()}
    methods, cohorts, per_seed = [], [], {}
    seeds = [r[0] for r in rows]
    if min(seeds) < 0:
        raise DataError(f"{path}: negative seed {min(seeds)}")
    n_seeds = max(seeds) + 1
    for seed, method_disp, cohort, a, f in rows:
        method = by_display.get(method_disp, method_disp)
        if method not in DISPLAY_NAMES:
            raise DataError(f"{path}: unknown method {method_disp!r}")
        if method not in methods:
            methods.append(method)
        if cohort not in cohorts:
            cohorts.append(cohort)
        vals = per_seed.setdefault((method, cohort), [None] * n_seeds)
        if vals[seed] is not None:
            raise DataError(f"{path}: duplicate row for seed {seed}, "
                            f"method {method_disp}, cohort {cohort}")
        vals[seed] = (a, f)
    for method in methods:
        for cohort in cohorts:
            vals = per_seed.get((method, cohort), [None] * n_seeds)
            if None in vals:
                raise DataError(f"{path}: no row for seed {vals.index(None)}, "
                                f"method {DISPLAY_NAMES[method]}, cohort {cohort}")
    results = {
        key: MethodCohortResult(per_seed=tuple(vals))
        for key, vals in per_seed.items()
    }
    return EvalReport(methods=tuple(methods), cohorts=tuple(cohorts),
                      results=results, protocol={"n_seeds": n_seeds})


def _write_metric_table(path, first_column: str, cohorts, rows) -> None:
    """rows: (label, one result per cohort); mean/std columns per metric."""
    header = [first_column]
    for cohort in cohorts:
        header += [f"{cohort}_auroc_mean", f"{cohort}_auroc_std",
                   f"{cohort}_fpr95_mean", f"{cohort}_fpr95_std"]
    with csv_writer(path) as writer:
        writer.writerow(header)
        for label, results in rows:
            row = [label]
            for r in results:
                row += [f"{r.auroc_mean:.2f}", f"{r.auroc_std:.2f}",
                        f"{r.fpr95_mean:.2f}", f"{r.fpr95_std:.2f}"]
            writer.writerow(row)


def write_summary_csv(report: EvalReport, path) -> None:
    _write_metric_table(path, "method", report.cohorts, [
        (DISPLAY_NAMES[m], [report.results[(m, c)] for c in report.cohorts])
        for m in report.methods
    ])


def render_summary_text(report: EvalReport) -> str:
    name_w = max(len("Method"),
                 max(len(DISPLAY_NAMES[m]) for m in report.methods))
    col_w = max(15, max(len(c) for c in report.cohorts) + 2)
    lines = []
    head = "Method".ljust(name_w)
    sub = " " * name_w
    for cohort in report.cohorts:
        head += " | " + cohort.ljust(col_w)
        sub += " | " + "AUROC   FPR95".ljust(col_w)
    lines.append(head)
    lines.append(sub)
    lines.append("-" * len(head))
    for method in report.methods:
        line = DISPLAY_NAMES[method].ljust(name_w)
        for cohort in report.cohorts:
            r = report.results[(method, cohort)]
            cell = f"{r.auroc_mean:6.2f}  {r.fpr95_mean:6.2f}"
            line += " | " + cell.ljust(col_w)
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_summary_text(report: EvalReport, path) -> None:
    write_text_atomic(path, render_summary_text(report))


def write_ablation_csv(stage_reports: dict[str, EvalReport], path) -> None:
    """One row per stage; column pairs per OOD cohort (rf_deep only)."""
    cohorts = next(iter(stage_reports.values())).cohorts
    _write_metric_table(path, "stage", cohorts, [
        (stage, [rep.results[("rf_deep", c)] for c in cohorts])
        for stage, rep in stage_reports.items()
    ])
