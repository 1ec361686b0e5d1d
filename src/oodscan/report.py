"""Rendering of evaluation reports: per-seed CSV, summary CSV, aligned text.

Summaries print percentages with two decimals, methods as rows and one
AUROC/FPR95 column pair per OOD cohort.
"""

from __future__ import annotations

from .atomic import write_text_atomic
from .errors import DataError
from .protocol import DISPLAY_NAMES, EvalReport, MethodCohortResult
from .tables import csv_writer, finite_float, format_float, read_rows

PER_SEED_COLUMNS = ["seed", "method", "cohort", "auroc", "fpr95"]


def write_per_seed_csv(report: EvalReport, path) -> None:
    with csv_writer(path) as writer:
        writer.writerow(PER_SEED_COLUMNS)
        n_seeds = report.protocol.get("n_seeds", 0)
        for seed in range(n_seeds):
            for method in report.methods:
                for cohort in report.cohorts:
                    a, f = report.results[(method, cohort)].per_seed[seed]
                    writer.writerow([seed, DISPLAY_NAMES[method], cohort,
                                     format_float(a), format_float(f)])


def read_per_seed_csv(path) -> EvalReport:
    """Rebuild an EvalReport from a per-seed CSV (for `report`/`ablate` reuse).
    The table must hold one row for each seed 0..n-1, method and cohort."""
    by_display = {v: k for k, v in DISPLAY_NAMES.items()}

    def parse(fields):
        seed, method_disp, cohort, a, f = fields
        method = by_display.get(method_disp, method_disp)
        if method not in DISPLAY_NAMES:
            raise ValueError(f"unknown method {method_disp!r}")
        if int(seed) < 0:
            raise ValueError(f"negative seed {seed}")
        return int(seed), method, cohort, finite_float(a), finite_float(f)

    rows = [row for _, row in read_rows(
        path, "per-seed table", PER_SEED_COLUMNS, parse,
        lambda row: f"seed {row[0]}, method {DISPLAY_NAMES[row[1]]}, cohort {row[2]!r}")[1]]
    methods = list(dict.fromkeys(row[1] for row in rows))
    cohorts = list(dict.fromkeys(row[2] for row in rows))
    # the rows are unique, so this many of them are every (seed, method, cohort)
    n_seeds = max(row[0] for row in rows) + 1
    if len(rows) != n_seeds * len(methods) * len(cohorts):
        raise DataError(f"{path}: {len(rows)} rows, not one for each of {n_seeds} "
                        f"seeds x {len(methods)} methods x {len(cohorts)} cohorts")
    cells = {row[:3]: row[3:] for row in rows}
    return EvalReport(methods=tuple(methods), cohorts=tuple(cohorts), results={
        (m, c): MethodCohortResult(per_seed=tuple(cells[(s, m, c)] for s in range(n_seeds)))
        for m in methods for c in cohorts}, protocol={"n_seeds": n_seeds})


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
