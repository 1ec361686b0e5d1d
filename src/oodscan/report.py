"""Rendering of evaluation reports: per-seed CSV, summary CSV, aligned text.

Summaries print percentages with two decimals, methods as rows and one
AUROC/FPR95 column pair per OOD cohort.
"""

from __future__ import annotations

import numpy as np

from .atomic import write_text_atomic
from .errors import DataError
from .protocol import DISPLAY_NAMES, EvalReport
from .tables import csv_writer, finite_float, format_float, read_rows

PER_SEED_COLUMNS = ["seed", "method", "cohort", "auroc", "fpr95"]


def seed_mean_std(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and std over the last axis, the seeds of an
    ``EvalReport.values``: bit for bit those of each cell's list of seeds."""
    return values.mean(axis=-1), values.std(axis=-1)


def write_per_seed_csv(report: EvalReport, path) -> None:
    with csv_writer(path) as writer:
        writer.writerow(PER_SEED_COLUMNS)
        for seed in range(report.values.shape[-1]):
            for method, cells in zip(report.methods, report.values[..., seed].tolist()):
                for cohort, (a, f) in zip(report.cohorts, cells):
                    writer.writerow([seed, DISPLAY_NAMES[method], cohort,
                                     format_float(a), format_float(f)])


def read_per_seed_csv(path) -> EvalReport:
    """Rebuild an EvalReport from a per-seed CSV (for `report`/`ablate` reuse).
    The table must hold one row for each seed 0..n-1, method and cohort."""
    by_display = {v: k for k, v in DISPLAY_NAMES.items()}

    def parse(fields):
        seed, method_disp, cohort, a, f = fields
        if method_disp not in by_display:
            raise ValueError(f"unknown method {method_disp!r}")
        if int(seed) < 0:
            raise ValueError(f"negative seed {seed}")
        return int(seed), by_display[method_disp], cohort, finite_float(a), finite_float(f)

    rows = [row for _, row in read_rows(
        path, "per-seed table", PER_SEED_COLUMNS, parse,
        lambda row: f"seed {row[0]}, method {DISPLAY_NAMES[row[1]]}, cohort {row[2]!r}")[1]]
    methods = {m: i for i, m in enumerate(dict.fromkeys(row[1] for row in rows))}
    cohorts = {c: i for i, c in enumerate(dict.fromkeys(row[2] for row in rows))}
    # the rows are unique, so this many of them are every (seed, method, cohort)
    n_seeds = max(row[0] for row in rows) + 1
    if len(rows) != n_seeds * len(methods) * len(cohorts):
        raise DataError(f"{path}: {len(rows)} rows, not one for each of {n_seeds} "
                        f"seeds x {len(methods)} methods x {len(cohorts)} cohorts")
    values = np.empty((len(methods), len(cohorts), 2, n_seeds))
    for seed, method, cohort, a, f in rows:
        values[methods[method], cohorts[cohort], :, seed] = a, f
    return EvalReport(methods=tuple(methods), cohorts=tuple(cohorts), values=values)


def _write_metric_table(path, first_column: str, cohorts, labels, values) -> None:
    """One row per label over ``values`` (labels, cohorts, 2, n_seeds); mean
    and std columns per metric."""
    header = [first_column]
    for cohort in cohorts:
        header += [f"{cohort}_auroc_mean", f"{cohort}_auroc_std",
                   f"{cohort}_fpr95_mean", f"{cohort}_fpr95_std"]
    mean, std = seed_mean_std(values)
    with csv_writer(path) as writer:
        writer.writerow(header)
        for label, means, stds in zip(labels, mean.tolist(), std.tolist()):
            row = [label]
            for (a, f), (a_std, f_std) in zip(means, stds):
                row += [f"{a:.2f}", f"{a_std:.2f}", f"{f:.2f}", f"{f_std:.2f}"]
            writer.writerow(row)


def write_summary_csv(report: EvalReport, path) -> None:
    _write_metric_table(path, "method", report.cohorts,
                        [DISPLAY_NAMES[m] for m in report.methods], report.values)


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
    for method, means in zip(report.methods, seed_mean_std(report.values)[0].tolist()):
        line = DISPLAY_NAMES[method].ljust(name_w)
        for a, f in means:
            line += " | " + f"{a:6.2f}  {f:6.2f}".ljust(col_w)
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_summary_text(report: EvalReport, path) -> None:
    write_text_atomic(path, render_summary_text(report))


def write_ablation_csv(stage_reports: dict[str, EvalReport], path) -> None:
    """One row per stage; column pairs per OOD cohort (rf_deep only)."""
    cohorts = next(iter(stage_reports.values())).cohorts
    _write_metric_table(path, "stage", cohorts, list(stage_reports), np.stack(
        [rep.values[rep.methods.index("rf_deep")] for rep in stage_reports.values()]))
