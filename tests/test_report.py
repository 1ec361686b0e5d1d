import csv

import numpy as np

from oodscan.protocol import DISPLAY_NAMES, EvalReport
from oodscan.report import read_per_seed_csv, seed_mean_std, write_per_seed_csv, write_summary_csv
from oracles import per_seed_summary


def test_summary_statistics_equal_each_cells_list_bit_for_bit(tmp_path):
    """Over the array read_per_seed_csv builds, seed_mean_std gives np.mean and
    np.std of each cell's list of seeds bit for bit, at every seed count from
    1 to 259, and the summary prints them. Energy's cells hold one pair at
    every seed, as eval writes a baseline's."""
    rng = np.random.default_rng(26)
    per_seed, summary = tmp_path / "per_seed.csv", tmp_path / "summary.csv"
    for n_seeds in range(1, 260):
        values = rng.uniform(0.0, 100.0, (2, 2, 2, n_seeds))
        values[0] = values[0, ..., :1]
        write_per_seed_csv(EvalReport(("energy", "rf_deep"), ("near", "far"), values), per_seed)
        report = read_per_seed_csv(per_seed)
        mean, std = seed_mean_std(report.values)
        oracle = per_seed_summary(per_seed)
        cells = {(DISPLAY_NAMES[method], cohort): (m, c)
                 for m, method in enumerate(report.methods)
                 for c, cohort in enumerate(report.cohorts)}
        assert {key: (mean[m, c, 0], std[m, c, 0], mean[m, c, 1], std[m, c, 1])
                for key, (m, c) in cells.items()} == oracle, n_seeds

        write_summary_csv(report, summary)
        with open(summary, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [[name] + [f"{v:.2f}" for cohort in report.cohorts
                                  for v in oracle[(name, cohort)]]
                        for name in (DISPLAY_NAMES[m] for m in report.methods)]
