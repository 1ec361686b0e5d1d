"""Feature selection for the forest.

Recursive feature elimination refits the forest on the surviving features
and drops the lowest mean-decrease-in-impurity block each round, protecting
the classifier from correlated-feature dilution.
"""

from __future__ import annotations

import numpy as np

from .forest import RFParams, fit_forest, mdi_importance
from .rng import derive


def rfe(X: np.ndarray, y: np.ndarray, params: RFParams, target_count: int,
        step: int, seed: int) -> np.ndarray:
    """Surviving original feature indices (ascending) after elimination.

    Each round fits a forest seeded by derive(seed, "rfe", round) on the
    remaining columns, ranks them by MDI, and removes the ``step`` weakest
    (ties drop the higher original index first), clamped so exactly
    ``target_count`` features remain. target_count >= d is the identity.
    """
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    if target_count < 1:
        raise ValueError("target_count must be >= 1")
    if target_count > d:
        raise ValueError(f"target_count {target_count} exceeds {d} features")
    if step < 1:
        raise ValueError("step must be >= 1")

    remaining = list(range(d))
    rounds = 0
    while len(remaining) > target_count:
        forest = fit_forest(X[:, remaining], y, params, derive(seed, "rfe", rounds))
        imp = mdi_importance(forest)
        drop_n = min(step, len(remaining) - target_count)
        # weakest first; among equals the higher original index goes first
        ranking = sorted(range(len(remaining)),
                         key=lambda i: (imp[i], -remaining[i]))
        dropped = {remaining[i] for i in ranking[:drop_n]}
        remaining = [j for j in remaining if j not in dropped]
        rounds += 1
    return np.array(remaining, dtype=np.int64)
