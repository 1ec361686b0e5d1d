"""ROC-based separability metrics with exact, fully specified tie handling.

OOD is the positive class throughout. AUROC is the rank statistic with
midranks for ties, equal to the probability a random OOD score exceeds a
random ID score plus half the tie probability. FPR95 scans only observed
scores as thresholds (rule: score >= t -> OOD) and returns the minimum
false-positive rate among thresholds whose true-positive rate reaches the
target; no interpolation.
"""

from __future__ import annotations

import numpy as np


def _check(labels: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError("labels and scores must be equal-length 1-D arrays")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 (ID) or 1 (OOD)")
    if labels.min() == labels.max():
        raise ValueError("need at least one ID and one OOD score")
    return labels, scores


def _midranks(scores: np.ndarray) -> np.ndarray:
    # ranks are 1-based; a tie block gets the average of its ranks
    _, inv, cnt = np.unique(scores, return_inverse=True, return_counts=True)
    return (np.cumsum(cnt) - (cnt - 1) / 2.0)[inv]


def auroc(labels, scores) -> float:
    """Mann-Whitney AUROC with midrank tie correction."""
    labels, scores = _check(labels, scores)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    ranks = _midranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / float(n_pos * n_neg)


def fpr_at_tpr(labels, scores, target_tpr: float = 0.95) -> float:
    """Minimum FPR over observed-score thresholds achieving TPR >= target."""
    labels, scores = _check(labels, scores)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels == 1)
    fp = np.cumsum(sorted_labels == 0)
    # positions where the threshold value changes: each distinct observed
    # score t classifies everything with score >= t as OOD
    last_of_block = np.flatnonzero(
        np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    )
    tpr = tp[last_of_block] / n_pos
    fpr = fp[last_of_block] / n_neg
    qualifying = fpr[tpr >= target_tpr]
    if qualifying.size == 0:
        # unreachable for target <= 1: the lowest threshold marks everything OOD
        return 1.0
    return float(qualifying.min())
