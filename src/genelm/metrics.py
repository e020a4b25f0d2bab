"""Classification metrics: MCC, F1, ROC/PR areas, per-label AUC medians.

Undefined values (a zero marginal for MCC, single-class targets for AUC)
come back as None, never as a silent 0. AUC-ROC uses the rank statistic
with tie-averaged ranks; AUC-PR is step-wise average precision with equal
scores collapsed into one threshold group.
"""

from __future__ import annotations

import numpy as np


def _ints(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64).ravel()


def _labels(preds, targets) -> tuple[np.ndarray, np.ndarray]:
    """preds and targets as flat int64 arrays of one length, at least 1."""
    p, t = _ints(preds), _ints(targets)
    if len(p) != len(t) or len(p) == 0:
        raise ValueError("need equal-length non-empty predictions and targets")
    return p, t


def accuracy(preds, targets) -> float:
    p, t = _labels(preds, targets)
    return float((p == t).mean())


def _binary_counts(preds, targets) -> tuple[int, int, int, int]:
    p, t = _labels(preds, targets)
    tp = int(((p == 1) & (t == 1)).sum())
    tn = int(((p == 0) & (t == 0)).sum())
    fp = int(((p == 1) & (t == 0)).sum())
    fn = int(((p == 0) & (t == 1)).sum())
    return tp, tn, fp, fn


def precision(preds, targets) -> float | None:
    tp, _, fp, _ = _binary_counts(preds, targets)
    return tp / (tp + fp) if tp + fp else None


def recall(preds, targets) -> float | None:
    tp, _, _, fn = _binary_counts(preds, targets)
    return tp / (tp + fn) if tp + fn else None


def mcc(preds, targets) -> float | None:
    """Matthews correlation, generalized to any number of classes.

    Returns None when a marginal is zero (all predictions or all targets
    fall in one class), where the coefficient is undefined.
    """
    p, t = _labels(preds, targets)
    classes = np.union1d(p, t)
    s = len(p)
    c = int((p == t).sum())
    p_k = np.array([(p == k).sum() for k in classes], dtype=np.float64)
    t_k = np.array([(t == k).sum() for k in classes], dtype=np.float64)
    cov = c * s - float(p_k @ t_k)
    denom_p = s * s - float(p_k @ p_k)
    denom_t = s * s - float(t_k @ t_k)
    if denom_p == 0.0 or denom_t == 0.0:
        return None
    return cov / np.sqrt(denom_p * denom_t)


def f1(preds, targets, averaging: str = "binary",
       n_classes: int | None = None) -> float:
    """F1 score. averaging: "binary" (class 1 is positive) or "macro"
    (unweighted mean of per-class F1). A class with no true or predicted
    members contributes an F1 of 0 to the macro mean."""
    p, t = _labels(preds, targets)

    def class_f1(k: int) -> float:
        tp = int(((p == k) & (t == k)).sum())
        fp = int(((p == k) & (t != k)).sum())
        fn = int(((p != k) & (t == k)).sum())
        denom = 2 * tp + fp + fn
        return 2 * tp / denom if denom else 0.0

    if averaging == "binary":
        return class_f1(1)
    classes = (np.arange(n_classes) if n_classes is not None
               else np.union1d(p, t))
    if averaging == "macro":
        return float(np.mean([class_f1(int(k)) for k in classes]))
    raise ValueError(f"unknown averaging {averaging!r}")


def _tie_groups(sorted_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group index of each sorted score, and the size of each group: equal
    neighbours share a group, and each NaN is a group of its own."""
    group = np.cumsum(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]]) - 1
    return group, np.bincount(group)


def auc_roc(scores, targets) -> float | None:
    """Area under the ROC curve via the Mann-Whitney rank statistic."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    t = _ints(targets)
    if len(s) != len(t) or len(s) == 0:
        raise ValueError("need equal-length non-empty scores and targets")
    n_pos = int((t == 1).sum())
    n_neg = int((t == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    # 1-based ranks, equal scores sharing their group's average rank
    order = np.argsort(s, kind="mergesort")
    group, sizes = _tie_groups(s[order])
    ranks = np.empty(len(s))
    ranks[order] = (np.cumsum(sizes) - (sizes - 1) / 2)[group]
    return (float(ranks[t == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_pr(scores, targets) -> float | None:
    """Average precision: sum of precision-at-threshold weighted by recall
    increments, one threshold per distinct score (descending)."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    t = _ints(targets)
    if len(s) != len(t) or len(s) == 0:
        raise ValueError("need equal-length non-empty scores and targets")
    n_pos = int((t == 1).sum())
    n_neg = int((t == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(-s, kind="mergesort")
    group, sizes = _tie_groups(s[order])
    d_tp = np.bincount(group, weights=t[order] == 1).astype(np.int64)
    # one step per threshold group, added in threshold order
    steps = (d_tp / n_pos) * (np.cumsum(d_tp) / np.cumsum(sizes))
    return float(np.cumsum(steps)[-1])


def median_auc_per_label(score_matrix, target_matrix) -> float | None:
    """Median of per-label AUC-ROC over a (n, k) multilabel task; labels
    where the AUC is undefined (single-class) are skipped."""
    s = np.asarray(score_matrix, dtype=np.float64)
    t = np.asarray(target_matrix, dtype=np.int64)
    if s.shape != t.shape or s.ndim != 2:
        raise ValueError(f"need matching (n, k) matrices, got {s.shape} and {t.shape}")
    values = []
    for k in range(s.shape[1]):
        a = auc_roc(s[:, k], t[:, k])
        if a is not None:
            values.append(a)
    if not values:
        return None
    return float(np.median(values))
