"""Binary classification metrics over prediction records. Class 1 is positive.

Each metric takes a :class:`~driftpp.core.Records` block and reads its
columns, or any sequence of :class:`~driftpp.core.PredictionRecord`, which
is turned into columns once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PredictionRecord, Records
from .errors import UndefinedAUC

__all__ = ["ConfusionCounts", "confusion", "f1", "fnr", "auc"]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _columns(records: Sequence[PredictionRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The truth, predicted and score columns of the records."""
    if isinstance(records, Records):
        return records.truth, records.predicted, records.score
    truth = np.array([record.truth for record in records], dtype=np.int64)
    predicted = np.array([record.predicted for record in records], dtype=np.int64)
    scores = np.array([record.score for record in records], dtype=np.float64)
    return truth, predicted, scores


def confusion(records: Sequence[PredictionRecord]) -> ConfusionCounts:
    truth, predicted, _ = _columns(records)
    tn, fn, fp, tp = np.bincount(2 * predicted + truth, minlength=4).tolist()
    return ConfusionCounts(tp, fp, tn, fn)


def f1(counts: ConfusionCounts) -> float:
    """Harmonic mean of precision and recall; 0.0 when there are no true
    positives (covers the empty and degenerate cases)."""
    if counts.tp == 0:
        return 0.0
    precision = counts.tp / (counts.tp + counts.fp)
    recall = counts.tp / (counts.tp + counts.fn)
    return 2.0 * precision * recall / (precision + recall)


def fnr(counts: ConfusionCounts) -> float:
    """Miss rate fn/(fn+tp); 0.0 when no positives exist."""
    positives = counts.fn + counts.tp
    if positives == 0:
        return 0.0
    return counts.fn / positives


def auc(records: Sequence[PredictionRecord]) -> float:
    """Rank-based AUC of the class-1 scores.

    Equals the probability that a random positive outscores a random
    negative, counting score ties as one half. Computed from midrank sums in
    O(n log n).
    """
    truth, _, scores = _columns(records)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUC(
            f"need both classes, got {n_pos} positives and {n_neg} negatives"
        )
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # tie group g spans sorted positions i[g]..j[g]
    ends = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1])
    i = np.append(0, ends + 1)
    j = np.append(ends, truth.size - 1)
    ranks = np.empty(truth.size, dtype=np.float64)
    # midrank of the tie group, 1-based
    ranks[order] = np.repeat((i + j) / 2.0 + 1.0, j - i + 1)
    rank_sum = ranks[truth == 1].sum()
    u_statistic = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u_statistic / (n_pos * n_neg))
