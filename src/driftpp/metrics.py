"""Binary classification metrics over prediction records. Class 1 is positive.

:func:`confusion` and :func:`auc` take a :class:`~driftpp.core.Records`
block and read its columns, or any sequence of
:class:`~driftpp.core.PredictionRecord`, which is turned into columns once.
:func:`f1` and :func:`fnr` read the :class:`ConfusionCounts` of one such
sequence.
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
    negative, counting score ties as one half. Computed in O(n log n) from
    the positives' rank sum, each score ranked by the midrank of its tie
    group (scores equal under ``==``, so -0.0 ties with 0.0).
    """
    truth, _, scores = _columns(records)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUC(
            f"need both classes, got {n_pos} positives and {n_neg} negatives"
        )
    # tie groups in ascending score order; group g's 1-based midrank is the
    # mean of the ranks its members share
    _, group, sizes = np.unique(scores, return_inverse=True, return_counts=True)
    midranks = np.cumsum(sizes) - (sizes - 1) / 2.0
    rank_sum = midranks[group[truth == 1]].sum()
    u_statistic = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u_statistic / (n_pos * n_neg))
