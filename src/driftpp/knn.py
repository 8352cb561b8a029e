"""K-nearest-neighbor weak learner over a Minkowski metric.

:func:`knn_predict_batch` is the one prediction entry point: it takes an
(n, d) query block and returns (labels, scores) arrays; a single query is a
one-row block, ``x[None]``.

The neighbors of a query are the first k stored points in (distance, stored
index) order, so distance ties at the neighborhood boundary go to the lower
stored-point index and results are reproducible regardless of query
batching. For the Euclidean metric, the squared distance in matrix-product
form shortlists the points that can be among the k nearest. A row whose
shortlist holds exactly k points is scored from their labels directly.
Rows tied or nearly tied at the k-th distance, other metrics and
non-finite inputs scan every stored point: a stable sort of the row's
distances, NaN last, gives the (distance, stored index) order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyTrainingSet

__all__ = ["KnnConfig", "KnnModel", "minkowski_distance", "knn_fit", "knn_predict_batch"]

# cap on scratch memory per block of query rows, in float64 cells
_BLOCK_CELLS = 2_000_000

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def _check_p(p: float) -> None:
    """Reject a Minkowski order outside [1, inf); NaN or infinity would make
    every distance equal."""
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")


@dataclass(frozen=True)
class KnnConfig:
    k: int = 3
    p: float = 2.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        _check_p(self.p)


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Training points stored verbatim, in fit order."""

    config: KnnConfig
    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,)

    @property
    def n_points(self) -> int:
        return self.features.shape[0]

    @property
    def dimensionality(self) -> int:
        return self.features.shape[1]


def minkowski_distance(a, b, p: float = 2.0) -> float:
    """(sum_i |a_i - b_i|^p)^(1/p) for two equal-length vectors, p in [1, inf)."""
    _check_p(p)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError(f"vector shapes differ: {a.shape} vs {b.shape}")
    return float(_pairwise(a[None, :], b[None, :], p)[0, 0])


def _minkowski(diff: np.ndarray, p: float) -> np.ndarray:
    """Reduce coordinate differences |q - x| over the last axis to distances.

    Each (query, point) pair is reduced on its own, so the result for a pair
    does not depend on which other pairs share the array.
    """
    if p == 2.0:
        return np.sqrt((diff * diff).sum(axis=-1))
    if p == 1.0:
        return diff.sum(axis=-1)
    return (diff**p).sum(axis=-1) ** (1.0 / p)


def _pairwise(points: np.ndarray, queries: np.ndarray, p: float) -> np.ndarray:
    """Distances from every query row to every stored row, shape (n_q, n_p).

    Scratch memory is n_q * n_p * d cells; callers pass row blocks.
    """
    return _minkowski(np.abs(queries[:, None, :] - points[None, :, :]), p)


def _scan(points: np.ndarray, block: np.ndarray, k: int, p: float) -> np.ndarray:
    """Indices of the k nearest points of each query row by a full scan,
    shape (n_rows, k)."""
    return np.argsort(_pairwise(points, block, p), axis=1, kind="stable")[:, :k]


def _euclidean_positives(
    points: np.ndarray, positive: np.ndarray, block: np.ndarray, k: int
) -> np.ndarray | None:
    """Class-1 count among the k nearest points (p=2) of each query row, or
    None when the inputs are not finite, so that a full scan decides.

    The shortlist of a row is every point whose matrix-product value
    g = |x|^2 - 2 q.x lies within a rounding margin of the row's k-th
    smallest g. The row-constant |q|^2 is left out of g: it does not change
    the order of a row. The shortlist is certified to hold all k true
    neighbors, so a row with exactly k shortlisted points has them as its
    neighbors and needs only their class-1 count. Only rows with more, that
    is with points tied or nearly tied at the k-th distance, take the full
    scan, which ranks every point by exact (distance, index).

    Rounding bound. Let u = eps/2, gamma_n = n*u/(1 - n*u) and
    R = |q| + max|x|, so that R^2 bounds D^2 and |x|^2 + 2|q||x|. Scaling
    by -2 is exact, so the matrix product and |x|^2 are two sums of d terms,
    each within gamma_d of the sum of its terms' magnitudes, and adding them
    rounds once more: g is within
    gamma_d (|x|^2 + 2|q||x|) + u(1 + gamma_d) R^2 <= gamma_{d+1} R^2
    of D^2 - |q|^2. That is no more than the gamma_{d+2} R^2 bound of the
    full |q|^2 + |x|^2 - 2 q.x, and the exact path rounds the difference,
    its square and a d-term sum, so its squared distance s is within
    gamma_{d+2} R^2 of D^2. If g_k is the k-th smallest g, k points have
    s <= g_k + |q|^2 + 2 gamma_{d+2} R^2, so the k-th smallest s is no
    larger. After the square root a point ties the k-th distance only if its
    s is at most (1+u)^2/(1-u)^2 times the k-th, an excess under 5u R^2.
    Every true neighbor thus has g <= g_k + 4 gamma_{d+2} R^2 + 5u R^2,
    about (4d + 13)u R^2 above g_k; |q|^2 cancels. The shortlist keeps
    g <= g_k + 4(d + 8) eps R^2 = g_k + (8d + 64)u R^2, about twice that,
    which also covers the rounding of R and of the threshold itself.
    A product that underflows breaks the relative bounds: it may then be
    off by up to eta/2 absolute, eta the smallest subnormal, so g gains at
    most d*eta and s at most d*eta/2. The margin adds 4(d + 8) eta, which
    covers four times their sum.
    """
    n_p, d = points.shape
    sq_points = np.einsum("ij,ij->i", points, points)
    sq_block = np.einsum("ij,ij->i", block, block)
    scale = (np.sqrt(sq_block) + np.sqrt(sq_points.max())) ** 2
    # every term of g is at most scale in magnitude; this also rejects NaN
    if not np.isfinite(2.0 * scale).all():
        return None
    gram = block @ (points.T * -2.0)
    gram += sq_points
    kth = np.partition(gram, k - 1, axis=1)[:, k - 1]
    keep = gram <= (kth + 4.0 * (d + 8) * (_EPS * scale + _TINY))[:, None]
    positives = np.count_nonzero(keep[:, positive], axis=1)
    wide = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if wide.size:
        positives[wide] = positive[_scan(points, block[wide], k, 2.0)].sum(axis=1)
    return positives


def knn_fit(config: KnnConfig, features, labels) -> KnnModel:
    """Store read-only copies of an (n, d) feature array and its (n,)
    labels, each 0 or 1. Duplicate rows are kept."""
    features = np.array(features, dtype=np.float64)
    labels = np.asarray(labels)
    if len(features) == 0:
        raise EmptyTrainingSet("cannot fit a nearest-neighbor model on zero instances")
    if features.ndim != 2 or labels.shape != features.shape[:1]:
        raise DimensionError(
            f"expected (n, d) features and (n,) labels, got {features.shape} and {labels.shape}"
        )
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    labels = np.array(labels, dtype=np.int64)
    features.flags.writeable = False
    labels.flags.writeable = False
    return KnnModel(config, features, labels)


def knn_predict_batch(model: KnnModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predict labels and class-1 scores for an (n_q, d) query array.

    The score is the class-1 fraction among the min(k, n_points) nearest
    stored points. A query at exactly 0.5 resolves to label 0. A row's
    output does not depend on the other rows of the block.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != model.dimensionality:
        raise DimensionError(
            f"query shape {queries.shape} does not match model dimensionality {model.dimensionality}"
        )
    points, p = model.features, model.config.p
    positive = model.labels == 1
    k = min(model.config.k, model.n_points)
    positives = np.empty(len(queries), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // max(1, points.size))
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        counts = _euclidean_positives(points, positive, block, k) if p == 2.0 else None
        if counts is None:
            counts = positive[_scan(points, block, k, p)].sum(axis=1)
        positives[start : start + step] = counts
    scores = positives / k
    labels = (scores > 0.5).astype(np.int64)
    return labels, scores

