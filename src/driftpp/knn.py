"""K-nearest-neighbor weak learner over Euclidean distance.

:func:`knn_predict_batch` is the one prediction entry point: it takes an
(n, d) query block and returns (labels, scores) arrays; a single query is a
one-row block, ``x[None]``.

The neighbors of a query are the first k stored points in (distance, stored
index) order, so distance ties at the neighborhood boundary go to the lower
stored-point index and results are reproducible regardless of query
batching. k argmin passes over the squared distance in matrix-product form
pick each row's k smallest values in place. A row whose next smallest value
lies beyond a certified rounding margin of the k-th is scored from the
picked labels directly. Rows tied or nearly tied at the k-th distance,
blocks with non-finite inputs and blocks of fewer than ``_SCAN_CELLS`` query
and stored point pairs, where the passes' fixed cost outweighs their saving,
scan every stored point: a stable sort of the row's exact distances, NaN
last, gives the (distance, stored index) order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EmptyTrainingSet

__all__ = ["KnnConfig", "KnnModel", "knn_fit", "knn_predict_batch"]

# cap on scratch memory per block of query rows, in float64 cells: a scan's
# differences take all of it, the matrix-product distances a d-th, and those
# distances are the largest transient of a run, so the cap sets its peak RSS
_BLOCK_CELLS = 1_000_000
# query rows x stored points below which a block takes the exact scan: its
# measured crossover with the certified path lay at 200-800 (d 2-20, k 1-3)
_SCAN_CELLS = 400

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


@dataclass(frozen=True)
class KnnConfig:
    k: int = 3

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Training points stored verbatim, in fit order, with the terms of the
    matrix-product distance that depend on them alone: each point's |x|^2,
    the points as a (d, n) array scaled by -2, and the largest |x|."""

    config: KnnConfig
    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,)
    _sq_norms: np.ndarray = field(init=False, repr=False)  # (n,)
    _scaled_t: np.ndarray = field(init=False, repr=False)  # (d, n)
    _max_norm: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        points = self.features
        sq_norms = np.einsum("ij,ij->i", points, points)
        object.__setattr__(self, "_sq_norms", sq_norms)
        object.__setattr__(self, "_scaled_t", points.T * -2.0)
        object.__setattr__(self, "_max_norm", np.sqrt(sq_norms.max()))

    @property
    def n_points(self) -> int:
        return self.features.shape[0]

    @property
    def dimensionality(self) -> int:
        return self.features.shape[1]


def _scan(points: np.ndarray, block: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest points of each query row by a full scan of
    exact distances, shape (n_rows, k).

    Each (query, point) distance is reduced on its own, so it does not depend
    on which other rows share the block. The order is by distance, not its
    square: the square root can round two distinct squared distances to one
    value, a tie that goes to the lower index. Scratch memory is
    n_rows * n_points * d cells; callers pass row blocks.
    """
    diff = block[:, None, :] - points[None, :, :]
    distances = np.sqrt((diff * diff).sum(axis=-1))
    return np.argsort(distances, axis=1, kind="stable")[:, :k]


def _euclidean_positives(model: KnnModel, block: np.ndarray, k: int) -> np.ndarray:
    """Class-1 count among the k nearest of the model's points for each
    query row. A block with a non-finite input takes the full scan.

    Each row ranks the points by g = |x|^2 - 2 q.x; the row-constant |q|^2
    does not change the order of a row. k passes over the block of g each
    take the row-wise argmin, add that point's label to the row's class-1
    count, keep its g as g_k and overwrite it with +inf. One more argmin
    then gives the (k+1)-th smallest g, which is +inf when n_points == k.

    The certified shortlist {g <= g_k + m}, m >= 0 the rounding margin
    below, holds every true neighbor and the k picked points. It holds a
    further point exactly when the (k+1)-th smallest g is at most g_k + m,
    ties at g_k included; such a row takes the full scan, which ranks every
    point by exact (distance, index). Any other row's shortlist is the k
    picked points, so they are its neighbors and their count is its answer.
    Which of several equal g an argmin picks does not matter: a tie at g_k
    sends the row to the scan, and every g below g_k is picked.

    Cost. The passes read the block k + 1 times and write only the k
    picked cells of a row, where np.partition copies the whole block; so
    they win at small k and lose as k grows. Against np.partition plus the
    shortlist mask (d = 10, one BLAS thread, BENCH_knn_select.json), k = 3
    took 0.33x the time at 700 queries x 275 points and 0.63x at 200 x 80.
    They broke even near k = 5 on 80-point models and k = 10 on 275-point
    models, and took 3.8x and 2.1x at k = 25. A whole call at 700 x 275,
    k = 3, also saves the partition's fresh allocation: 0.29x the time. The
    pipeline, the CLI default and the paper use k = 3. Reading the (k+1)-th
    g by an argmin and a gather rather than a row min took 13 against 26 us
    at 200 x 80 and 73 against 123 us at 700 x 280, and the model's own
    terms of g are computed once, at fit.

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
    points, labels = model.features, model.labels
    d = points.shape[1]
    sq_block = np.einsum("ij,ij->i", block, block)
    scale = (np.sqrt(sq_block) + model._max_norm) ** 2
    # every term of g is at most scale in magnitude; a NaN fails this too
    if not np.isfinite(2.0 * scale).all():
        return labels[_scan(points, block, k)].sum(axis=1)
    gram = block @ model._scaled_t
    gram += model._sq_norms
    rows = np.arange(len(block))
    positives = np.zeros(len(block), dtype=np.int64)
    for _ in range(k):
        nearest = gram.argmin(axis=1)
        positives += labels[nearest]
        kth = gram[rows, nearest]
        gram[rows, nearest] = np.inf
    margin = 4.0 * (d + 8) * (_EPS * scale + _TINY)
    wide = np.flatnonzero(gram[rows, gram.argmin(axis=1)] <= kth + margin)
    if wide.size:
        positives[wide] = labels[_scan(points, block[wide], k)].sum(axis=1)
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
    k = min(model.config.k, model.n_points)
    positives = np.empty(len(queries), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // max(1, model.features.size))
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        if len(block) * model.n_points < _SCAN_CELLS:
            count = model.labels[_scan(model.features, block, k)].sum(axis=1)
        else:
            count = _euclidean_positives(model, block, k)
        positives[start : start + step] = count
    scores = positives / k
    labels = (scores > 0.5).astype(np.int64)
    return labels, scores

