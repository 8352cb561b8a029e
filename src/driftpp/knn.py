"""K-nearest-neighbor weak learner over Euclidean distance.

:func:`knn_predict_batch` is the one prediction entry point: it takes an
(n, d) query block and returns (labels, scores) arrays; a single query is a
one-row block, ``x[None]``. A model holds its points once, in a read-only
(n, d + 1) array [x | |x|^2]; ``features`` is a view of its first d columns,
not C-contiguous, and the -2 of the distance goes on the query block.

The neighbors of a query are the first k stored points in (distance, stored
index) order, so distance ties at the neighborhood boundary go to the lower
stored-point index and results are reproducible regardless of query
batching. k argmin passes over the squared distance in matrix-product form
pick each row's k smallest values in place. A row whose next smallest value
lies beyond a certified rounding margin of the k-th, one bound per block
from its largest query, is scored from the picked labels directly. Rows
tied or nearly tied at the k-th distance, blocks with non-finite inputs and
blocks of fewer than ``_SCAN_CELLS`` query and stored point pairs, where
the passes' fixed cost outweighs their saving, scan every stored point: a
stable sort of the row's exact distances, NaN last, gives the (distance,
stored index) order. One far-out row can send its block-mates to the scan;
their answers are the same either way.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import _frozen_labels
from .errors import DimensionError, EmptyTrainingSet

__all__ = ["KnnConfig", "KnnModel", "knn_fit", "knn_predict_batch"]

# cap on scratch memory per block of query rows, in float64 cells: a scan's
# differences take at most all of it, the matrix-product distances and the
# block's -2-scaled, ones-augmented copy at most a d-th, and those are the
# largest transient of a run, so the cap sets its peak RSS
_BLOCK_CELLS = 1_000_000
# query rows x stored points below which a block takes the exact scan: its
# measured crossover with the certified path lies at 80-400 (d 2-20,
# k 1-3, 8- and 40-point models); the certified path took 1.07-1.66x the
# scan's time at 80, 0.66-1.22x at 200 and 0.42-0.87x at 400
# (BENCH_knn_block_bound.json)
_SCAN_CELLS = 200

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)


@dataclass(frozen=True)
class KnnConfig:
    k: int = 3

    def __post_init__(self) -> None:
        if operator.index(self.k) < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Points and 0/1 labels in fit order, the points held once in a read-only
    (n, d + 1) array [x | |x|^2]: ``features`` views its first d columns, not
    C-contiguous, and its transpose is the operand. It checks its inputs."""

    config: KnnConfig
    features: np.ndarray  # (n, d) view of the stored points
    labels: np.ndarray  # (n,)
    _operand: np.ndarray = field(init=False, repr=False)  # (d + 1, n): [x^T; |x|^2]
    _max_norm: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        points = np.asarray(self.features, dtype=np.float64)
        labels = _frozen_labels(self.labels)
        if len(points) == 0:
            raise EmptyTrainingSet("cannot fit a nearest-neighbor model on zero instances")
        if points.ndim != 2 or labels.shape != points.shape[:1]:
            raise DimensionError(
                f"expected (n, d) features and (n,) labels, got {points.shape} and {labels.shape}"
            )
        # the operand is its transpose: a row-major operand raised a run's peak
        # RSS by 0.1 MiB on the reference workload (OpenBLAS)
        stacked = np.empty((len(points), points.shape[1] + 1))
        stacked[:, :-1] = points
        np.einsum("ij,ij->i", stacked[:, :-1], stacked[:, :-1], out=stacked[:, -1])
        stacked.flags.writeable = False
        object.__setattr__(self, "features", stacked[:, :-1])
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_operand", stacked.T)
        object.__setattr__(self, "_max_norm", math.sqrt(stacked[:, -1].max()))

    @property
    def n_points(self) -> int:
        return self.features.shape[0]

    @property
    def dimensionality(self) -> int:
        return self.features.shape[1]


def _scan(points: np.ndarray, block: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest points of each query row by a full scan of
    exact distances, shape (n_rows, k).

    Each (query, point) distance is reduced on its own, apart from the
    block's other rows. The order is by distance, not its square: the square
    root can round two distinct squared distances to one value, a tie that
    goes to the lower index. An overflow gives inf and inf - inf gives NaN,
    which sorts last, so neither warns. Scratch is n_rows * n_points * d cells.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        diff = block[:, None, :] - points[None, :, :]
        distances = np.sqrt((diff * diff).sum(axis=-1))
    return np.argsort(distances, axis=1, kind="stable")[:, :k]


def _euclidean_positives(model: KnnModel, block: np.ndarray, k: int) -> np.ndarray:
    """Class-1 count among the k nearest of the model's points for each
    query row. A block with a non-finite input takes the full scan.

    Each row ranks the points by g = |x|^2 - 2 q.x; the row-constant |q|^2
    does not change the order of a row. One matrix product of the block,
    scaled by -2 and with a column of ones appended, by the model's operand
    [x^T; |x|^2] gives the block of g. k passes over it each take the
    row-wise argmin, add that point's label to the row's class-1 count and
    overwrite its g with +inf, the last after keeping it as g_k. One more
    argmin then gives the (k+1)-th smallest g, which is +inf when
    n_points == k. The passes write and gather by flat cell index, a row's
    argmin plus its row's offset into the block.

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
    took 0.33x the time at 700 queries x 275 points and 0.63x at 200 x 80;
    they broke even near k = 5 to 10. The pipeline, the CLI default and the
    paper use k = 3. The rest is fixed cost per block, paid often by the
    pipeline's many small blocks: the model's terms of g are folded into the
    operand at fit (BENCH_knn_fold.json), and one scalar bound per block
    with flat-index passes took a call from 58 to 50 us at 200 x 79 and
    from 331 to 301 us at 700 x 281 (BENCH_knn_block_bound.json).

    Rounding bound. Let u = eps/2, gamma_n = n*u/(1 - n*u) and
    R = max|q| + max|x|, the block's largest query norm plus the model's
    largest point norm, so that R^2 bounds D^2 and |x|^2 + 2|q||x| for
    every row of the block. Scaling the query by -2 is exact, as each
    (-2q_i) x_i is -2 q_i x_i rounded once; it cannot overflow, since the
    finiteness check before it bounds max|q| below sqrt(DBL_MAX/2).
    Multiplying by 1 is exact. The stored fl(|x|^2), a sum of d terms, is
    within gamma_d |x|^2 of |x|^2, and the product is a sum of d + 1 terms,
    within gamma_{d+1} of the sum of their magnitudes, 2|q||x| + fl(|x|^2)
    at most. So g is within
    gamma_d |x|^2 + gamma_{d+1} (2|q||x| + (1 + gamma_d)|x|^2)
    <= gamma_{2d+1} R^2 of D^2 - |q|^2, since
    gamma_d + gamma_{d+1} + gamma_d gamma_{d+1} <= gamma_{2d+1}. The exact
    path rounds the difference, its square and a d-term sum, so its squared
    distance s is within gamma_{d+2} R^2 of D^2. If g_k is the k-th
    smallest g, k points have
    s <= g_k + |q|^2 + (gamma_{2d+1} + gamma_{d+2}) R^2, so the k-th
    smallest s is no larger. After the square root a point ties the k-th
    distance only if its s is at most (1+u)^2/(1-u)^2 times the k-th, an
    excess under 5u R^2. Every true neighbor thus has
    g <= g_k + 2 (gamma_{2d+1} + gamma_{d+2}) R^2 + 5u R^2, about
    (6d + 11)u R^2 above g_k; |q|^2 cancels. The shortlist keeps
    g <= g_k + 4(d + 8) eps R^2 = g_k + (8d + 64)u R^2, (2d + 53)u R^2
    more at every d, which also covers the rounding of R and of the
    threshold itself. A product that underflows breaks the relative bounds:
    it may then be off by up to eta/2 absolute, eta the smallest subnormal,
    so g gains at most d*eta, half in fl(|x|^2) and half in the product,
    and s at most d*eta/2. The margin adds 4(d + 8) eta, which covers four
    times their sum.

    One bound serves the whole block. R is at least each row's own
    |q| + max|x|, and a wider margin only sends more rows to the scan, so
    a row's answer does not depend on the other rows. The path it takes
    does: one far-out row widens the margin for its whole block, and its
    block-mates may then take the scan. A NaN, infinite or overflowing row
    makes 2 R^2 non-finite, so its block takes the full scan.
    """
    points, labels = model.features, model.labels
    n, d = points.shape
    # one bound for the block, a Python float, so the checks below are scalar
    radius = math.sqrt(np.einsum("ij,ij->i", block, block).max()) + model._max_norm
    scale = radius * radius
    # every term of g is at most scale in magnitude; a NaN fails this too
    if not math.isfinite(2.0 * scale):
        return labels[_scan(points, block, k)].sum(axis=1)
    augmented = np.empty((len(block), d + 1))
    np.multiply(block, -2.0, out=augmented[:, :d])
    augmented[:, d] = 1.0
    gram = augmented @ model._operand
    cells = gram.reshape(-1)
    offsets = np.arange(0, gram.size, n)
    positives = np.zeros(len(block), dtype=np.int64)
    for pass_ in range(k):
        if pass_:
            cells[nearest] = np.inf
        nearest = gram.argmin(axis=1)
        positives += labels[nearest]
        nearest += offsets
    kth = cells[nearest]
    cells[nearest] = np.inf
    margin = 4.0 * (d + 8) * (_EPS * scale + _TINY)
    wide = np.flatnonzero(cells[gram.argmin(axis=1) + offsets] <= kth + margin)
    if wide.size:
        positives[wide] = labels[_scan(points, block[wide], k)].sum(axis=1)
    return positives


def knn_fit(config: KnnConfig, features, labels) -> KnnModel:
    """Fit a model to an (n, d) feature array and its (n,) labels, each 0
    or 1. The model holds its own read-only copy; duplicate rows are kept."""
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
    d = model.dimensionality
    step = max(1, _BLOCK_CELLS // max(1, d * (model.n_points + d + 1)))
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

