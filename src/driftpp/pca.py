"""Principal component analysis via eigendecomposition of the covariance.

Fit is per chunk: each chunk gets its own axes, so component k of one chunk
is not guaranteed to line up with component k of another. Downstream code
relies on per-chunk standardization and on the dominant directions being
stable, which holds when the underlying distribution is stationary.
:func:`pca_fit` decides the whole basis, rounding-noise components included;
:func:`pca_transform` projects onto every row the model holds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Chunk, _frozen_array
from .errors import DegenerateData, DimensionError

__all__ = ["PcaModel", "pca_fit", "pca_transform", "tevr"]


@dataclass(frozen=True, eq=False)
class PcaModel:
    """mean: (d,) column means. components: (n_components, d) rows in
    descending variance order, orthonormal apart from zero rows, which stand
    for components within rounding of zero. explained_variance_ratio: full
    spectrum over all d directions, nonincreasing, summing to 1. All three
    are read-only copies."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mean", "components", "explained_variance_ratio"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), np.float64))


def pca_fit(chunk: Chunk, n_components: int) -> PcaModel:
    """Fit the first ``n_components`` principal axes of one chunk's features.

    Eigendecomposition of the d x d sample covariance; eigenvalues below
    zero from rounding are clipped. Sign convention: each component's
    largest-magnitude entry is positive, which makes the fit deterministic.

    A component whose eigenvalue is within rounding of zero, as when
    ``n_components`` exceeds the chunk's rank, becomes a zero row: it
    projects to a zero column, which standardization centres and does not
    scale. Forming the covariance of an (n, d) chunk sums n rounded products
    per entry, and ``eigh`` is backward stable, so each eigenvalue carries an
    absolute error of order ``max(n, d) * eps * lambda_max``; an eigenvalue
    at or below that cannot be told from zero. It is the tolerance
    ``numpy.linalg.matrix_rank`` puts on singular values.
    """
    x = chunk.features
    n, d = x.shape
    if n < 2:
        raise DegenerateData(f"need at least 2 instances to fit, got {n}")
    if not 1 <= n_components <= min(n, d):
        raise DimensionError(
            f"n_components must lie in [1, {min(n, d)}] for a {n}x{d} chunk, got {n_components}"
        )
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    # ascending from eigh; flip to descending, rows as components
    eigenvalues = np.clip(eigenvalues[::-1], 0.0, None)
    components = eigenvectors[:, ::-1].T[:n_components].copy()
    total = eigenvalues.sum()
    if total == 0.0:
        raise DegenerateData("chunk has zero total variance")
    for row in components:
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0
    ratios = eigenvalues / total
    components[ratios[:n_components] <= max(n, d) * np.finfo(np.float64).eps * ratios[0]] = 0.0
    return PcaModel(mean, components, ratios)


def pca_transform(model: PcaModel, chunk: Chunk) -> Chunk:
    """Project a chunk onto every component the model holds, one column per
    row of ``components``; a zero row gives a zero column. Labels, id and
    order are preserved."""
    if chunk.dimensionality != model.mean.size:
        raise DimensionError(
            f"chunk dimensionality {chunk.dimensionality} does not match fitted {model.mean.size}"
        )
    scores = (chunk.features - model.mean) @ model.components.T
    return Chunk(chunk.id, scores, chunk.labels)


def tevr(model: PcaModel, k: int) -> float:
    """Total explained variance ratio of the first k components."""
    if not 1 <= k <= model.explained_variance_ratio.size:
        raise DimensionError(
            f"k must lie in [1, {model.explained_variance_ratio.size}], got {k}"
        )
    return float(model.explained_variance_ratio[:k].sum())
