"""Principal component analysis via eigendecomposition of the covariance.

Fit is per chunk: each chunk gets its own axes, so component k of one chunk
is not guaranteed to line up with component k of another. Downstream code
relies on per-chunk standardization and on the dominant directions being
stable, which holds when the underlying distribution is stationary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Chunk
from .errors import DegenerateData, DimensionError

__all__ = ["PcaModel", "pca_fit", "pca_transform", "tevr"]


@dataclass(frozen=True, eq=False)
class PcaModel:
    """mean: (d,) column means. components: (n_components, d) orthonormal
    rows in descending variance order. explained_variance_ratio: full
    spectrum over all d directions, nonincreasing, summing to 1."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray


def pca_fit(chunk: Chunk, n_components: int) -> PcaModel:
    """Fit principal axes to one chunk's features.

    Eigendecomposition of the d x d sample covariance; eigenvalues below
    zero from rounding are clipped. Sign convention: each component's
    largest-magnitude entry is positive, which makes the fit deterministic.
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
    components = eigenvectors[:, ::-1].T.copy()
    total = eigenvalues.sum()
    if total == 0.0:
        raise DegenerateData("chunk has zero total variance")
    for row in components:
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0
    ratios = eigenvalues / total
    mean.flags.writeable = False
    components = components[:n_components]
    components.flags.writeable = False
    ratios.flags.writeable = False
    return PcaModel(mean, components, ratios)


def pca_transform(model: PcaModel, chunk: Chunk, k: int) -> Chunk:
    """Project a chunk onto the first k components. Labels and order are
    preserved."""
    if not 1 <= k <= model.components.shape[0]:
        raise DimensionError(
            f"k must lie in [1, {model.components.shape[0]}], got {k}"
        )
    if chunk.dimensionality != model.mean.size:
        raise DimensionError(
            f"chunk dimensionality {chunk.dimensionality} does not match fitted {model.mean.size}"
        )
    scores = (chunk.features - model.mean) @ model.components[:k].T
    return Chunk(chunk.id, scores, chunk.labels)


def tevr(model: PcaModel, k: int) -> float:
    """Total explained variance ratio of the first k components."""
    if not 1 <= k <= model.explained_variance_ratio.size:
        raise DimensionError(
            f"k must lie in [1, {model.explained_variance_ratio.size}], got {k}"
        )
    return float(model.explained_variance_ratio[:k].sum())
