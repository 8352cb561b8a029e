"""Shared domain types for streaming binary classification.

A stream arrives as ordered chunks of labeled instances. A chunk is
columnar: an (n, d) float64 feature matrix and an (n,) int64 label vector,
and an instance is a row of both, its index the row position. Everything
downstream (PCA, weak learners, ensemble rounds, the evaluation harness)
passes these arrays along, and a chunk's predictions come back the same
way, as one :class:`Records` block of columns. All types here are
immutable after construction and safe to share between threads.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = ["Chunk", "PredictionRecord", "Records", "standardize_chunk"]


def _frozen_array(values, dtype) -> np.ndarray:
    """A C-ordered copy of ``values`` as a view of a read-only buffer, which
    no holder can make writeable again."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr.view()


def _frozen_labels(labels) -> np.ndarray:
    """A read-only int64 copy of ``labels``; ValueError unless each is 0 or 1
    and none is complex, as :class:`Records` rules."""
    labels = np.asarray(labels)
    if labels.dtype.kind == "c" or not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    return _frozen_array(labels, np.int64)


@dataclass(frozen=True, eq=False)
class Chunk:
    """An ordered batch of instances sharing one dimensionality.

    ``features`` is an (n, d) float64 array and ``labels`` an (n,) int64
    array of 0/1; both are read-only copies of the inputs, and row i of each
    is the instance at arrival position i. Non-finite features are data
    here: :func:`driftpp.adaptive.reduce_chunk` refuses such a chunk, built
    in memory or read by :func:`driftpp.data.read_chunk_csv`, and
    :func:`driftpp.adaptive.process_chunk` turns that into an error report
    and the run goes on.
    """

    id: str
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = _frozen_array(self.features, np.float64)
        labels = _frozen_labels(self.labels)
        if features.ndim != 2:
            raise DimensionError(f"expected a 2-D feature array, got shape {features.shape}")
        if labels.shape != features.shape[:1]:
            raise DimensionError(f"{features.shape[0]} feature rows but labels of shape {labels.shape}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.labels.size

    @property
    def dimensionality(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class PredictionRecord:
    """Outcome of one test-then-train step, written before the model updates.

    ``truth`` and ``predicted`` are stored as plain ints; a value that does
    not equal 0 or 1 is rejected. ``score`` is the ensemble's confidence for
    class 1, a number in [0, 1] stored as a float; a string or a bool is
    rejected. The predicted label is 1 exactly when the class-1 vote mass
    exceeds the class-0 vote mass; a tied vote resolves to 0.
    """

    chunk_id: str
    index: int
    truth: int
    predicted: int
    score: float

    def __post_init__(self) -> None:
        if not isinstance(self.chunk_id, str):
            raise ValueError(f"chunk_id {self.chunk_id!r} is not a string")
        if not isinstance(self.index, int) or isinstance(self.index, bool):
            raise ValueError(f"index {self.index!r} is not an integer")
        for name in ("truth", "predicted"):
            value = getattr(self, name)
            if value not in (0, 1):
                raise ValueError(f"{name} {value!r} is not 0 or 1")
            object.__setattr__(self, name, int(value))
        if isinstance(self.score, (str, bool)):
            raise ValueError(f"score {self.score!r} is not a number")
        score = float(self.score)
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} outside [0, 1]")
        object.__setattr__(self, "score", score)


@dataclass(frozen=True, eq=False, repr=False)
class Records(Sequence):
    """The prediction records of one chunk as columns: record i is instance
    i of chunk ``chunk_id``, with ``truth[i]``, ``predicted[i]`` and
    ``score[i]``.

    The columns are read-only (n,) copies, int64 for the labels and float64
    for the score, checked once by the rules :class:`PredictionRecord`
    applies to each record. Indexing and iteration give
    :class:`PredictionRecord` values; a slice gives a list of them. Two
    blocks are equal when their chunk ids and columns are.
    """

    chunk_id: str
    truth: np.ndarray
    predicted: np.ndarray
    score: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.chunk_id, str):
            raise ValueError(f"chunk_id {self.chunk_id!r} is not a string")
        columns = {name: np.asarray(getattr(self, name)) for name in ("truth", "predicted", "score")}
        if len({column.shape for column in columns.values()}) != 1 or columns["truth"].ndim != 1:
            shapes = ", ".join(str(column.shape) for column in columns.values())
            raise ValueError(f"expected three (n,) columns, got shapes {shapes}")
        for name in ("truth", "predicted"):
            column = columns[name]
            if column.dtype.kind not in "biuf" or not ((column == 0) | (column == 1)).all():
                raise ValueError(f"{name} holds a value that is not 0 or 1")
            object.__setattr__(self, name, _frozen_array(column, np.int64))
        if columns["score"].dtype.kind not in "iuf":
            raise ValueError(f"score of dtype {columns['score'].dtype} is not a number")
        score = _frozen_array(columns["score"], np.float64)
        if not ((score >= 0.0) & (score <= 1.0)).all():
            raise ValueError("score holds a value outside [0, 1]")
        object.__setattr__(self, "score", score)

    def __len__(self) -> int:
        return self.truth.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        return PredictionRecord(
            self.chunk_id, i, self.truth[i].item(), self.predicted[i].item(), self.score[i].item()
        )

    def __iter__(self):
        rows = zip(self.truth.tolist(), self.predicted.tolist(), self.score.tolist())
        return (PredictionRecord(self.chunk_id, i, *row) for i, row in enumerate(rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Records):
            return NotImplemented
        return self.chunk_id == other.chunk_id and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("truth", "predicted", "score")
        )

    def __repr__(self) -> str:
        # tolist() spells every float exactly, where numpy's repr rounds
        return (
            f"Records(chunk_id={self.chunk_id!r}, truth={self.truth.tolist()}, "
            f"predicted={self.predicted.tolist()}, score={self.score.tolist()})"
        )


def standardize_chunk(chunk: Chunk) -> Chunk:
    """Rescale every feature column to zero mean and unit variance.

    Statistics come from the chunk itself, so each chunk is standardized
    against its own distribution. Zero-variance columns are centered but not
    scaled. Distance-based learners downstream assume this step has run.
    """
    if len(chunk) == 0:
        return chunk
    x = chunk.features
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return Chunk(chunk.id, (x - mean) / std, chunk.labels)
