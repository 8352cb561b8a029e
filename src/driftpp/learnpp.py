"""Incremental ensemble engine built on weighted weak-learner rounds.

Training works window by window. Each window carries a weight distribution
over its instances. A round repeatedly samples a training subset in
proportion to those weights, fits a nearest-neighbor weak hypothesis on the
distinct instances of that draw, and keeps it only if its weighted error
over the whole window stays below the error threshold; over-threshold
candidates are discarded and re-sampled, and too many consecutive discards
end the round, which fails only if it accepted nothing. Every kept
hypothesis votes with weight log(1 / normalized_error), so more accurate
hypotheses speak louder. After each acceptance the composite vote of all
retained hypotheses is evaluated on the window, and the weights of
correctly classified instances decay by the normalized composite error,
which concentrates the next subset on the instances the ensemble still gets
wrong. A composite that classifies the whole window correctly ends the
round early.

Each equation has one function, which training calls and the tests check:
:func:`weighted_error`, :func:`normalize_error` (beta) and
:func:`update_weights`; one committee vote serves prediction and rounds.

Windows are (features, labels) array pairs. The model itself learns
online: copies of blocks of rows, their labels and their outcomes at
arrival are appended to a buffer, and a full buffer is joined column by
column into the next training window. Instances that the ensemble
misclassified at arrival enter the window with doubled initial weight. Old
window groups can be pruned wholesale to bound memory.

Prediction takes an (n, d) block and returns (labels, scores) arrays, the
composite vote of every retained hypothesis; a single query is a one-row
block. Predictions are read-only and may run concurrently; training calls
must be serialized by the caller (single writer).
"""
from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import _frozen_array, _frozen_labels
from .errors import (
    DegenerateData,
    DimensionError,
    EmptyEnsemble,
    EmptyWindow,
    RoundFailed,
)
from .knn import KnnConfig, KnnModel, knn_fit, knn_predict_batch

__all__ = [
    "BETA_FLOOR",
    "LearnPPConfig",
    "WeightDistribution",
    "WeakHypothesis",
    "LearnPPModel",
    "init_weights",
    "sample_training_subset",
    "weighted_error",
    "normalize_error",
    "update_weights",
    "run_round",
]

logger = logging.getLogger(__name__)

# normalized error assigned to a perfect weak hypothesis; keeps its vote
# weight large but finite
BETA_FLOOR = 1e-10

_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LearnPPConfig:
    """Knobs for the ensemble.

    ``window_size=None`` leaves window boundaries to the caller (the chunk
    harness flushes once per chunk, so each chunk becomes one window).
    ``max_window_ensembles=None`` disables forgetting. A candidate is
    accepted below ``error_threshold``, which lies in (0, 0.5] so that its
    normalized error e/(1-e) stays below 1.
    """

    n_estimators: int = 3
    window_size: int | None = None
    error_threshold: float = 0.5
    max_retries: int = 10
    max_window_ensembles: int | None = None
    knn: KnnConfig = field(default_factory=KnnConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if operator.index(self.n_estimators) < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if self.window_size is not None and operator.index(self.window_size) < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if not 0.0 < self.error_threshold <= 0.5:
            raise ValueError(f"error_threshold must lie in (0, 0.5], got {self.error_threshold}")
        if operator.index(self.max_retries) < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.max_window_ensembles is not None and operator.index(self.max_window_ensembles) < 1:
            raise ValueError(
                f"max_window_ensembles must be >= 1, got {self.max_window_ensembles}"
            )
        if operator.index(self.seed) < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, eq=False)
class WeightDistribution:
    """Normalized, non-negative weights over the instances of one window."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.weights, np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise EmptyWindow("weight distribution needs at least one entry")
        # NaN fails every comparison below, the sum check's included
        if not np.isfinite(arr).all():
            raise ValueError("weights must be finite")
        if np.any(arr < 0.0):
            raise ValueError("weights must be non-negative")
        if not np.any(arr > 0.0):
            raise ValueError("at least one weight must be positive")
        total = arr.sum()
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "weights", arr)

    def __len__(self) -> int:
        return self.weights.size

    @classmethod
    def normalized(cls, raw) -> "WeightDistribution":
        """Build a distribution from unnormalized non-negative weights."""
        arr = np.asarray(raw, dtype=np.float64)
        if arr.size == 0:
            raise EmptyWindow("cannot normalize an empty weight vector")
        total = arr.sum()
        if not 0.0 < total < np.inf:
            raise ValueError(f"weights must have a positive finite sum, got {total!r}")
        return cls(arr / total)


@dataclass(frozen=True, eq=False)
class WeakHypothesis:
    """One accepted weak learner and its voting strength.

    ``normalized_error`` is e/(1-e) for the weighted training error e, always
    inside (0, 1) for an accepted hypothesis. The vote weight is its log
    reciprocal, so it is always positive.
    """

    model: KnnModel
    normalized_error: float
    window_ordinal: int

    def __post_init__(self) -> None:
        if not 0.0 < self.normalized_error < 1.0:
            raise ValueError(
                f"normalized error must lie in (0, 1), got {self.normalized_error!r}"
            )

    @property
    def vote_weight(self) -> float:
        return math.log(1.0 / self.normalized_error)


def init_weights(n: int) -> WeightDistribution:
    """Uniform distribution 1/n over n instances."""
    if n < 1:
        raise EmptyWindow(f"cannot build weights over {n} instances")
    return WeightDistribution(np.full(n, 1.0 / n))


def sample_training_subset(dist: WeightDistribution, rng: np.random.Generator) -> np.ndarray:
    """Draw ceil(n/2) instance indices with replacement, proportional to weight."""
    n = len(dist)
    size = (n + 1) // 2
    return rng.choice(n, size=size, replace=True, p=dist.weights)


def weighted_error(dist: WeightDistribution, predicted, labels) -> float:
    """Total weight of the instances whose prediction misses the label: the
    weighted error of a hypothesis, or of the composite, from its predicted
    labels on the window that ``dist`` weighs."""
    predicted, labels = np.asarray(predicted), np.asarray(labels)
    if not len(predicted) == len(labels) == len(dist):
        raise DimensionError(
            f"{len(predicted)} predictions and {len(labels)} labels "
            f"but distribution has {len(dist)} weights"
        )
    return float(dist.weights[predicted != labels].sum())


def normalize_error(e: float) -> float:
    """Map a weighted error e in [0, 0.5) to e/(1-e) in (0, 1). An error of
    0 maps to BETA_FLOOR, so a perfect hypothesis votes large but finite."""
    return BETA_FLOOR if e == 0.0 else e / (1.0 - e)


def _weighted_vote(
    prediction_rows: Sequence[np.ndarray],
    vote_weights: Sequence[float],
    n: int,
    masses: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite labels and class-1 scores of n instances from each
    hypothesis's predictions. Each hypothesis adds its vote weight to the
    class it predicts, in hypothesis order; the class with the larger vote
    mass wins and a tie resolves to 0. The score is the class-1 share of the
    mass (0.5 when no mass was cast).

    ``masses``, the (class-0, class-1) vote masses that earlier hypotheses
    cast, are added to in place; without them the masses start at zero.
    Voting in two calls thus gives the bits of one call over both lists."""
    mass0, mass1 = (np.zeros(n), np.zeros(n)) if masses is None else masses
    for predictions, weight in zip(prediction_rows, vote_weights):
        ones = predictions == 1
        np.add(mass1, weight, out=mass1, where=ones)
        np.add(mass0, weight, out=mass0, where=~ones)
    total = mass0 + mass1
    scores = np.divide(mass1, total, out=np.full(n, 0.5), where=total > 0.0)
    return (mass1 > mass0).astype(np.int64), scores


def _composite(
    hypotheses: Sequence[WeakHypothesis],
    features: np.ndarray,
    masses: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite labels and scores of an (n, d) feature block: every
    hypothesis predicts the block and votes. ``masses`` are added to in
    place, as in :func:`_weighted_vote`."""
    rows = [knn_predict_batch(hyp.model, features)[0] for hyp in hypotheses]
    return _weighted_vote(rows, [hyp.vote_weight for hyp in hypotheses], len(features), masses)


def update_weights(dist: WeightDistribution, correct_mask, decay: float) -> WeightDistribution:
    """Decay the weights of correctly classified instances by ``decay`` and
    renormalize. Misclassified instances keep their raw weight, so they gain
    relative mass."""
    mask = np.asarray(correct_mask, dtype=bool)
    if mask.shape != dist.weights.shape:
        raise DimensionError(
            f"mask has shape {mask.shape} but distribution has shape {dist.weights.shape}"
        )
    return WeightDistribution.normalized(np.where(mask, dist.weights * decay, dist.weights))


def run_round(
    features,
    labels,
    d0: WeightDistribution,
    config: LearnPPConfig,
    rng: np.random.Generator,
    prior: Sequence[WeakHypothesis] = (),
    window_ordinal: int = 0,
) -> tuple[list[WeakHypothesis], WeightDistribution]:
    """Run one training round over a window of (n, d) features and (n,)
    labels and return the accepted hypotheses plus the final weight
    distribution.

    The caller should hand in a window containing both classes. A label
    other than 0 or 1 raises ValueError, and features, labels and ``d0`` of
    another length DimensionError, before anything is drawn. Prior retained
    hypotheses participate in every composite evaluation: they vote once,
    through the committee vote that prediction uses, and each acceptance
    adds its own vote mass. Each candidate is fit on the distinct instances
    of a weight-proportional draw (duplicates dropped, so no instance counts
    twice among its neighbors) and judged on the whole window by
    :func:`weighted_error`; its beta is :func:`normalize_error`, the floor
    for a perfect candidate. After each acceptance, the composite error E of
    all hypotheses (prior and new) drives the weight update; E of zero stops
    the round, and E at or above one half leaves the weights untouched for
    that step.

    ``max_retries`` consecutive rejected candidates end the round with the
    hypotheses it accepted, or raise RoundFailed when it accepted none.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = _frozen_labels(labels)
    n = len(labels)
    if n == 0:
        raise EmptyWindow("cannot run a training round on an empty window")
    if not len(features) == n == len(d0):
        raise DimensionError(
            f"window has {len(features)} rows and {n} labels "
            f"but distribution has {len(d0)} weights"
        )
    dist = d0

    masses = np.zeros(n), np.zeros(n)
    _composite(prior, features, masses)
    accepted: list[WeakHypothesis] = []
    consecutive_failures = 0

    while len(accepted) < config.n_estimators:
        # fit on the distinct instances drawn: a k-NN given two copies of a
        # heavy instance would echo its label everywhere around it
        subset_idx = np.flatnonzero(np.bincount(sample_training_subset(dist, rng), minlength=n))
        candidate = knn_fit(config.knn, features[subset_idx], labels[subset_idx])
        predictions, _ = knn_predict_batch(candidate, features)
        error = weighted_error(dist, predictions, labels)

        if error >= config.error_threshold:
            consecutive_failures += 1
            logger.debug(
                "window %d: candidate rejected at weighted error %.4f (failure %d/%d)",
                window_ordinal, error, consecutive_failures, config.max_retries,
            )
            if consecutive_failures >= config.max_retries:
                if accepted:
                    break
                raise RoundFailed(
                    f"window {window_ordinal}: {consecutive_failures} consecutive "
                    f"candidates at weighted error >= {config.error_threshold:g}"
                )
            continue
        consecutive_failures = 0

        hypothesis = WeakHypothesis(candidate, normalize_error(error), window_ordinal)
        accepted.append(hypothesis)

        composite, _ = _weighted_vote([predictions], [hypothesis.vote_weight], n, masses)
        comp_error = weighted_error(dist, composite, labels)
        if comp_error == 0.0:
            # the ensemble already masters this window; keep weights as-is
            break
        if comp_error < 0.5:
            dist = update_weights(dist, composite == labels, normalize_error(comp_error))
        # comp_error >= 0.5: keep the hypothesis but skip the weight update

    return accepted, dist


class LearnPPModel:
    """Stateful incremental ensemble.

    Single writer: ``partial_fit``, ``flush_window``, and ``fit_initial``
    must not run concurrently with each other. ``predict`` only reads.
    """

    def __init__(self, config: LearnPPConfig):
        self.config = config
        self.hypotheses: list[WeakHypothesis] = []
        self.windows_completed = 0
        self._rng = np.random.default_rng(config.seed)
        # pending (features, labels, missed at arrival) copies and their row count
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._buffered = 0

    @property
    def buffer_size(self) -> int:
        return self._buffered

    @property
    def rows_until_flush(self) -> int | None:
        """Most rows the next :meth:`partial_fit` block may hold; a block of
        exactly this many ends in a training round. The buffer is always
        shorter than one window, so this is at least 1. None with
        ``window_size=None``, where the caller flushes."""
        window_size = self.config.window_size
        return None if window_size is None else window_size - self.buffer_size

    def predict(self, features) -> tuple[np.ndarray, np.ndarray]:
        """Composite labels and class-1 scores of an (n, d) feature block.

        Each hypothesis adds its vote weight to the class it predicts; the
        larger mass wins, a tie resolves to 0, and the score is the class-1
        share of the mass. A row's output does not depend on the other rows.
        """
        if not self.hypotheses:
            raise EmptyEnsemble("no hypotheses to vote with")
        return _composite(self.hypotheses, features)

    def fit_initial(self, features, labels) -> None:
        """Train one full round on a window of (n, d) features and (n,)
        labels under uniform weights, to bootstrap the ensemble; the pending
        buffer is untouched. A label other than 0 or 1 raises ValueError,
        and a window of one class DegenerateData, either leaving the model
        as it was.
        """
        self._train(features, _frozen_labels(labels), init_weights(len(labels)))

    def partial_fit(self, features, labels, was_correct) -> "LearnPPModel":
        """Buffer copies of an (n, d) block of observed feature rows, their
        (n,) labels and whether the ensemble classified each correctly at
        arrival.

        A label outside {0, 1}, or a block longer than
        :attr:`rows_until_flush` (so a round can only fire on its last row),
        raises ValueError, and a block narrower or wider than the buffered
        rows and the ensemble's models DimensionError; none of these errors
        changes the model. When the buffer reaches the configured window size,
        it becomes a training window: instances misclassified at arrival get
        double initial weight, one round runs, the new hypotheses join the
        ensemble, and the buffer clears. With ``window_size=None`` the buffer
        only converts when the caller invokes :meth:`flush_window`.

        If the round fails, RoundFailed propagates and the window is gone
        all the same (see :meth:`flush_window`).
        """
        features = np.array(features, dtype=np.float64)
        labels = _frozen_labels(labels)
        missed = ~np.asarray(was_correct, dtype=bool)
        if features.ndim != 2 or labels.shape != features.shape[:1] or missed.shape != labels.shape:
            shapes = f"{features.shape}, {labels.shape} and {missed.shape}"
            raise DimensionError(f"expected (n, d), (n,) and (n,) blocks, got {shapes}")
        width = features.shape[1]
        buffered = self._blocks[0][0].shape[1] if self._blocks else width
        fitted = self.hypotheses[0].model.dimensionality if self.hypotheses else width
        if (buffered, fitted) != (width, width):
            raise DimensionError(
                f"block width {width}, buffered width {buffered}, ensemble width {fitted}"
            )
        limit = self.rows_until_flush
        if limit is not None and len(labels) > limit:
            raise ValueError(f"block of {len(labels)} rows is longer than rows_until_flush={limit}")
        if len(labels):
            self._blocks.append((features, labels, missed))
        self._buffered += len(labels)
        if len(labels) == limit:
            self.flush_window()
        return self

    def flush_window(self) -> None:
        """Turn the pending buffer into a training window and run one round.

        The window leaves the buffer whatever the round does: it trains, it
        holds a single class and is dropped with a warning but counted in
        ``windows_completed``, or the round fails and RoundFailed propagates
        with the ensemble and ``windows_completed`` unchanged. No rows are
        kept for a retry. No-op on an empty buffer.
        """
        if not self.buffer_size:
            return
        features, labels, missed = (np.concatenate(column) for column in zip(*self._blocks))
        self._blocks, self._buffered = [], 0
        try:
            self._train(features, labels, WeightDistribution.normalized(np.where(missed, 2.0, 1.0)))
        except DegenerateData as exc:
            logger.warning("%s; dropping %d buffered instances", exc, len(labels))
            self.windows_completed += 1

    def _train(self, features, labels, d0: WeightDistribution) -> None:
        """Train a window's round into the ensemble; DegenerateData, with
        nothing changed, for a window of one class."""
        if labels.min() == labels.max():
            raise DegenerateData(f"window {self.windows_completed} holds only class {labels[0]}")
        new_hypotheses, _ = run_round(
            features, labels, d0, self.config, self._rng,
            prior=self.hypotheses, window_ordinal=self.windows_completed,
        )
        self.hypotheses.extend(new_hypotheses)
        self.windows_completed += 1
        self._prune()

    def _prune(self) -> None:
        cap = self.config.max_window_ensembles
        if cap is None:
            return
        ordinals = sorted({hyp.window_ordinal for hyp in self.hypotheses})
        if len(ordinals) <= cap:
            return
        keep = set(ordinals[-cap:])
        dropped = len(self.hypotheses)
        self.hypotheses = [hyp for hyp in self.hypotheses if hyp.window_ordinal in keep]
        dropped -= len(self.hypotheses)
        logger.info("pruned %d hypotheses from the oldest window groups", dropped)
