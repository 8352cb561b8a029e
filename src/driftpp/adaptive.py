"""Predict-then-update harness over sequential chunks.

The pipeline mirrors honest online evaluation: every instance is predicted
and recorded before its label is revealed to the model, so a chunk's metrics
never leak information from the model updates it triggers. Each chunk is
reduced to a fixed number of principal components (fit on that chunk),
standardized, evaluated, and then folded into the ensemble. The ensemble
only changes when its buffer flushes into a training round, so the
instances between two flushes are predicted, recorded and absorbed as one
block; with the default chunk-aligned windows the whole chunk is one block
and becomes one training window at its end. A window whose round fails is
dropped like any other flushed window, and the chunk goes on.

A chunk report carries F1, AUC, miss rate, and raw counts, plus a drift
alarm: the alarm fires when the chunk's F1 falls more than a configured drop
below the mean F1 of the recent report history. The alarm is a pure function
of the report sequence.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .core import Chunk, PredictionRecord, validate_chunk, standardize_chunk
from .errors import (
    DegenerateData,
    DimensionError,
    EmptyEnsemble,
    PretrainFailed,
    RoundFailed,
    UndefinedAUC,
)
from .learnpp import LearnPPConfig, LearnPPModel
from .metrics import auc, confusion, f1, fnr
from .pca import pca_fit, pca_transform

__all__ = [
    "RunConfig",
    "ChunkReport",
    "reduce_chunk",
    "drift_alarm",
    "chunk_report",
    "pretrain",
    "process_chunk",
    "run_experiment",
]

logger = logging.getLogger(__name__)

RecordSink = Callable[[PredictionRecord], None]


@dataclass(frozen=True)
class RunConfig:
    """Experiment-level configuration wrapping the ensemble knobs.

    ``pc_count`` is the number of principal components every chunk is
    reduced to. ``drift_f1_drop`` and ``drift_baseline_window`` parameterize
    the alarm: a chunk alarms when its F1 is more than the drop below the
    mean F1 of up to ``drift_baseline_window`` preceding reports.
    """

    learnpp: LearnPPConfig = field(default_factory=LearnPPConfig)
    pc_count: int = 75
    drift_f1_drop: float = 0.2
    drift_baseline_window: int = 3

    def __post_init__(self) -> None:
        if self.pc_count < 1:
            raise ValueError(f"pc_count must be >= 1, got {self.pc_count}")
        if not self.drift_f1_drop > 0.0:
            raise ValueError(f"drift_f1_drop must be positive, got {self.drift_f1_drop}")
        if self.drift_baseline_window < 1:
            raise ValueError(
                f"drift_baseline_window must be >= 1, got {self.drift_baseline_window}"
            )


@dataclass(frozen=True)
class ChunkReport:
    """Per-chunk evaluation summary. ``error`` notes the first round that
    failed in the chunk, or why the chunk could not be evaluated at all."""

    chunk_id: str
    f1: float
    auc: float
    fnr: float
    correct_count: int
    incorrect_count: int
    percent_correct: float
    drift_alarm: bool
    error: str | None = None

    @property
    def evaluated_count(self) -> int:
        return self.correct_count + self.incorrect_count


def reduce_chunk(chunk: Chunk, pc_count: int) -> Chunk:
    """Reduce a chunk to ``pc_count`` features and standardize it.

    Chunks wider than ``pc_count`` are projected onto their own top
    principal components; chunks already at ``pc_count`` skip the
    projection. Either way the result is standardized per column.
    """
    if chunk.dimensionality < pc_count:
        raise DimensionError(
            f"chunk {chunk.id} has {chunk.dimensionality} features, need at least {pc_count}"
        )
    if chunk.dimensionality > pc_count:
        model = pca_fit(chunk, pc_count)
        chunk = pca_transform(model, chunk, pc_count)
    return standardize_chunk(chunk)


def drift_alarm(f1_value: float, baseline_f1: Sequence[float], config: RunConfig) -> bool:
    """True when ``f1_value`` sits more than the configured drop below the
    mean of the trailing baseline. Vacuously false with no baseline."""
    window = list(baseline_f1)[-config.drift_baseline_window :]
    if not window:
        return False
    return f1_value < (sum(window) / len(window)) - config.drift_f1_drop


def _baseline_f1(history: Sequence[ChunkReport]) -> list[float]:
    # reports with no evaluated instances carry no signal for the baseline
    return [report.f1 for report in history if report.evaluated_count > 0]


def chunk_report(
    chunk_id: str,
    records: Sequence[PredictionRecord],
    history: Sequence[ChunkReport],
    config: RunConfig,
    error: str | None = None,
) -> ChunkReport:
    """Summarize one chunk's records. ``history`` holds the reports of the
    preceding chunks, whose F1 values form the drift-alarm baseline; AUC is
    NaN when the records hold fewer than two classes."""
    counts = confusion(records)
    try:
        auc_value = auc(records) if records else math.nan
    except UndefinedAUC:
        auc_value = math.nan
    f1_value = f1(counts)
    correct = counts.tp + counts.tn
    incorrect = counts.fp + counts.fn
    total = correct + incorrect
    alarm = bool(records) and drift_alarm(f1_value, _baseline_f1(history), config)
    return ChunkReport(
        chunk_id=chunk_id,
        f1=f1_value,
        auc=auc_value,
        fnr=fnr(counts),
        correct_count=correct,
        incorrect_count=incorrect,
        percent_correct=correct / total if total else 0.0,
        drift_alarm=alarm,
        error=error,
    )


def _reduce_valid(chunk: Chunk, pc_count: int) -> Chunk | str:
    """The chunk through :func:`reduce_chunk`, or a note saying why it fails
    validation (its violation count and the first one) or cannot be
    reduced."""
    violations = validate_chunk(chunk).violations
    if violations:
        first = violations[0]
        return (
            f"chunk {chunk.id} is invalid ({len(violations)} violations; "
            f"first at instance {first.index}: {first.reason})"
        )
    try:
        return reduce_chunk(chunk, pc_count)
    except (DimensionError, DegenerateData) as exc:
        return f"chunk {chunk.id} cannot be reduced: {exc}"


def _records(chunk_id: str, truth, predicted, scores, start: int = 0) -> list[PredictionRecord]:
    """Records of a block of instances, the first at arrival position ``start``."""
    rows = zip(truth.tolist(), predicted.tolist(), scores.tolist())
    return [PredictionRecord(chunk_id, i, *row) for i, row in enumerate(rows, start)]


def pretrain(
    initial: Chunk, config: RunConfig
) -> tuple[LearnPPModel, ChunkReport, list[PredictionRecord]]:
    """Train the starting ensemble on the initial chunk.

    Runs one full-window round under uniform weights, then scores the
    trained ensemble on the same chunk to produce the initial-classifier
    report (training-set metrics, never alarmed). Raises PretrainFailed,
    naming the chunk, when it is empty, single-class, invalid or cannot be
    reduced, or when the round fails.
    """
    if len(initial) == 0:
        raise PretrainFailed(f"initial chunk {initial.id} is empty")
    present = set(initial.labels.tolist())
    if len(present) < 2:
        raise PretrainFailed(
            f"initial chunk {initial.id} holds only class {present.pop()}"
        )
    reduced = _reduce_valid(initial, config.pc_count)
    if isinstance(reduced, str):
        raise PretrainFailed(f"initial {reduced}")
    model = LearnPPModel(config.learnpp)
    try:
        model.fit_initial(reduced.features, reduced.labels)
    except RoundFailed as exc:
        raise PretrainFailed(f"initial training round failed: {exc}") from exc
    predicted, scores = model.predict(reduced.features)
    records = _records(initial.id, reduced.labels, predicted, scores)
    report = chunk_report(initial.id, records, history=(), config=config)
    return model, report, records


def process_chunk(
    model: LearnPPModel,
    chunk: Chunk,
    config: RunConfig,
    history: Sequence[ChunkReport] = (),
) -> tuple[ChunkReport, list[PredictionRecord]]:
    """Evaluate and absorb one chunk in arrival order.

    Each instance is predicted, recorded and compared against the revealed
    truth before the model absorbs it. The chunk goes one segment at a
    time: the instances up to the next buffer flush (the whole chunk with
    chunk-aligned windows), during which the ensemble cannot change, are
    predicted as one block and absorbed as one block. With chunk-aligned
    windows the chunk is one segment, flushed into one training round at
    the end. ``history`` supplies the drift-alarm baseline.

    A failed training round drops its window and the chunk goes on, so
    every instance is recorded; the report carries the first failure note
    of the chunk. A chunk that fails validation or cannot be reduced yields
    a report with the error set and no records, and leaves the model
    untouched.
    """
    if not model.hypotheses:
        raise EmptyEnsemble("model has no hypotheses; pretrain before processing chunks")
    if len(chunk) == 0:
        return chunk_report(chunk.id, [], history, config), []
    reduced = _reduce_valid(chunk, config.pc_count)
    if isinstance(reduced, str):
        logger.error("%s", reduced)
        return chunk_report(chunk.id, [], history, config, error=reduced), []
    features, labels = reduced.features, reduced.labels
    records: list[PredictionRecord] = []
    error_note: str | None = None
    start = 0
    while start < len(labels):
        stop = min(len(labels), start + (model.rows_until_flush or len(labels)))
        predicted, scores = model.predict(features[start:stop])
        truth = labels[start:stop]
        records += _records(chunk.id, truth, predicted, scores, start)
        try:
            model.partial_fit(features[start:stop], truth, predicted == truth)
            if model.config.window_size is None:
                model.flush_window()
        except RoundFailed as exc:
            error_note = error_note or str(exc)
            logger.error("chunk %s: training round failed (%s)", chunk.id, exc)
        start = stop
    report = chunk_report(chunk.id, records, history, config, error=error_note)
    return report, records


def run_experiment(
    initial: Chunk,
    chunks: Sequence[Chunk],
    config: RunConfig,
    record_sink: RecordSink | None = None,
) -> list[ChunkReport]:
    """Pretrain on the initial chunk, then fold in every adaptive chunk.

    Returns one report per chunk, the initial-classifier report first.
    Per-instance records stream through ``record_sink`` as each chunk
    finishes, so memory stays bounded by the largest chunk.
    """
    ids = [initial.id] + [chunk.id for chunk in chunks]
    if len(set(ids)) != len(ids):
        duplicates = sorted({cid for cid in ids if ids.count(cid) > 1})
        raise ValueError(f"chunk ids must be unique, duplicated: {duplicates}")
    model, initial_report, initial_records = pretrain(initial, config)
    if record_sink is not None:
        for record in initial_records:
            record_sink(record)
    reports = [initial_report]
    for chunk in chunks:
        report, records = process_chunk(model, chunk, config, history=reports)
        if record_sink is not None:
            for record in records:
                record_sink(record)
        reports.append(report)
    return reports
