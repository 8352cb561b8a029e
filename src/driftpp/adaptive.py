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
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import Chunk, PredictionRecord, Records, validate_chunk, standardize_chunk
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
    "UnreadChunk",
    "reduce_chunk",
    "drift_alarm",
    "chunk_report",
    "pretrain",
    "process_chunk",
    "run_experiment",
]

logger = logging.getLogger(__name__)

RecordSink = Callable[[Records], None]


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
        if operator.index(self.pc_count) < 1:
            raise ValueError(f"pc_count must be >= 1, got {self.pc_count}")
        if not self.drift_f1_drop > 0.0:
            raise ValueError(f"drift_f1_drop must be positive, got {self.drift_f1_drop}")
        if operator.index(self.drift_baseline_window) < 1:
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


@dataclass(frozen=True)
class UnreadChunk:
    """Stands in a stream for a chunk whose source could not be read: the
    chunk's id and why. :func:`process_chunk` gives it an error report and
    leaves the model untouched, as it does an invalid chunk."""

    id: str
    reason: str


def reduce_chunk(chunk: Chunk, pc_count: int) -> Chunk:
    """Reduce a chunk to ``pc_count`` features and standardize it.

    The one gate between a chunk and PCA: a chunk narrower than
    ``pc_count`` raises DimensionError, and one with a non-finite feature
    (the note counts them and names the first, see
    :func:`driftpp.core.validate_chunk`) or whose rows are all the same,
    whatever its width, DegenerateData. Chunks wider than ``pc_count`` are
    projected onto their own top principal components, and every chunk is
    then standardized per column. A component within rounding of zero
    comes out as a zero column (see :func:`driftpp.pca.pca_fit`).
    """
    if chunk.dimensionality < pc_count:
        raise DimensionError(
            f"chunk {chunk.id} has {chunk.dimensionality} features, need at least {pc_count}"
        )
    violations = validate_chunk(chunk)
    if violations:
        index, reason = violations[0]
        raise DegenerateData(f"{len(violations)} non-finite instances, first {index}: {reason}")
    if (chunk.features == chunk.features[:1]).all():
        raise DegenerateData("every row of the chunk is the same, so it has no variance")
    if chunk.dimensionality > pc_count:
        chunk = pca_transform(pca_fit(chunk, pc_count), chunk)
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
    """Summarize one chunk's records, a :class:`Records` block or any
    sequence of :class:`PredictionRecord`. ``history`` holds the reports of
    the preceding chunks, whose F1 values form the drift-alarm baseline; AUC
    is NaN when the records hold fewer than two classes, or none."""
    counts = confusion(records)
    try:
        auc_value = auc(records)
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


def pretrain(initial: Chunk, config: RunConfig) -> tuple[LearnPPModel, ChunkReport, Records]:
    """Train the starting ensemble on the initial chunk.

    Runs one full-window round under uniform weights, then scores the
    trained ensemble on the same chunk to produce the initial-classifier
    report (training-set metrics, never alarmed). Raises PretrainFailed
    when the chunk is empty or :func:`reduce_chunk` refuses it, naming the
    chunk, or when :meth:`LearnPPModel.fit_initial` refuses it or fails.
    """
    if len(initial) == 0:
        raise PretrainFailed(f"initial chunk {initial.id} is empty")
    try:
        reduced = reduce_chunk(initial, config.pc_count)
    except (DimensionError, DegenerateData) as exc:
        raise PretrainFailed(f"initial chunk {initial.id} cannot be reduced: {exc}") from exc
    model = LearnPPModel(config.learnpp)
    try:
        model.fit_initial(reduced.features, reduced.labels)
    except (DegenerateData, RoundFailed) as exc:
        raise PretrainFailed(f"initial training round failed: {exc}") from exc
    predicted, scores = model.predict(reduced.features)
    records = Records(initial.id, reduced.labels, predicted, scores)
    report = chunk_report(initial.id, records, history=(), config=config)
    return model, report, records


def process_chunk(
    model: LearnPPModel,
    chunk: Chunk | UnreadChunk,
    config: RunConfig,
    history: Sequence[ChunkReport] = (),
) -> tuple[ChunkReport, Records]:
    """Evaluate and absorb one chunk in arrival order.

    Each instance is predicted, recorded and compared against the revealed
    truth before the model absorbs it. The chunk goes one segment at a
    time: the instances up to the next buffer flush (the whole chunk with
    chunk-aligned windows), during which the ensemble cannot change, are
    predicted as one block and absorbed as one block. With chunk-aligned
    windows the chunk is one segment, flushed into one training round at
    the end. ``history`` supplies the drift-alarm baseline. The chunk's
    records come back as one :class:`Records` block.

    A failed training round drops its window and the chunk goes on, so
    every instance is recorded; the report carries the first failure note
    of the chunk. A non-empty chunk that :func:`reduce_chunk` refuses, or an
    :class:`UnreadChunk`, yields a report with the error set and no
    records, and leaves the model untouched.
    """
    if not model.hypotheses:
        raise EmptyEnsemble("model has no hypotheses; pretrain before processing chunks")
    note = None
    if isinstance(chunk, UnreadChunk):
        note = f"chunk {chunk.id} cannot be read: {chunk.reason}"
    elif len(chunk):
        try:
            chunk = reduce_chunk(chunk, config.pc_count)
        except (DimensionError, DegenerateData) as exc:
            note = f"chunk {chunk.id} cannot be reduced: {exc}"
    if note is not None:
        logger.error("%s", note)
        records = Records(chunk.id, [], [], [])
        return chunk_report(chunk.id, records, history, config, error=note), records
    features, labels = chunk.features, chunk.labels
    predicted = np.empty(len(labels), dtype=np.int64)
    scores = np.empty(len(labels))
    error_note: str | None = None
    start = 0
    while start < len(labels):
        stop = min(len(labels), start + (model.rows_until_flush or len(labels)))
        predicted[start:stop], scores[start:stop] = model.predict(features[start:stop])
        truth = labels[start:stop]
        try:
            model.partial_fit(features[start:stop], truth, predicted[start:stop] == truth)
            if model.config.window_size is None:
                model.flush_window()
        except RoundFailed as exc:
            error_note = error_note or str(exc)
            logger.error("chunk %s: training round failed (%s)", chunk.id, exc)
        start = stop
    records = Records(chunk.id, labels, predicted, scores)
    report = chunk_report(chunk.id, records, history, config, error=error_note)
    return report, records


def run_experiment(
    initial: Chunk,
    chunks: Iterable[Chunk | UnreadChunk],
    config: RunConfig,
    record_sink: RecordSink | None = None,
) -> list[ChunkReport]:
    """Pretrain on the initial chunk, then fold in every adaptive chunk.

    ``chunks`` is pulled once, one chunk at a time, and the next chunk only
    after the last one's records have gone to the sink. So a generator that
    reads each chunk when it is pulled, as ``driftpp run`` passes, holds one
    chunk at a time, and memory stays bounded by the largest chunk; the
    initial chunk is let go after pretraining, so a caller that keeps no
    reference of its own frees it before the first pull. An
    :class:`UnreadChunk` in the stream gets an error report, and the run
    goes on. Returns one report per chunk, the initial-classifier report
    first. Each chunk's records go to ``record_sink`` as one
    :class:`Records` block when the chunk finishes. A chunk whose id an
    earlier chunk had raises ValueError when it arrives, after the earlier
    chunks' records have gone to the sink.
    """
    model, initial_report, initial_records = pretrain(initial, config)
    if record_sink is not None:
        record_sink(initial_records)
    reports = [initial_report]
    seen = {initial.id}
    # only the initial chunk's id is needed from here on
    del initial, initial_records
    for chunk in chunks:
        if chunk.id in seen:
            raise ValueError(f"chunk ids must be unique, duplicated: {chunk.id!r}")
        seen.add(chunk.id)
        report, records = process_chunk(model, chunk, config, history=reports)
        if record_sink is not None:
            record_sink(records)
        reports.append(report)
        # let go of the chunk before the next pull, so one chunk is alive
        del chunk, records
    return reports
