"""Shared helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from driftpp.core import PredictionRecord
from driftpp.learnpp import LearnPPConfig, LearnPPModel


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_records(truths, predictions, scores, chunk_id="c") -> list[PredictionRecord]:
    return [
        PredictionRecord(chunk_id, i, int(t), int(p), float(s))
        for i, (t, p, s) in enumerate(zip(truths, predictions, scores))
    ]


def ensemble_model(hypotheses) -> LearnPPModel:
    """A model whose ensemble is exactly ``hypotheses``."""
    model = LearnPPModel(LearnPPConfig())
    model.hypotheses = list(hypotheses)
    return model


def two_cluster_window(n, d, rng, gap=6.0, spread=0.5) -> tuple[np.ndarray, np.ndarray]:
    """Linearly separable (features, labels) window: class 0 near the
    origin, class 1 offset by ``gap`` along every axis. Half of each class,
    label order interleaved."""
    rows = []
    labels = []
    for i in range(n):
        label = i % 2
        center = np.full(d, gap if label else 0.0)
        rows.append(center + rng.normal(0.0, spread, d))
        labels.append(label)
    return np.array(rows), np.array(labels)
