"""Incremental ensemble classification for drifting chunked streams."""

from .adaptive import (
    ChunkReport,
    RunConfig,
    chunk_report,
    drift_alarm,
    pretrain,
    process_chunk,
    reduce_chunk,
    run_experiment,
)
from .core import (
    Chunk,
    PredictionRecord,
    standardize_chunk,
    validate_chunk,
)
from .data import DriftSpec, StreamSpec, generate_stream, read_chunk_csv, write_chunk_csv
from .knn import KnnConfig, KnnModel, knn_fit, knn_predict_batch
from .learnpp import (
    LearnPPConfig,
    LearnPPModel,
    WeakHypothesis,
    WeightDistribution,
    composite_error,
    hypothesis_error,
    init_weights,
    normalize_error,
    run_round,
    sample_training_subset,
    update_weights,
)
from .metrics import ConfusionCounts, auc, confusion, f1, fnr
from .pca import PcaModel, pca_fit, pca_transform, tevr

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ChunkReport",
    "RunConfig",
    "chunk_report",
    "drift_alarm",
    "pretrain",
    "process_chunk",
    "reduce_chunk",
    "run_experiment",
    "Chunk",
    "PredictionRecord",
    "standardize_chunk",
    "validate_chunk",
    "DriftSpec",
    "StreamSpec",
    "generate_stream",
    "read_chunk_csv",
    "write_chunk_csv",
    "KnnConfig",
    "KnnModel",
    "knn_fit",
    "knn_predict_batch",
    "LearnPPConfig",
    "LearnPPModel",
    "WeakHypothesis",
    "WeightDistribution",
    "composite_error",
    "hypothesis_error",
    "init_weights",
    "normalize_error",
    "run_round",
    "sample_training_subset",
    "update_weights",
    "ConfusionCounts",
    "auc",
    "confusion",
    "f1",
    "fnr",
    "PcaModel",
    "pca_fit",
    "pca_transform",
    "tevr",
]
