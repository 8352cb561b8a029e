import math

import numpy as np
import pytest

from driftpp.adaptive import (
    ChunkReport,
    RunConfig,
    UnreadChunk,
    drift_alarm,
    pretrain,
    process_chunk,
    reduce_chunk,
    run_experiment,
)
from driftpp.core import Chunk, PredictionRecord, standardize_chunk
from driftpp.data import StreamSpec, generate_stream
from driftpp.errors import (
    DegenerateData,
    DimensionError,
    EmptyEnsemble,
    PretrainFailed,
    RoundFailed,
)
from driftpp.learnpp import LearnPPConfig, LearnPPModel
from driftpp.pca import pca_fit, pca_transform


def cluster_chunk(chunk_id, n, seed, d=4, gap=6.0, flip=False):
    """Two well-separated gaussian clusters along the first axis."""
    gen = np.random.default_rng(seed)
    labels = gen.integers(0, 2, n)
    labels[0], labels[1] = 0, 1
    rows = gen.normal(scale=1.0, size=(n, d))
    rows[:, 0] += labels * gap
    if flip:
        labels = 1 - labels
    return Chunk(chunk_id, rows, labels)


def small_config(**kwargs):
    learnpp = LearnPPConfig(seed=kwargs.pop("seed", 0))
    return RunConfig(learnpp=learnpp, pc_count=kwargs.pop("pc_count", 2), **kwargs)


def report_stub(chunk_id="r", f1_value=0.9, evaluated=10):
    return ChunkReport(
        chunk_id=chunk_id,
        f1=f1_value,
        auc=0.9,
        fnr=0.1,
        correct_count=evaluated,
        incorrect_count=0,
        percent_correct=1.0 if evaluated else 0.0,
        drift_alarm=False,
    )


class TestReduceChunk:
    def test_projects_then_standardizes(self, rng):
        chunk = Chunk("x", rng.normal(size=(100, 6)), rng.integers(0, 2, 100))
        reduced = reduce_chunk(chunk, 3)
        matrix = reduced.features
        assert matrix.shape == (100, 3)
        np.testing.assert_allclose(matrix.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(matrix.std(axis=0), 1.0, atol=1e-9)

    def test_width_match_skips_projection_but_standardizes(self, rng):
        rows = rng.normal(size=(50, 3)) + 10.0
        chunk = Chunk("x", rows, rng.integers(0, 2, 50))
        reduced = reduce_chunk(chunk, 3)
        np.testing.assert_allclose(reduced.features.mean(axis=0), 0.0, atol=1e-9)

    def test_too_narrow_raises(self, rng):
        chunk = Chunk("x", rng.normal(size=(20, 2)), rng.integers(0, 2, 20))
        with pytest.raises(DimensionError):
            reduce_chunk(chunk, 3)

    @pytest.mark.parametrize("value", [0.1, 0.3, 7.77])
    @pytest.mark.parametrize(
        "shape", [(700, 20), (100, 10), (1, 10)], ids=["700x20", "100x10", "1x10"]
    )
    def test_constant_chunk_raises(self, value, shape):
        # rounding leaves the covariance of a 0.1 chunk slightly nonzero, and
        # a chunk at pc_count skips PCA, so neither may decide this
        chunk = Chunk("x", np.full(shape, value), np.arange(shape[0]) % 2)
        with pytest.raises(DegenerateData, match="no variance"):
            reduce_chunk(chunk, 10)

    def test_components_within_rounding_of_zero_become_zero_columns(self, rng):
        # rank-3 rows in 8 dimensions reduced to 6 components: the last three
        # are rounding noise, and come out as exact zeros, not unit variance
        rows = rng.normal(size=(200, 3)) @ rng.normal(size=(3, 8))
        chunk = Chunk("x", rows, rng.integers(0, 2, 200))
        assert pca_fit(chunk, 6).explained_variance_ratio[3:6].max() < 1e-15
        reduced = reduce_chunk(chunk, 6).features
        np.testing.assert_allclose(reduced[:, :3].std(axis=0), 1.0)
        assert (reduced[:, 3:] == 0.0).all()

    @pytest.mark.parametrize("smallest", [1.0, 1e-5], ids=["even", "small-but-real"])
    def test_full_rank_chunk_comes_out_bit_for_bit(self, rng, smallest):
        # a sixth component of small real variance (a ratio near 1e-11, far
        # above rounding) is kept and scaled like any other
        rows = rng.normal(size=(300, 8)) * np.repeat([1.0, smallest], [5, 3])
        chunk = Chunk("x", rows, rng.integers(0, 2, 300))
        assert pca_fit(chunk, 6).explained_variance_ratio[5] > 1e-12
        want = standardize_chunk(pca_transform(pca_fit(chunk, 6), chunk, 6))
        got = reduce_chunk(chunk, 6)
        assert got.features.tobytes() == want.features.tobytes()
        np.testing.assert_allclose(got.features.std(axis=0), 1.0)


class TestDriftAlarm:
    def test_no_baseline_is_false(self):
        assert drift_alarm(0.0, [], small_config()) is False

    def test_drop_at_exactly_threshold_is_quiet(self):
        config = small_config()
        assert drift_alarm(0.7, [0.9], config) is False

    def test_drop_past_threshold_fires(self):
        config = small_config()
        assert drift_alarm(0.7 - 1e-9, [0.9], config) is True

    def test_only_trailing_reports_count(self):
        config = small_config()
        # old perfect scores scroll out of the window of three
        assert drift_alarm(0.55, [1.0, 0.8, 0.8, 0.8], config) is True
        assert drift_alarm(0.65, [0.2, 0.8, 0.8, 0.8], config) is False


class TestPretrain:
    def test_masters_separable_chunk(self):
        initial = cluster_chunk("initial", 400, seed=5)
        model, report, records = pretrain(initial, small_config())
        assert report.f1 >= 0.99
        assert report.drift_alarm is False
        assert report.evaluated_count == 400
        assert len(records) == 400
        assert len(model.hypotheses) >= 1

    def test_single_class_chunk_rejected(self, rng):
        chunk = Chunk("bad", rng.normal(size=(50, 4)), np.ones(50, int))
        with pytest.raises(PretrainFailed):
            pretrain(chunk, small_config())

    def test_empty_chunk_rejected(self):
        chunk = Chunk("empty", np.zeros((0, 4)), [])
        with pytest.raises(PretrainFailed):
            pretrain(chunk, small_config())

    @pytest.mark.parametrize("case", ["short", "constant"])
    def test_unreducible_chunk_rejected_by_name(self, case):
        # too few rows for pc_count components, or no variance to project
        rows = np.arange(8.0).reshape(2, 4) if case == "short" else np.ones((50, 4))
        chunk = Chunk(case, rows, np.arange(len(rows)) % 2)
        with pytest.raises(PretrainFailed, match=f"initial chunk {case} cannot be reduced"):
            pretrain(chunk, small_config(pc_count=3))

    @pytest.mark.parametrize("pc_count, seed", [(10, 0), (20, 1)])
    def test_round_out_of_retries_keeps_what_it_accepted(self, pc_count, seed):
        # no noise and a 5% minority: the first candidate misses one
        # instance, which then holds half the weight, and every later
        # candidate is rejected; pretraining keeps the accepted hypothesis
        initial, *chunks = generate_stream(StreamSpec(
            n_chunks=6, chunk_size=700, dimensionality=20, noise=0.0, class_balance=0.05, seed=1
        ))
        config = RunConfig(learnpp=LearnPPConfig(seed=seed), pc_count=pc_count)
        model, report, _ = pretrain(initial, config)
        assert len(model.hypotheses) == 1
        assert report.f1 >= 0.95
        reports = run_experiment(initial, chunks, config)
        assert [r.error for r in reports] == [None] * 6
        assert min(r.f1 for r in reports) >= 0.95

    def test_deterministic(self):
        initial = cluster_chunk("initial", 200, seed=9)
        _, report_a, records_a = pretrain(initial, small_config())
        _, report_b, records_b = pretrain(initial, small_config())
        assert report_a == report_b
        assert records_a == records_b

    def test_records_carry_chunk_identity(self):
        initial = cluster_chunk("first", 120, seed=2)
        _, _, records = pretrain(initial, small_config())
        assert {r.chunk_id for r in records} == {"first"}
        assert [r.index for r in records] == list(range(120))


class TestProcessChunk:
    def test_untrained_model_rejected(self):
        model = LearnPPModel(LearnPPConfig())
        chunk = cluster_chunk("c", 20, seed=0)
        with pytest.raises(EmptyEnsemble):
            process_chunk(model, chunk, small_config())

    def test_same_concept_scores_high_and_stays_quiet(self):
        config = small_config()
        model, first, _ = pretrain(cluster_chunk("initial", 300, seed=1), config)
        report, records = process_chunk(
            model, cluster_chunk("next", 300, seed=2), config, history=[first]
        )
        assert report.f1 >= 0.9
        assert report.drift_alarm is False
        assert report.evaluated_count == 300
        assert report.correct_count + report.incorrect_count == 300

    def test_flipped_concept_alarms(self):
        config = small_config()
        model, first, _ = pretrain(cluster_chunk("initial", 300, seed=1), config)
        history = [first]
        report, _ = process_chunk(
            model, cluster_chunk("drifted", 300, seed=3, flip=True), config, history
        )
        assert report.f1 <= 0.5
        assert report.drift_alarm is True

    def test_empty_chunk_reports_nothing(self):
        config = small_config()
        model, first, _ = pretrain(cluster_chunk("initial", 200, seed=1), config)
        report, records = process_chunk(model, Chunk("hollow", np.zeros((0, 4)), []), config, [first])
        assert list(records) == []
        assert report.evaluated_count == 0
        assert math.isnan(report.auc)
        assert report.drift_alarm is False

    def test_zero_evaluated_history_excluded_from_baseline(self):
        config = small_config()
        model, first, _ = pretrain(cluster_chunk("initial", 300, seed=1), config)
        hollow = [report_stub(f"h{i}", f1_value=0.0, evaluated=0) for i in range(3)]
        # three empty reports would drag the baseline to zero if counted
        report, _ = process_chunk(
            model,
            cluster_chunk("drifted", 300, seed=3, flip=True),
            config,
            history=[first, *hollow],
        )
        assert report.drift_alarm is True

    def test_predictions_precede_training(self):
        # the record for each instance must reflect the model state before
        # that instance was absorbed; a label flip in the incoming chunk
        # cannot change its own recorded prediction even when earlier
        # windows of the same chunk have already retrained the model
        config = RunConfig(learnpp=LearnPPConfig(seed=0, window_size=25), pc_count=2)
        base = cluster_chunk("next", 200, seed=4)
        model_a, first_a, _ = pretrain(cluster_chunk("initial", 300, seed=1), config)
        _, records_a = process_chunk(model_a, base, config, [first_a])

        flipped_rows = base.features
        flipped_labels = base.labels.copy()
        flipped_labels[37] = 1 - flipped_labels[37]
        tampered = Chunk("next", flipped_rows, flipped_labels)
        model_b, first_b, _ = pretrain(cluster_chunk("initial", 300, seed=1), config)
        _, records_b = process_chunk(model_b, tampered, config, [first_b])

        assert records_b[37].predicted == records_a[37].predicted
        assert records_b[37].score == records_a[37].score


def per_instance_records(model, chunk, config):
    """Reference for process_chunk: predict one row, record it, then
    partial_fit, one instance at a time."""
    reduced = reduce_chunk(chunk, config.pc_count)
    records = []
    for i, (x, label) in enumerate(zip(reduced.features, reduced.labels)):
        labels, scores = model.predict(x[None])
        predicted, score = labels[0], scores[0]
        records.append(PredictionRecord(chunk.id, i, label, predicted, score))
        try:
            model.partial_fit(x[None], [label], [predicted == label])
        except RoundFailed:
            continue
    if model.config.window_size is None:
        try:
            model.flush_window()
        except RoundFailed:
            pass
    return records


def scrambled_head_chunk(chunk_id, n, seed, head):
    """A cluster chunk whose first ``head`` labels are random."""
    chunk = cluster_chunk(chunk_id, n, seed)
    labels = chunk.labels.copy()
    # a generator of its own: cluster_chunk's default_rng(seed) drew the true labels
    labels[:head] = np.random.default_rng([seed, head]).integers(0, 2, head)
    return Chunk(chunk_id, chunk.features, labels)


class TestSegmentBatching:
    """process_chunk predicts the instances between two flushes as one
    block; its records and model state must equal the per-instance loop."""

    @staticmethod
    def assert_matches_per_instance(config, chunks):
        initial = cluster_chunk("initial", 200, seed=1)
        batched, first, _ = pretrain(initial, config)
        reference, _, _ = pretrain(initial, config)
        buffers, reports = [], []
        for chunk in chunks:
            buffers.append(batched.buffer_size)
            report, records = process_chunk(batched, chunk, config, [first])
            assert list(records) == per_instance_records(reference, chunk, config)
            assert len(batched.hypotheses) == len(reference.hypotheses)
            assert batched.buffer_size == reference.buffer_size
            assert batched.windows_completed == reference.windows_completed
            reports.append(report)
        return buffers, reports

    def test_chunk_aligned_windows(self):
        chunks = [cluster_chunk("b", 150, seed=2), cluster_chunk("c", 150, seed=3, flip=True)]
        self.assert_matches_per_instance(small_config(), chunks)

    def test_fixed_window(self):
        config = RunConfig(learnpp=LearnPPConfig(seed=0, window_size=25), pc_count=2)
        chunks = [
            cluster_chunk("b", 110, seed=2),
            cluster_chunk("c", 110, seed=3, flip=True),
            cluster_chunk("d", 110, seed=4),
        ]
        self.assert_matches_per_instance(config, chunks)

    def test_failed_round_drops_its_window(self):
        # the scrambled head fails the first window's round; that window
        # leaves the buffer like any other and the chunk goes on
        learnpp = LearnPPConfig(seed=0, window_size=20, error_threshold=0.2, max_retries=3)
        config = RunConfig(learnpp=learnpp, pc_count=2)
        chunks = [
            scrambled_head_chunk("a", 60, seed=7, head=20),
            cluster_chunk("b", 60, seed=8),
            cluster_chunk("c", 60, seed=9),
        ]
        buffers, reports = self.assert_matches_per_instance(config, chunks)
        assert reports[0].evaluated_count == 60
        assert reports[0].error is not None
        assert buffers[1] < learnpp.window_size

    @pytest.mark.parametrize("window_size", [20, None])
    def test_failed_rounds_keep_buffer_within_window(self, window_size):
        # every round over the random-label chunk fails; its rows must leave
        # the buffer, so the clean chunks after it are recorded in full and
        # train on their own rows
        learnpp = LearnPPConfig(
            seed=0, window_size=window_size, error_threshold=0.3, max_retries=2
        )
        config = RunConfig(learnpp=learnpp, pc_count=2)
        model, first, _ = pretrain(cluster_chunk("initial", 200, seed=1), config)
        chunks = [scrambled_head_chunk("a", 60, seed=7, head=60)] + [
            cluster_chunk(chunk_id, 60, seed=seed) for chunk_id, seed in [("b", 8), ("c", 9), ("d", 10)]
        ]
        errors = []
        for chunk in chunks:
            report, records = process_chunk(model, chunk, config, [first])
            errors.append(report.error is not None)
            assert len(records) == len(chunk)
            assert model.buffer_size == 0
        assert errors == [True, False, False, False]


class TestChunkFailurePolicy:
    @staticmethod
    def bad_chunk(kind):
        chunk = cluster_chunk("bad", 50, seed=60)
        rows, labels = chunk.features.copy(), chunk.labels
        if kind == "short":
            return Chunk("bad", rows[:2], labels[:2])  # fewer rows than pc_count
        if kind == "constant":
            return Chunk("bad", np.ones_like(rows), labels)
        if kind == "constant_fraction":
            return Chunk("bad", np.full_like(rows, 0.1), labels)  # rounding defeats PCA's check
        if kind == "constant_at_width":
            return Chunk("bad", np.ones((len(rows), 3)), labels)  # pc_count wide: PCA is skipped
        if kind == "unread":
            return UnreadChunk("bad", "file not found: bad.csv")  # its source could not be read
        rows[7, 1] = np.nan
        return Chunk("bad", rows, labels)

    @pytest.mark.parametrize(
        "kind", ["short", "constant", "constant_fraction", "constant_at_width", "nan", "unread"]
    )
    def test_bad_chunk_reports_error_and_run_continues(self, kind):
        config = small_config(pc_count=3)
        initial = cluster_chunk("chunk_000", 200, seed=50)
        bad = self.bad_chunk(kind)
        model, first, _ = pretrain(initial, config)
        before = (list(model.hypotheses), model.buffer_size, model.windows_completed)
        report, records = process_chunk(model, bad, config, [first])
        assert list(records) == []
        assert report.error is not None
        assert report.evaluated_count == 0
        assert report.drift_alarm is False
        assert (list(model.hypotheses), model.buffer_size, model.windows_completed) == before

        reports = run_experiment(initial, [bad, cluster_chunk("chunk_002", 200, seed=52)], config)
        assert [r.error is not None for r in reports] == [False, True, False]
        assert reports[2].f1 >= 0.9


class TestRunExperiment:
    def test_drift_fires_exactly_once(self):
        config = small_config()
        initial = cluster_chunk("chunk_000", 300, seed=10)
        chunks = [
            cluster_chunk(f"chunk_{i:03d}", 300, seed=10 + i, flip=(i == 4))
            for i in range(1, 5)
        ]
        reports = run_experiment(initial, chunks, config)
        assert len(reports) == 5
        assert [r.drift_alarm for r in reports] == [False, False, False, False, True]

    def test_stationary_stream_never_alarms(self):
        config = small_config()
        initial = cluster_chunk("chunk_000", 250, seed=20)
        chunks = [cluster_chunk(f"chunk_{i:03d}", 250, seed=20 + i) for i in range(1, 4)]
        reports = run_experiment(initial, chunks, config)
        assert not any(r.drift_alarm for r in reports)
        for report in reports:
            assert report.f1 >= 0.9

    def test_rerun_identical(self):
        config = small_config()
        initial = cluster_chunk("chunk_000", 200, seed=30)
        chunks = [cluster_chunk(f"chunk_{i:03d}", 200, seed=30 + i) for i in range(1, 3)]
        assert run_experiment(initial, chunks, config) == run_experiment(
            initial, chunks, small_config()
        )

    def test_duplicate_ids_rejected(self):
        config = small_config()
        initial = cluster_chunk("same", 100, seed=1)
        with pytest.raises(ValueError, match="same"):
            run_experiment(initial, [cluster_chunk("same", 100, seed=2)], config)

    def test_generator_gives_the_list_reports_and_records(self):
        initial = cluster_chunk("chunk_000", 150, seed=70)
        chunks = [cluster_chunk(f"chunk_{i:03d}", 150, seed=70 + i) for i in range(1, 4)]
        from_list, from_generator, sunk_at_pull = [], [], []

        def arriving():
            for chunk in chunks:
                sunk_at_pull.append(sum(map(len, from_generator)))
                yield chunk

        want = run_experiment(initial, chunks, small_config(), record_sink=from_list.append)
        got = run_experiment(initial, arriving(), small_config(), record_sink=from_generator.append)
        assert [report.chunk_id for report in got] == ["chunk_000", "chunk_001", "chunk_002", "chunk_003"]
        assert got == want
        assert from_generator == from_list
        # each chunk is pulled only after the one before it reached the sink
        assert sunk_at_pull == [150, 300, 450]

    def test_duplicate_id_in_a_generator_raises_when_it_arrives(self):
        initial = cluster_chunk("chunk_000", 150, seed=80)
        chunks = [cluster_chunk("chunk_001", 150, seed=81), cluster_chunk("chunk_001", 150, seed=82)]
        collected = []
        with pytest.raises(ValueError, match="chunk_001"):
            run_experiment(initial, iter(chunks), small_config(), record_sink=collected.append)
        # the chunks before the repeat went through the sink first
        assert [record.chunk_id for block in collected for record in block] == (
            ["chunk_000"] * 150 + ["chunk_001"] * 150
        )

    def test_sink_streams_every_record(self):
        config = small_config()
        initial = cluster_chunk("chunk_000", 150, seed=40)
        chunks = [cluster_chunk(f"chunk_{i:03d}", 150, seed=40 + i) for i in range(1, 3)]
        collected = []
        reports = run_experiment(initial, chunks, config, record_sink=collected.append)
        assert [len(block) for block in collected] == [150] * 3
        by_chunk = {}
        for block in collected:
            for record in block:
                by_chunk.setdefault(record.chunk_id, []).append(record)
        assert list(by_chunk) == ["chunk_000", "chunk_001", "chunk_002"]
        for report in reports:
            assert report.evaluated_count == len(by_chunk[report.chunk_id])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(pc_count=0)
        with pytest.raises(ValueError):
            RunConfig(drift_f1_drop=0.0)
        with pytest.raises(ValueError):
            RunConfig(drift_f1_drop=math.nan)
        with pytest.raises(ValueError):
            RunConfig(drift_baseline_window=0)
