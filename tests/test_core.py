import numpy as np
import pytest

from driftpp.core import (
    Chunk,
    PredictionRecord,
    standardize_chunk,
    validate_chunk,
)
from driftpp.errors import DimensionError


class TestPredictionRecord:
    def test_score_bounds_enforced(self):
        with pytest.raises(ValueError):
            PredictionRecord("c", 0, 1, 1, 1.5)
        with pytest.raises(ValueError):
            PredictionRecord("c", 0, 1, 1, -0.1)

    def test_labels_coerced(self):
        for value, want in ((0, 0), (True, 1), (np.int64(1), 1), (1.0, 1)):
            rec = PredictionRecord("c", 0, value, value, 0.75)
            assert type(rec.truth) is int and rec.truth == want
            assert type(rec.predicted) is int and rec.predicted == want

    @pytest.mark.parametrize("value", [2, -1, 0.5, "1", None, float("nan")])
    def test_labels_outside_binary_rejected(self, value):
        with pytest.raises(ValueError):
            PredictionRecord("c", 0, value, 1, 0.5)
        with pytest.raises(ValueError):
            PredictionRecord("c", 0, 1, value, 0.5)

    @pytest.mark.parametrize(
        "chunk_id, index", [(["a"], 0), (None, 0), (1, 0), ("c", "zz"), ("c", True), ("c", 1.0)]
    )
    def test_identity_types_enforced(self, chunk_id, index):
        with pytest.raises(ValueError):
            PredictionRecord(chunk_id, index, 1, 1, 0.5)

    @pytest.mark.parametrize("score", ["0.5", "1", True, False])
    def test_string_or_bool_score_rejected(self, score):
        with pytest.raises(ValueError, match="is not a number"):
            PredictionRecord("c", 0, 1, 1, score)

    @pytest.mark.parametrize("score", [0, 1, 0.5, np.float64(0.25), np.float32(0.75)])
    def test_real_score_stored_as_float(self, score):
        record = PredictionRecord("c", 0, 1, 1, score)
        assert type(record.score) is float and record.score == score


class TestChunk:
    def test_feature_matrix_and_labels(self):
        chunk = Chunk("c", [[1.0, 2.0], [3.0, 4.0]], [0, 1])
        np.testing.assert_array_equal(chunk.features, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(chunk.labels, [0, 1])
        assert chunk.dimensionality == 2
        assert len(chunk) == 2

    def test_arrays_coerced_and_read_only(self):
        chunk = Chunk("c", [[1, 2, 3]], [True])
        assert chunk.features.dtype == np.float64
        assert chunk.labels.dtype == np.int64
        assert chunk.features.flags.c_contiguous
        with pytest.raises(ValueError):
            chunk.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            chunk.labels[0] = 0

    def test_later_edits_to_source_arrays_do_not_leak_in(self):
        rows = np.arange(6.0).reshape(3, 2)
        labels = np.array([0, 1, 0])
        chunk = Chunk("c", rows, labels)
        rows[0, 0] = 99.0
        labels[0] = 1
        np.testing.assert_array_equal(chunk.features[0], [0.0, 1.0])
        assert chunk.labels[0] == 0

    def test_label_outside_binary_rejected(self):
        with pytest.raises(ValueError):
            Chunk("c", [[0.0]], [2])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DimensionError):
            Chunk("c", np.zeros((3, 2)), [0, 1])

    def test_rejects_features_that_are_not_2d(self):
        for features in (np.zeros(3), np.zeros((3, 2, 2))):
            with pytest.raises(DimensionError):
                Chunk("c", features, [0, 1, 0])

    def test_empty_chunk_feature_matrix_shape(self):
        chunk = Chunk("c", np.zeros((0, 4)), [])
        assert chunk.features.shape == (0, 4)
        assert chunk.dimensionality == 4
        assert len(chunk) == 0


class TestValidateChunk:
    def test_consistent_chunk_is_ok(self):
        chunk = Chunk("c", np.ones((3, 5)), [0, 1, 0])
        assert validate_chunk(chunk) == ()

    def test_nan_cited_distinctly(self):
        chunk = Chunk("c", [[1.0, np.nan], [0.0, 0.0]], [0, 1])
        violations = validate_chunk(chunk)
        assert any("NaN" in reason for _, reason in violations)

    def test_infinity_reported_as_non_finite(self):
        chunk = Chunk("c", [[np.inf, 1.0]], [0])
        violations = validate_chunk(chunk)
        assert any("non-finite" in reason for _, reason in violations)

    def test_one_violation_per_bad_row_at_its_first_bad_column(self):
        chunk = Chunk("c", [[0.0, 0.0, 0.0], [1.0, -np.inf, np.nan], [np.nan, np.inf, 0.0]], [0, 1, 0])
        assert list(validate_chunk(chunk)) == [
            (1, "non-finite feature at column 1"),
            (2, "NaN feature at column 0"),
        ]


class TestStandardizeChunk:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(3)
        chunk = Chunk("c", rng.normal(5.0, 3.0, size=(200, 4)), rng.integers(0, 2, 200))
        z = standardize_chunk(chunk).features
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_centered_not_scaled(self):
        chunk = Chunk("c", [[7.0, 1.0], [7.0, 3.0]], [0, 1])
        z = standardize_chunk(chunk).features
        np.testing.assert_array_equal(z[:, 0], [0.0, 0.0])

    def test_empty_chunk_passthrough(self):
        chunk = Chunk("c", np.zeros((0, 2)), [])
        assert standardize_chunk(chunk) is chunk

    def test_labels_preserved(self):
        chunk = Chunk("c", [[0.0, 1.0], [2.0, 5.0]], [1, 0])
        np.testing.assert_array_equal(standardize_chunk(chunk).labels, [1, 0])
