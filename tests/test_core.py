import numpy as np
import pytest

from driftpp.core import (
    Chunk,
    PredictionRecord,
    Records,
    standardize_chunk,
)
from driftpp.errors import DimensionError
from driftpp.knn import KnnConfig, knn_fit
from driftpp.learnpp import WeightDistribution
from driftpp.pca import pca_fit


def _frozen_arrays():
    chunk = Chunk("c", [[0.0, 1.0], [2.0, 5.0], [3.0, 1.0]], [0, 1, 0])
    records = Records("c", [0, 1], [1, 1], [0.25, 0.75])
    model = knn_fit(KnnConfig(), chunk.features, chunk.labels)
    basis = pca_fit(chunk, 2)
    return {
        "Chunk.features": chunk.features,
        "Chunk.labels": chunk.labels,
        "Records.truth": records.truth,
        "Records.predicted": records.predicted,
        "Records.score": records.score,
        "KnnModel.features": model.features,
        "KnnModel.labels": model.labels,
        "WeightDistribution.weights": WeightDistribution([0.5, 0.5]).weights,
        "PcaModel.mean": basis.mean,
        "PcaModel.components": basis.components,
        "PcaModel.explained_variance_ratio": basis.explained_variance_ratio,
    }


@pytest.mark.parametrize("name", list(_frozen_arrays()))
def test_read_only_arrays_cannot_be_unlocked(name):
    array = _frozen_arrays()[name]
    with pytest.raises(ValueError):
        array.flags.writeable = True
    with pytest.raises(ValueError):
        array.flat[0] = 1


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


class TestRecords:
    @staticmethod
    def columns(n=50, seed=0):
        gen = np.random.default_rng(seed)
        truth = gen.integers(0, 2, n)
        predicted = gen.integers(0, 2, n)
        return truth, predicted, gen.uniform(size=n)

    def test_iteration_gives_the_per_record_values(self):
        truth, predicted, score = self.columns()
        block = Records("c", truth, predicted, score)
        # the records the pipeline built one by one before it built blocks
        want = [
            PredictionRecord("c", i, *row)
            for i, row in enumerate(zip(truth.tolist(), predicted.tolist(), score.tolist()))
        ]
        assert list(block) == want
        assert len(block) == len(want)
        assert [block[i] for i in range(len(want))] == want
        assert block[-1] == want[-1]
        assert block[3:7] == want[3:7]
        assert all(type(value) is int for record in block for value in (record.truth, record.predicted))
        assert all(type(record.score) is float for record in block)

    def test_columns_are_read_only_copies(self):
        truth, predicted, score = self.columns(5)
        block = Records("c", truth.astype(float), predicted.astype(bool), score.astype(np.float32))
        truth[:] = 1 - truth
        assert (block.truth.dtype, block.predicted.dtype, block.score.dtype) == (np.int64, np.int64, np.float64)
        np.testing.assert_array_equal(block.truth, 1 - truth)
        for column in (block.truth, block.predicted, block.score):
            assert not column.flags.writeable

    @pytest.mark.parametrize("value", [2, -1, 0.5, np.nan])
    def test_label_outside_binary_rejected(self, value):
        with pytest.raises(ValueError, match="truth holds a value that is not 0 or 1"):
            Records("c", [0, value], [0, 1], [0.5, 0.5])
        with pytest.raises(ValueError, match="predicted holds a value that is not 0 or 1"):
            Records("c", [0, 1], [value, 1], [0.5, 0.5])

    def test_string_label_rejected(self):
        with pytest.raises(ValueError, match="not 0 or 1"):
            Records("c", ["0", "1"], [0, 1], [0.5, 0.5])

    @pytest.mark.parametrize("value", [1.5, -0.1, np.nan, np.inf])
    def test_score_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            Records("c", [0, 1], [0, 1], [0.5, value])

    @pytest.mark.parametrize("score", [["0.5", "1"], [True, False]], ids=["string", "bool"])
    def test_string_or_bool_score_rejected(self, score):
        with pytest.raises(ValueError, match="is not a number"):
            Records("c", [0, 1], [0, 1], score)

    @pytest.mark.parametrize(
        "truth, predicted, score",
        [([0, 1], [0], [0.5, 0.5]), ([0, 1], [0, 1], [0.5]), ([[0, 1]], [[0, 1]], [[0.5, 0.5]])],
        ids=["predicted", "score", "two-dimensional"],
    )
    def test_columns_of_unequal_length_rejected(self, truth, predicted, score):
        with pytest.raises(ValueError, match=r"expected three \(n,\) columns"):
            Records("c", truth, predicted, score)

    @pytest.mark.parametrize("chunk_id", [None, 1, ["a"]])
    def test_chunk_id_must_be_a_string(self, chunk_id):
        with pytest.raises(ValueError, match="is not a string"):
            Records(chunk_id, [0], [0], [0.5])

    def test_empty_block(self):
        block = Records("c", [], [], [])
        assert len(block) == 0 and list(block) == [] and not block

    def test_equality_is_by_chunk_id_and_columns(self):
        truth, predicted, score = self.columns(8)
        block = Records("c", truth, predicted, score)
        assert block == Records("c", truth.tolist(), predicted, score.tolist())
        assert block != Records("d", truth, predicted, score)
        assert block != Records("c", truth, 1 - predicted, score)
        assert block != list(block)

    def test_repr_spells_every_value_exactly(self):
        # numpy's array repr rounds to 8 digits, so two runs that differ in
        # a score's last bit would print alike
        score = np.array([0.1, 1 / 3, 5e-324])
        block = Records("c", [0, 1, 1], [1, 1, 0], score)
        assert repr(block) == (
            "Records(chunk_id='c', truth=[0, 1, 1], predicted=[1, 1, 0], "
            "score=[0.1, 0.3333333333333333, 5e-324])"
        )
        nudged = Records("c", [0, 1, 1], [1, 1, 0], [0.1, np.nextafter(1 / 3, 1.0), 5e-324])
        assert repr(nudged) != repr(block)


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
