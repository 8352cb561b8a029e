import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftpp.errors import DimensionError, EmptyTrainingSet
from driftpp.knn import (
    KnnConfig,
    knn_fit,
    knn_predict_batch,
    minkowski_distance,
)


def brute_force_predict(model, x):
    """Reference predictor: sort all (distance, index) pairs, vote the top
    min(k, n). Ties at equal distance go to the lower stored index."""
    dists = [
        (minkowski_distance(model.features[i], x, model.config.p), i)
        for i in range(model.n_points)
    ]
    dists.sort()
    k = min(model.config.k, model.n_points)
    votes = [int(model.labels[i]) for _, i in dists[:k]]
    score = sum(votes) / k
    return (1 if score > 0.5 else 0), score


class TestConfig:
    def test_defaults(self):
        config = KnnConfig()
        assert config.k == 3
        assert config.p == 2.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KnnConfig(k=0)

    def test_invalid_p(self):
        for p in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                KnnConfig(p=p)


class TestMinkowskiDistance:
    def test_euclidean_345_triangle(self):
        assert minkowski_distance([0.0, 0.0], [3.0, 4.0], 2.0) == 5.0

    def test_identical_vectors(self):
        assert minkowski_distance([1.0, 2.0], [1.0, 2.0], 2.0) == 0.0

    def test_manhattan(self):
        assert minkowski_distance([0.0, 0.0], [3.0, 4.0], 1.0) == 7.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            minkowski_distance([1.0], [1.0, 2.0], 2.0)

    def test_invalid_p(self):
        for p in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                minkowski_distance([0.0, 0.0], [3.0, 4.0], p)

    @given(
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_metric_axioms(self, p, seed):
        gen = np.random.default_rng(seed)
        a, b, c = gen.normal(size=(3, 5))
        d_ab = minkowski_distance(a, b, p)
        assert d_ab >= 0.0
        assert d_ab == minkowski_distance(b, a, p)
        assert minkowski_distance(a, a, p) == 0.0
        assert d_ab <= minkowski_distance(a, c, p) + minkowski_distance(c, b, p) + 1e-9


class TestFit:
    def test_stores_points_verbatim(self):
        model = knn_fit(KnnConfig(), np.arange(20.0).reshape(10, 2), [0, 1] * 5)
        assert model.n_points == 10
        np.testing.assert_array_equal(model.features[3], [6.0, 7.0])

    def test_single_point_model_predicts_with_it(self):
        model = knn_fit(KnnConfig(k=3), [[1.0, 1.0]], [1])
        labels, scores = knn_predict_batch(model, [[0.0, 0.0]])
        assert labels[0] == 1
        assert scores[0] == 1.0

    def test_empty_data_raises(self):
        with pytest.raises(EmptyTrainingSet):
            knn_fit(KnnConfig(), [], [])

    def test_mismatched_lengths_raises(self):
        with pytest.raises(DimensionError):
            knn_fit(KnnConfig(), [[1.0], [2.0]], [0])

    def test_label_outside_binary_raises(self):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            knn_fit(KnnConfig(k=3), [[0.0], [1.0], [2.0], [9.0]], [2, 2, 1, 0])


class TestPredict:
    def test_two_nearer_class0_points(self):
        model = knn_fit(KnnConfig(k=3), [[0.0, 0.0], [0.0, 1.0], [5.0, 5.0]], [0, 0, 1])
        labels, scores = knn_predict_batch(model, [[0.0, 0.4]])
        assert labels[0] == 0
        assert scores[0] == pytest.approx(1.0 / 3.0)

    def test_unanimous_class1(self):
        model = knn_fit(KnnConfig(k=3), np.zeros((4, 2)) + [[0], [1], [2], [3]], [1, 1, 1, 1])
        labels, scores = knn_predict_batch(model, [[10.0, 10.0]])
        assert labels[0] == 1
        assert scores[0] == 1.0

    def test_tied_vote_resolves_to_zero(self):
        model = knn_fit(KnnConfig(k=2), [[0.0], [1.0]], [0, 1])
        labels, scores = knn_predict_batch(model, [[0.5]])
        assert scores[0] == 0.5
        assert labels[0] == 0

    def test_distance_tie_prefers_lower_stored_index(self):
        # both stored points are equidistant from the query; k=1 must take index 0
        model = knn_fit(KnnConfig(k=1), [[1.0, 0.0], [-1.0, 0.0]], [1, 0])
        labels, _ = knn_predict_batch(model, [[0.0, 0.0]])
        assert labels[0] == 1

    def test_dimension_mismatch(self):
        model = knn_fit(KnnConfig(), [[1.0, 2.0]], [0])
        with pytest.raises(DimensionError):
            knn_predict_batch(model, [[1.0, 2.0, 3.0]])

    def test_training_points_self_classify_with_k1(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(40, 3))
        labels = rng.integers(0, 2, 40)
        model = knn_fit(KnnConfig(k=1), rows, labels)
        predicted, _ = knn_predict_batch(model, rows)
        np.testing.assert_array_equal(predicted, labels)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(200, 6))
        labels = rng.integers(0, 2, 200)
        model = knn_fit(KnnConfig(k=3), rows, labels)
        queries = rng.normal(size=(50, 6))
        batch_labels, batch_scores = knn_predict_batch(model, queries)
        for i, q in enumerate(queries):
            want_label, want_score = brute_force_predict(model, q)
            assert batch_labels[i] == want_label
            assert batch_scores[i] == pytest.approx(want_score)

    def test_batch_equals_single_queries(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(30, 4))
        model = knn_fit(KnnConfig(k=5), rows, rng.integers(0, 2, 30))
        queries = rng.normal(size=(10, 4))
        batch_labels, batch_scores = knn_predict_batch(model, queries)
        for i, q in enumerate(queries):
            labels, scores = knn_predict_batch(model, q[None])
            assert int(labels[0]) == batch_labels[i]
            assert scores[0] == batch_scores[i]

    def test_permutation_invariant_without_ties(self):
        rng = np.random.default_rng(21)
        rows = rng.normal(size=(25, 3))
        labels = rng.integers(0, 2, 25)
        model = knn_fit(KnnConfig(k=3), rows, labels)
        perm = rng.permutation(25)
        shuffled = knn_fit(KnnConfig(k=3), rows[perm], labels[perm])
        queries = rng.normal(size=(20, 3))
        np.testing.assert_array_equal(
            knn_predict_batch(model, queries)[0],
            knn_predict_batch(shuffled, queries)[0],
        )


class TestNeighborSearchExactness:
    """knn_predict_batch against the sorted (distance, index) oracle where
    the squared-distance shortlist is most likely to go wrong."""

    @staticmethod
    def assert_matches_oracle(model, queries):
        labels, scores = knn_predict_batch(model, queries)
        for i, q in enumerate(queries):
            want_label, want_score = brute_force_predict(model, q)
            assert labels[i] == want_label
            assert scores[i] == want_score

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_large_offset_coordinates(self, offset):
        # |q|^2 + |x|^2 - 2 q.x cancels almost every digit here: at 1e3 the
        # shortlist is still narrower than the model, at 1e6 it is not
        gen = np.random.default_rng(int(offset))
        rows = offset + gen.normal(scale=1e-3, size=(300, 5))
        model = knn_fit(KnnConfig(k=3), rows, gen.integers(0, 2, 300))
        queries = np.vstack([offset + gen.normal(scale=1e-3, size=(30, 5)), rows[:10]])
        self.assert_matches_oracle(model, queries)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_integer_grid_with_many_ties(self, k):
        gen = np.random.default_rng(40 + k)
        rows = gen.integers(0, 4, (500, 6)).astype(float)
        model = knn_fit(KnnConfig(k=k), rows, gen.integers(0, 2, 500))
        self.assert_matches_oracle(model, gen.integers(0, 4, (40, 6)).astype(float))

    @pytest.mark.parametrize("scale", [1e-161, 1e-162])
    def test_underflowing_squares(self, scale):
        # squared coordinates are subnormal or zero here, where rounding
        # errors are absolute rather than relative
        gen = np.random.default_rng(3)
        rows = scale * gen.normal(size=(200, 5))
        model = knn_fit(KnnConfig(k=3), rows, gen.integers(0, 2, 200))
        self.assert_matches_oracle(model, scale * gen.normal(size=(100, 5)))

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_block_mixing_tied_and_untied_rows(self, k):
        # grid queries tie exactly at the k-th distance, grid queries moved
        # by 1e-11 tie only within the rounding margin, and uniform queries
        # mostly have exactly k shortlisted points; all three share one
        # block. At an offset of 100 the matrix-product values round by
        # about 1e-10, far more than the exact distances do
        gen = np.random.default_rng(60 + k)
        rows = 100.0 + gen.integers(0, 3, (400, 5))
        model = knn_fit(KnnConfig(k=k), rows, gen.integers(0, 2, 400))
        grid = 100.0 + gen.integers(0, 3, (40, 5))
        queries = gen.permutation(np.vstack([
            grid[:20], grid[20:] + gen.normal(scale=1e-11, size=(20, 5)), gen.uniform(100, 102, (20, 5)),
        ]))
        kth_ties = []
        for q in queries:
            dists = sorted(minkowski_distance(row, q) for row in rows)
            kth_ties.append(dists[k - 1] == dists[k])
        assert any(kth_ties) and not all(kth_ties)
        self.assert_matches_oracle(model, queries)
        labels, scores = knn_predict_batch(model, queries)
        for i, q in enumerate(queries):
            one_labels, one_scores = knn_predict_batch(model, q[None])
            assert one_labels[0] == labels[i]
            assert one_scores[0] == scores[i]

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_full_scan_metrics(self, p):
        gen = np.random.default_rng(int(p))
        rows = np.vstack([gen.normal(size=(150, 4)), gen.integers(0, 3, (50, 4))])
        model = knn_fit(KnnConfig(k=5, p=p), rows, gen.integers(0, 2, 200))
        queries = np.vstack([gen.normal(size=(20, 4)), gen.integers(0, 3, (20, 4))])
        self.assert_matches_oracle(model, queries)

    def test_nan_query_takes_first_stored_points(self):
        # every distance is NaN, which a stable sort leaves in stored order
        model = knn_fit(KnnConfig(k=3), np.eye(5), [1, 1, 0, 0, 0])
        labels, scores = knn_predict_batch(model, np.full((1, 5), np.nan))
        assert scores[0] == pytest.approx(2.0 / 3.0)
        assert labels[0] == 1
