import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftpp.errors import DimensionError, EmptyTrainingSet
from driftpp import knn
from driftpp.knn import KnnConfig, KnnModel, _euclidean_positives, knn_fit, knn_predict_batch


def euclidean(a, b):
    """Distance between two vectors, computed independently of the kernel."""
    return float(np.sqrt(((np.asarray(a) - np.asarray(b)) ** 2).sum()))


def brute_force_predict(model, x):
    """Reference predictor: sort all (distance, index) pairs, vote the top
    min(k, n). Ties at equal distance go to the lower stored index."""
    dists = [(euclidean(model.features[i], x), i) for i in range(model.n_points)]
    dists.sort()
    k = min(model.config.k, model.n_points)
    votes = [int(model.labels[i]) for _, i in dists[:k]]
    score = sum(votes) / k
    return (1 if score > 0.5 else 0), score


class TestConfig:
    def test_defaults(self):
        assert KnnConfig().k == 3

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KnnConfig(k=0)


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

    def test_points_and_operand_share_one_buffer(self):
        gen = np.random.default_rng(2)
        model = knn_fit(KnnConfig(), gen.normal(size=(12, 3)), gen.integers(0, 2, 12))
        assert np.shares_memory(model.features, model._operand)
        # every float64 array the model holds is a view of one (n, d + 1) buffer
        owners = []
        for array in vars(model).values():
            if isinstance(array, np.ndarray) and array.dtype == np.float64:
                while array.base is not None:
                    array = array.base
                owners.append(array)
        assert len(owners) == 2 and owners[0] is owners[1]
        assert owners[0].shape == (12, 4)

    def test_features_and_labels_are_read_only(self):
        model = knn_fit(KnnConfig(), [[0.0, 1.0], [2.0, 3.0]], [0, 1])
        for array in (model.features, model.labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_caller_arrays_changed_after_fit_change_no_prediction(self):
        gen = np.random.default_rng(6)
        rows, labels = gen.normal(size=(30, 4)), gen.integers(0, 2, 30)
        queries = gen.normal(size=(40, 4))
        model = knn_fit(KnnConfig(), rows, labels)
        before = knn_predict_batch(model, queries)
        rows[:] = 0.0
        labels[:] = 1 - labels
        after = knn_predict_batch(model, queries)
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[1], before[1])

    @pytest.mark.parametrize(
        "features, labels, error",
        [
            ([[0.0], [1.0]], [0, 2], ValueError),
            ([[0.0], [1.0]], [0], DimensionError),
            (np.empty((0, 2)), [], EmptyTrainingSet),
        ],
        ids=["label-2", "length", "empty"],
    )
    def test_direct_construction_is_validated(self, features, labels, error):
        with pytest.raises(error):
            knn_fit(KnnConfig(), features, labels)
        with pytest.raises(error):
            KnnModel(KnnConfig(), features, labels)


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

    def test_scratch_stays_under_the_block_cap(self):
        # a block's matrix-product distances are the largest transient of a
        # run: 700 queries against 300 points in 10 dimensions go in blocks
        # of 0.8 MB, not one of 1.7 MB, and answer as 50-row slices do
        rng = np.random.default_rng(4)
        model = knn_fit(KnnConfig(k=3), rng.normal(size=(300, 10)), rng.integers(0, 2, 300))
        queries = rng.normal(size=(700, 10))
        sliced = [knn_predict_batch(model, queries[i : i + 50]) for i in range(0, 700, 50)]
        tracemalloc.start()
        try:
            labels, scores = knn_predict_batch(model, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        np.testing.assert_array_equal(labels, np.concatenate([part[0] for part in sliced]))
        np.testing.assert_array_equal(scores, np.concatenate([part[1] for part in sliced]))

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
        """The oracle's answer for every query, asked as one block and as
        one-row blocks, of knn_predict_batch and of the certified path
        itself, which knn_predict_batch skips for small blocks."""
        labels, scores = knn_predict_batch(model, queries)
        k = min(model.config.k, model.n_points)
        counts = _euclidean_positives(model, queries, k)
        for i, q in enumerate(queries):
            want_label, want_score = brute_force_predict(model, q)
            assert labels[i] == want_label
            assert scores[i] == want_score
            assert counts[i] / k == want_score
            one_labels, one_scores = knn_predict_batch(model, q[None])
            assert (one_labels[0], one_scores[0]) == (want_label, want_score)
            assert _euclidean_positives(model, q[None], k)[0] / k == want_score

    @pytest.mark.parametrize("d", [5, 64])
    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_large_offset_coordinates(self, offset, d):
        # |q|^2 + |x|^2 - 2 q.x cancels almost every digit here: at 1e3 the
        # shortlist is still narrower than the model, at 1e6 it is not. The
        # rounding error of g grows with 2d + 1 terms, the margin with 8d + 64
        gen = np.random.default_rng(int(offset))
        rows = offset + gen.normal(scale=1e-3, size=(300, d))
        model = knn_fit(KnnConfig(k=3), rows, gen.integers(0, 2, 300))
        queries = np.vstack([offset + gen.normal(scale=1e-3, size=(30, d)), rows[:10]])
        self.assert_matches_oracle(model, queries)

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 25])
    def test_integer_grid_with_many_ties(self, k):
        gen = np.random.default_rng(40 + k)
        rows = gen.integers(0, 4, (500, 6)).astype(float)
        model = knn_fit(KnnConfig(k=k), rows, gen.integers(0, 2, 500))
        self.assert_matches_oracle(model, gen.integers(0, 4, (40, 6)).astype(float))

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("k", [2, 3])
    def test_models_of_k_and_k_plus_one_points(self, k, extra):
        # with k points every point is a neighbor and there is no (k+1)-th
        # value to compare; with k + 1 points exactly one is left out. Grid
        # rows repeat and half-integer queries sit midway between them
        gen = np.random.default_rng(80 + 10 * k + extra)
        rows = gen.integers(0, 2, (k + extra, 3)).astype(float)
        model = knn_fit(KnnConfig(k=k), rows, gen.integers(0, 2, k + extra))
        queries = np.vstack([rows, gen.integers(0, 5, (30, 3)) / 2.0, gen.normal(size=(10, 3))])
        self.assert_matches_oracle(model, queries)

    @given(
        k=st.integers(min_value=1, max_value=8),
        d=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_small_grids_with_duplicate_points(self, k, d, data):
        point = st.lists(st.integers(-2, 2).map(float), min_size=d, max_size=d)
        rows = data.draw(st.lists(point, min_size=1, max_size=12))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
        half_point = st.lists(st.integers(-5, 5).map(lambda v: v / 2.0), min_size=d, max_size=d)
        queries = data.draw(st.lists(half_point, min_size=1, max_size=6))
        model = knn_fit(KnnConfig(k=k), rows, labels)
        self.assert_matches_oracle(model, np.array(queries))

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
            dists = sorted(euclidean(row, q) for row in rows)
            kth_ties.append(dists[k - 1] == dists[k])
        assert any(kth_ties) and not all(kth_ties)
        self.assert_matches_oracle(model, queries)
        labels, scores = knn_predict_batch(model, queries)
        for i, q in enumerate(queries):
            one_labels, one_scores = knn_predict_batch(model, q[None])
            assert one_labels[0] == labels[i]
            assert one_scores[0] == scores[i]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("d, small", [(2, [3]), (3, [3, 2]), (5, [4, 2]), (10, [5, 3, 1]), (64, [14, 1])])
    def test_gap_just_inside_the_needed_margin_reaches_the_scan(self, monkeypatch, d, small, k):
        # exact arithmetic: at a query at the origin g is |x|^2, and every
        # square and sum below is a multiple of 2^-12 under 2^41, so g has
        # no rounding. The k-th and (k+1)-th g differ by m 2^-12, just below
        # the (6d + 11)u R^2 the rounding bound needs a row to be scanned at
        # and above the (d + 6.5)u R^2 of a margin cut below that need
        far = np.zeros((2, d))
        far[:, 0] = 2.0**20
        far[1, 1 : 1 + len(small)] = np.array(small) * 2.0**-6
        near = np.zeros((k - 1, d))
        near[:, 0] = np.arange(1, k)
        model = knn_fit(KnnConfig(k=k), np.vstack([near, far]), [1] * (k - 1) + [0, 1])
        g = np.einsum("ij,ij->i", model.features, model.features)
        gap, u_r2 = g[k] - g[k - 1], 2.0**-53 * g.max()
        assert g[k - 1] == 2.0**40 and gap == sum(j * j for j in small) * 2.0**-12
        assert (d + 6.5) * u_r2 < gap < (6 * d + 11) * u_r2
        scan, scanned = knn._scan, []

        def spy(points, block, k):
            scanned.append(len(block))
            return scan(points, block, k)

        monkeypatch.setattr(knn, "_scan", spy)
        query = np.zeros((1, d))
        assert _euclidean_positives(model, query, k) == model.labels[scan(model.features, query, k)].sum()
        assert scanned == [1]

    def test_a_far_row_widens_its_block_but_changes_no_answer(self, monkeypatch):
        # the rounding margin is one bound per block, from its largest query:
        # a finite row at norm 1e100 (squares near 1e200, no overflow) widens
        # it so far that every row beside it takes the scan, where each row
        # gets the answer it gets alone
        gen = np.random.default_rng(7)
        model = knn_fit(KnnConfig(k=3), gen.normal(size=(100, 4)), gen.integers(0, 2, 100))
        ordinary = gen.normal(size=(40, 4))
        queries = np.vstack([ordinary[:20], [[1e100, -1e100, 0.0, 1e100]], ordinary[20:]])
        scan, scanned = knn._scan, []

        def spy(points, block, k):
            scanned.append(block.copy())
            return scan(points, block, k)

        monkeypatch.setattr(knn, "_scan", spy)
        knn_predict_batch(model, ordinary)
        assert sum(len(block) for block in scanned) < len(ordinary)
        scanned.clear()
        labels, scores = knn_predict_batch(model, queries)
        np.testing.assert_array_equal(np.vstack(scanned), queries)
        for i, q in enumerate(queries):
            assert (labels[i], scores[i]) == brute_force_predict(model, q)
            one_labels, one_scores = knn_predict_batch(model, q[None])
            assert (one_labels[0], one_scores[0]) == (labels[i], scores[i])
            assert _euclidean_positives(model, q[None], 3)[0] / 3 == scores[i]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_block_with_a_non_finite_row_takes_the_full_scan(self, bad):
        # one NaN or infinite row sends its whole block to the scan, so the
        # finite rows beside it, ties on the integer grid among them, are
        # ranked there; the bad row's distances are all NaN or all infinite
        gen = np.random.default_rng(1)
        rows = np.vstack([gen.normal(size=(150, 4)), gen.integers(0, 3, (50, 4))])
        model = knn_fit(KnnConfig(k=5), rows, gen.integers(0, 2, 200))
        queries = np.vstack([gen.normal(size=(20, 4)), gen.integers(0, 3, (20, 4))])
        labels, scores = knn_predict_batch(model, np.vstack([queries, np.full((1, 4), bad)]))
        for i, q in enumerate(queries):
            assert (labels[i], scores[i]) == brute_force_predict(model, q)
        assert scores[-1] == model.labels[:5].sum() / 5
        self.assert_matches_oracle(model, queries)

    def test_equal_distances_with_distinct_squares_tie(self):
        # 1 + 2**-52 and 1 are distinct squared distances whose square roots
        # both round to 1.0: a distance tie, which goes to the lower index
        model = knn_fit(KnnConfig(k=1), [[1.0, 2.0**-26], [1.0, 0.0]], [0, 1])
        assert euclidean([0.0, 0.0], [1.0, 2.0**-26]) == euclidean([0.0, 0.0], [1.0, 0.0])
        self.assert_matches_oracle(model, np.zeros((1, 2)))

    def test_nan_query_takes_first_stored_points(self):
        # every distance is NaN, which a stable sort leaves in stored order
        model = knn_fit(KnnConfig(k=3), np.eye(5), [1, 1, 0, 0, 0])
        labels, scores = knn_predict_batch(model, np.full((1, 5), np.nan))
        assert scores[0] == pytest.approx(2.0 / 3.0)
        assert labels[0] == 1

    def test_overflowing_query_takes_first_stored_points(self):
        # every squared difference overflows, so every distance is inf and
        # the stable sort keeps stored order; nothing warns
        gen = np.random.default_rng(3)
        model = knn_fit(KnnConfig(k=3), gen.normal(size=(300, 2)), gen.integers(0, 2, 300))
        labels, scores = knn_predict_batch(model, np.array([[1e200, 0.0]]))
        assert scores[0] == model.labels[:3].sum() / 3
        assert labels[0] == (scores[0] > 0.5)

    def test_infinite_query_sorts_an_infinite_point_last(self):
        # inf - inf gives the stored inf point a NaN distance, which sorts
        # after the other points' infinite ones; nothing warns
        rows = [[np.inf, 0.0], [0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 0.0]]
        model = knn_fit(KnnConfig(k=3), rows, [1, 1, 0, 0, 1])
        labels, scores = knn_predict_batch(model, np.array([[np.inf, 0.0]]))
        assert scores[0] == pytest.approx(1.0 / 3.0)
        assert labels[0] == 0


class TestSmallBlockScan:
    """knn_predict_batch sends a block of fewer than _SCAN_CELLS query and
    stored point pairs to the exact scan and any other block to the
    certified path; either side of the cutoff gives the oracle's answer."""

    @pytest.mark.parametrize("below", [True, False], ids=["below", "at"])
    @pytest.mark.parametrize("n_points", [3, 7, 40, knn._SCAN_CELLS - 1])
    def test_parity_across_the_cutoff(self, monkeypatch, n_points, below):
        n_queries = -(-knn._SCAN_CELLS // n_points) - below
        gen = np.random.default_rng(n_points + below)
        # grid rows and queries tie at the k-th distance, normal queries do not
        rows = gen.integers(0, 3, (n_points, 4)).astype(float)
        model = knn_fit(KnnConfig(k=3), rows, gen.integers(0, 2, n_points))
        queries = np.vstack([gen.integers(0, 3, (n_queries, 4)), gen.normal(size=(n_queries, 4))])
        queries = queries[gen.permutation(len(queries))[:n_queries]]
        certified = []

        def spy(*args):
            certified.append(len(args[1]))
            return _euclidean_positives(*args)

        monkeypatch.setattr(knn, "_euclidean_positives", spy)
        labels, scores = knn_predict_batch(model, queries)
        assert certified == ([] if below else [n_queries])
        k = min(3, n_points)
        counts = _euclidean_positives(model, queries, k)
        for i, q in enumerate(queries):
            assert (labels[i], scores[i]) == brute_force_predict(model, q)
            assert counts[i] / k == scores[i]
