import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftpp.errors import (
    DimensionError,
    EmptyEnsemble,
    EmptyWindow,
    RoundFailed,
)
from driftpp.knn import KnnConfig, knn_fit, knn_predict_batch
from driftpp.learnpp import (
    BETA_FLOOR,
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

from conftest import ensemble_model, two_cluster_window


def random_hypothesis(rng, n_points=8, d=3, window_ordinal=0):
    model = knn_fit(KnnConfig(k=3), rng.normal(size=(n_points, d)), rng.integers(0, 2, n_points))
    return WeakHypothesis(model, float(rng.uniform(0.05, 0.95)), window_ordinal)


class TestConfig:
    def test_defaults(self):
        config = LearnPPConfig()
        assert config.n_estimators == 3
        assert config.window_size is None
        assert config.error_threshold == 0.5
        assert config.max_retries == 10
        assert config.max_window_ensembles is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_estimators": 0},
            {"window_size": 0},
            {"error_threshold": 0.0},
            {"error_threshold": 1.0},
            {"max_retries": 0},
            {"max_window_ensembles": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LearnPPConfig(**kwargs)


class TestWeightDistribution:
    def test_init_weights_uniform(self):
        dist = init_weights(4)
        np.testing.assert_array_equal(dist.weights, [0.25, 0.25, 0.25, 0.25])

    def test_init_weights_singleton(self):
        np.testing.assert_array_equal(init_weights(1).weights, [1.0])

    def test_init_weights_large_window_sums_to_one(self):
        dist = init_weights(10080)
        assert dist.weights[0] == pytest.approx(1.0 / 10080)
        assert abs(dist.weights.sum() - 1.0) <= 1e-9

    def test_init_weights_zero_raises(self):
        with pytest.raises(EmptyWindow):
            init_weights(0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            WeightDistribution(np.array([0.5, 0.6, -0.1]))

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError):
            WeightDistribution(np.array([0.5, 0.6]))

    def test_normalized_builds_from_raw(self):
        dist = WeightDistribution.normalized([2.0, 1.0, 1.0])
        np.testing.assert_allclose(dist.weights, [0.5, 0.25, 0.25])

    def test_normalized_rejects_zero_total(self):
        with pytest.raises(ValueError):
            WeightDistribution.normalized([0.0, 0.0])


class TestSampleTrainingSubset:
    def test_draws_half_rounded_up(self, rng):
        assert sample_training_subset(init_weights(10), rng).shape == (5,)
        assert sample_training_subset(init_weights(7), rng).shape == (4,)
        assert sample_training_subset(init_weights(1), rng).shape == (1,)

    def test_deterministic_given_rng_state(self):
        a = sample_training_subset(init_weights(4), np.random.default_rng(3))
        b = sample_training_subset(init_weights(4), np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_degenerate_mass_only_samples_that_index(self, rng):
        dist = WeightDistribution(np.array([1.0, 0.0, 0.0, 0.0]))
        drawn = sample_training_subset(dist, rng)
        assert set(drawn.tolist()) == {0}

    def test_sampling_frequency_tracks_weights(self):
        # 10,000 draws from a 0.7-weighted index should land near 0.7
        gen = np.random.default_rng(0)
        dist = WeightDistribution(np.array([0.7, 0.1, 0.1, 0.1]))
        draws = np.concatenate(
            [sample_training_subset(dist, gen) for _ in range(5000)]
        )
        frequency = (draws == 0).mean()
        assert abs(frequency - 0.7) < 0.02


class TestErrors:
    def test_perfect_hypothesis_error_is_zero(self, rng):
        window = two_cluster_window(20, 2, rng)
        model = knn_fit(KnnConfig(k=1), *window)
        assert hypothesis_error(model, *window, init_weights(20)) == 0.0

    def test_uniform_weight_two_misses(self):
        # model trained on inverted labels for two of the four points
        rows = [[0.0], [1.0], [10.0], [11.0]]
        model = knn_fit(KnnConfig(k=1), rows, [1, 0, 0, 1])
        error = hypothesis_error(model, rows, [0, 0, 1, 1], init_weights(4))
        assert error == pytest.approx(0.5)

    def test_matches_loop_oracle(self, rng):
        rows, labels = rng.normal(size=(50, 3)), rng.integers(0, 2, 50)
        model = knn_fit(KnnConfig(k=3), rows[:20], labels[:20])
        dist = WeightDistribution.normalized(rng.uniform(0.1, 1.0, 50))
        want = 0.0
        for i, (x, y) in enumerate(zip(rows, labels)):
            label = knn_predict_batch(model, x[None])[0][0]
            if label != y:
                want += dist.weights[i]
        assert hypothesis_error(model, rows, labels, dist) == pytest.approx(want, abs=1e-12)

    def test_size_mismatch(self, rng):
        window = two_cluster_window(6, 2, rng)
        model = knn_fit(KnnConfig(), *window)
        with pytest.raises(DimensionError):
            hypothesis_error(model, *window, init_weights(5))

    @pytest.mark.parametrize(
        "error,expected",
        [
            (0.25, 1.0 / 3.0),
            (0.1, 1.0 / 9.0),
            (0.4999, 0.4999 / 0.5001),
            (0.2, 0.25),
            (1.0 / 3.0, 0.5),
            (0.01, 1.0 / 99.0),
        ],
    )
    def test_normalize_error_values(self, error, expected):
        got = normalize_error(error)
        assert got == pytest.approx(expected)
        assert 0.0 < got < 1.0


class TestCompositeVote:
    def test_two_voter_log_weights(self):
        # voter A (beta 0.2) says 1, voter B (beta 0.5) says 0
        pos = knn_fit(KnnConfig(k=1), [[0.0]], [1])
        neg = knn_fit(KnnConfig(k=1), [[0.0]], [0])
        ensemble = [WeakHypothesis(pos, 0.2, 0), WeakHypothesis(neg, 0.5, 0)]
        labels, scores = ensemble_model(ensemble).predict([[0.0]])
        assert labels[0] == 1
        assert scores[0] == pytest.approx(math.log(5) / (math.log(5) + math.log(2)))

    def test_unanimous_zero(self):
        neg = knn_fit(KnnConfig(k=1), [[0.0]], [0])
        ensemble = [WeakHypothesis(neg, 0.3, 0), WeakHypothesis(neg, 0.6, 0)]
        labels, scores = ensemble_model(ensemble).predict([[0.0]])
        assert labels[0] == 0
        assert scores[0] == 0.0

    def test_empty_ensemble(self):
        with pytest.raises(EmptyEnsemble):
            ensemble_model([]).predict([[0.0]])

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(20):
            ensemble = [random_hypothesis(rng) for _ in range(rng.integers(1, 6))]
            for _ in range(5):
                x = rng.normal(size=3)
                sums = {0: 0.0, 1: 0.0}
                for hyp in ensemble:
                    label = knn_predict_batch(hyp.model, x[None])[0][0]
                    sums[int(label)] += math.log(1.0 / hyp.normalized_error)
                want = 1 if sums[1] > sums[0] else 0
                labels, scores = ensemble_model(ensemble).predict(x[None])
                got, score = labels[0], scores[0]
                assert int(got) == want
                total = sums[0] + sums[1]
                assert score == pytest.approx(sums[1] / total if total else 0.5)

    def test_vote_weight_scaling_invariance(self, rng):
        # raising every beta to the same power scales all vote weights by
        # that power; the winning label must not move
        ensemble = [random_hypothesis(rng) for _ in range(4)]
        scaled = [
            WeakHypothesis(h.model, h.normalized_error**2.0, h.window_ordinal)
            for h in ensemble
        ]
        for _ in range(30):
            x = rng.normal(size=3)
            assert ensemble_model(ensemble).predict(x[None])[0][0] == ensemble_model(scaled).predict(x[None])[0][0]


class TestCompositeError:
    def test_correct_everywhere_is_zero(self, rng):
        window = two_cluster_window(12, 2, rng)
        model = knn_fit(KnnConfig(k=1), *window)
        ensemble = [WeakHypothesis(model, 0.1, 0)]
        assert composite_error(ensemble, *window, init_weights(12)) == 0.0

    def test_uniform_three_wrong_of_ten(self):
        rows = [[float(i)] for i in range(10)]
        # single k=1 voter trained with the last three labels inverted
        model = knn_fit(KnnConfig(k=1), rows, [0] * 10)
        ensemble = [WeakHypothesis(model, 0.2, 0)]
        got = composite_error(ensemble, rows, [0] * 7 + [1] * 3, init_weights(10))
        assert got == pytest.approx(0.3)

    def test_matches_loop_oracle(self, rng):
        rows, labels = rng.normal(size=(30, 3)), rng.integers(0, 2, 30)
        ensemble = [random_hypothesis(rng) for _ in range(3)]
        dist = WeightDistribution.normalized(rng.uniform(0.1, 1.0, 30))
        want = 0.0
        for i, (x, y) in enumerate(zip(rows, labels)):
            label = ensemble_model(ensemble).predict(x[None])[0][0]
            if label != y:
                want += dist.weights[i]
        got = composite_error(ensemble, rows, labels, dist)
        assert got == pytest.approx(want, abs=1e-12)


class TestUpdateWeights:
    def test_two_instance_example(self):
        dist = init_weights(2)
        updated = update_weights(dist, [True, False], 0.5)
        np.testing.assert_allclose(updated.weights, [1.0 / 3.0, 2.0 / 3.0])

    def test_all_wrong_unchanged(self):
        dist = WeightDistribution.normalized([1.0, 2.0, 3.0])
        updated = update_weights(dist, [False, False, False], 0.5)
        np.testing.assert_allclose(updated.weights, dist.weights)

    def test_all_correct_renormalizes_to_same(self):
        dist = WeightDistribution.normalized([1.0, 2.0, 3.0])
        updated = update_weights(dist, [True, True, True], 0.5)
        np.testing.assert_allclose(updated.weights, dist.weights)

    def test_mask_shape_mismatch(self):
        with pytest.raises(DimensionError):
            update_weights(init_weights(3), [True, False], 0.5)

    @given(
        n=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
        decay=st.floats(min_value=1e-6, max_value=0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_correct_never_gains_on_wrong(self, n, seed, decay):
        gen = np.random.default_rng(seed)
        dist = WeightDistribution.normalized(gen.uniform(0.1, 1.0, n))
        mask = gen.integers(0, 2, n).astype(bool)
        updated = update_weights(dist, mask, decay)
        assert abs(updated.weights.sum() - 1.0) <= 1e-9
        # equal-weight pairs: the correct one must end at or below the wrong one
        for i in range(n):
            for j in range(n):
                if mask[i] and not mask[j] and dist.weights[i] == dist.weights[j]:
                    assert updated.weights[i] <= updated.weights[j]


class TestRunRound:
    def test_separable_window_masters_training_set(self, rng):
        window = two_cluster_window(40, 2, rng)
        config = LearnPPConfig(seed=0)
        hyps, final = run_round(*window, init_weights(40), config, np.random.default_rng(0))
        assert len(hyps) >= 1
        for hyp in hyps:
            assert 0.0 < hyp.normalized_error < 1.0
            assert hyp.vote_weight > 0.0
        assert composite_error(hyps, *window, init_weights(40)) == 0.0

    def test_early_stop_keeps_round_short(self, rng):
        # k=1 masters a separable window immediately; one hypothesis suffices
        window = two_cluster_window(30, 2, rng)
        config = LearnPPConfig(n_estimators=3, knn=KnnConfig(k=1), seed=1)
        hyps, _ = run_round(*window, init_weights(30), config, np.random.default_rng(1))
        assert len(hyps) == 1
        assert hyps[0].normalized_error == BETA_FLOOR

    def test_contradictory_window_fails_cleanly(self):
        # same point with both labels: every candidate sits at error >= 0.5
        config = LearnPPConfig(max_retries=3, knn=KnnConfig(k=2), seed=0)
        with pytest.raises(RoundFailed):
            run_round([[0.0], [0.0]], [0, 1], init_weights(2), config, np.random.default_rng(0))

    def test_single_positive_point_never_silent_beta_overflow(self, rng):
        rows = np.vstack([rng.normal(0.0, 0.5, (9, 2)), [[6.0, 6.0]]])
        config = LearnPPConfig(seed=2)
        try:
            hyps, _ = run_round(rows, [0] * 9 + [1], init_weights(10), config, np.random.default_rng(2))
        except RoundFailed:
            return
        for hyp in hyps:
            assert 0.0 < hyp.normalized_error < 1.0

    def test_deterministic_for_fixed_seed(self, rng):
        window = two_cluster_window(24, 3, rng)
        config = LearnPPConfig(seed=0)
        first, d1 = run_round(*window, init_weights(24), config, np.random.default_rng(7))
        second, d2 = run_round(*window, init_weights(24), config, np.random.default_rng(7))
        assert [h.normalized_error for h in first] == [h.normalized_error for h in second]
        assert [h.model.features.tobytes() for h in first] == [
            h.model.features.tobytes() for h in second
        ]
        np.testing.assert_array_equal(d1.weights, d2.weights)

    def test_empty_window_raises(self):
        with pytest.raises(EmptyWindow):
            run_round([], [], init_weights(1), LearnPPConfig(), np.random.default_rng(0))

    def test_candidates_fit_on_distinct_window_instances(self, rng):
        # nearly all mass on four instances: a with-replacement draw of 20
        # repeats them, and a k-NN holding two copies of a point echoes its
        # label around it, so each candidate must keep one copy of each
        window = two_cluster_window(40, 2, rng)
        raw = np.full(40, 0.001)
        raw[:4] = 1.0
        d0 = WeightDistribution.normalized(raw)
        hyps, _ = run_round(*window, d0, LearnPPConfig(seed=0), np.random.default_rng(3))
        assert len(hyps) >= 1
        pairs = {(row.tobytes(), int(label)) for row, label in zip(*window)}
        for hyp in hyps:
            rows = hyp.model.features
            assert len(np.unique(rows, axis=0)) == len(rows)
            for row, label in zip(rows, hyp.model.labels):
                assert (row.tobytes(), int(label)) in pairs

    def test_weights_stay_normalized_every_round(self, rng):
        for seed in range(5):
            gen = np.random.default_rng(seed)
            rows = gen.normal(size=(30, 3))
            labels = (rows[:, 0] > 0).astype(int)
            _, final = run_round(
                rows, labels, init_weights(30), LearnPPConfig(seed=seed), gen
            )
            assert abs(final.weights.sum() - 1.0) <= 1e-9


class TestModel:
    def test_predict_before_training_raises(self):
        model = LearnPPModel(LearnPPConfig())
        with pytest.raises(EmptyEnsemble):
            model.predict([[0.0, 0.0]])

    def test_predict_rejects_a_single_row(self, rng):
        model = LearnPPModel(LearnPPConfig(seed=0))
        model.fit_initial(*two_cluster_window(20, 2, rng))
        with pytest.raises(DimensionError):
            model.predict(np.zeros(2))

    def test_single_hypothesis_predict_equals_knn(self, rng):
        window = two_cluster_window(20, 2, rng)
        config = LearnPPConfig(n_estimators=1, seed=0)
        model = LearnPPModel(config)
        model.fit_initial(*window)
        assert len(model.hypotheses) == 1
        for _ in range(10):
            x = rng.normal(size=2) * 3.0
            want = knn_predict_batch(model.hypotheses[0].model, x[None])[0][0]
            got = model.predict(x[None])[0][0]
            assert got == want

    def test_training_point_prediction_matches_its_label(self, rng):
        window = two_cluster_window(30, 2, rng)
        model = LearnPPModel(LearnPPConfig(seed=0))
        model.fit_initial(*window)
        hits = sum(
            model.predict(x[None])[0][0] == label for x, label in zip(*window)
        )
        assert hits == len(window[1])

    def test_buffer_below_window_size_defers_training(self, rng):
        window = two_cluster_window(8, 2, rng)
        model = LearnPPModel(LearnPPConfig(window_size=4, knn=KnnConfig(k=1), seed=0))
        model.fit_initial(*window)
        before = len(model.hypotheses)
        for x, label in list(zip(*window))[:3]:
            model.partial_fit(x[None], [label], [True])
        assert model.buffer_size == 3
        assert len(model.hypotheses) == before

    def test_full_buffer_triggers_round(self, rng):
        window = two_cluster_window(8, 2, rng)
        model = LearnPPModel(LearnPPConfig(window_size=4, knn=KnnConfig(k=1), seed=0))
        model.fit_initial(*window)
        before_hyps = len(model.hypotheses)
        before_windows = model.windows_completed
        for x, label in list(zip(*window))[:4]:
            model.partial_fit(x[None], [label], [False])
        assert model.buffer_size == 0
        assert model.windows_completed == before_windows + 1
        grown = len(model.hypotheses) - before_hyps
        assert 1 <= grown <= model.config.n_estimators

    def test_pruning_drops_oldest_window_groups(self, rng):
        model = LearnPPModel(
            LearnPPConfig(window_size=10, max_window_ensembles=2, knn=KnnConfig(k=1), seed=0)
        )
        model.fit_initial(*two_cluster_window(10, 2, rng))
        for _ in range(2):
            for x, label in zip(*two_cluster_window(10, 2, rng)):
                model.partial_fit(x[None], [label], [True])
        ordinals = {h.window_ordinal for h in model.hypotheses}
        assert ordinals == {1, 2}

    def test_single_class_window_dropped_with_no_new_hypotheses(self, rng):
        model = LearnPPModel(LearnPPConfig(seed=0))
        model.fit_initial(*two_cluster_window(10, 2, rng))
        before = len(model.hypotheses)
        for x in rng.normal(size=(5, 2)):
            model.partial_fit(x[None], [1], [True])
        model.flush_window()
        assert len(model.hypotheses) == before
        assert model.buffer_size == 0
        assert model.windows_completed == 2

    def test_flush_on_empty_buffer_is_noop(self, rng):
        model = LearnPPModel(LearnPPConfig(seed=0))
        model.fit_initial(*two_cluster_window(10, 2, rng))
        windows = model.windows_completed
        model.flush_window()
        assert model.windows_completed == windows

    def test_monotone_growth_between_prunes(self, rng):
        model = LearnPPModel(LearnPPConfig(window_size=6, knn=KnnConfig(k=1), seed=3))
        model.fit_initial(*two_cluster_window(12, 2, rng))
        counts = [len(model.hypotheses)]
        for _ in range(3):
            for x, label in zip(*two_cluster_window(6, 2, rng)):
                model.partial_fit(x[None], [label], [True])
            counts.append(len(model.hypotheses))
        assert counts == sorted(counts)

    def test_window_ordinals_nondecreasing(self, rng):
        model = LearnPPModel(LearnPPConfig(window_size=6, knn=KnnConfig(k=1), seed=3))
        model.fit_initial(*two_cluster_window(12, 2, rng))
        for _ in range(2):
            for x, label in zip(*two_cluster_window(6, 2, rng)):
                model.partial_fit(x[None], [label], [True])
        ordinals = [h.window_ordinal for h in model.hypotheses]
        assert ordinals == sorted(ordinals)

    @staticmethod
    def state(model):
        """Buffer length, window count, and each hypothesis's vote weight
        and stored points."""
        return (
            model.buffer_size,
            model.windows_completed,
            [
                (h.vote_weight, h.model.features.tolist(), h.model.labels.tolist())
                for h in model.hypotheses
            ],
        )

    @pytest.mark.parametrize("window_size, after_failure", [(None, False), (6, False), (6, True)])
    def test_block_absorb_matches_row_by_row(self, rng, window_size, after_failure):
        config = LearnPPConfig(window_size=window_size, knn=KnnConfig(k=1), seed=0)
        initial = two_cluster_window(12, 2, rng)
        features, labels = two_cluster_window(6, 2, rng)
        was_correct = np.array([True, False, True, True, False, True])
        # each point twice, once per label: every candidate misses half the
        # weight, so the round over this window fails
        noise = np.repeat(rng.normal(size=(3, 2)), 2, axis=0), np.tile([0, 1], 3)
        block, by_row = LearnPPModel(config), LearnPPModel(config)
        for model in (block, by_row):
            model.fit_initial(*initial)
            if after_failure:
                with pytest.raises(RoundFailed):
                    model.partial_fit(*noise, np.ones(6, dtype=bool))
        n = block.rows_until_flush or len(labels)
        assert n == 6
        block.partial_fit(features[:n], labels[:n], was_correct[:n])
        for i in range(n):
            by_row.partial_fit(features[i : i + 1], labels[i : i + 1], was_correct[i : i + 1])
        if window_size is None:
            block.flush_window()
            by_row.flush_window()
        assert block.buffer_size == 0
        assert block.windows_completed == 2
        assert self.state(block) == self.state(by_row)

    def test_block_past_the_flush_raises_and_changes_nothing(self, rng):
        model = LearnPPModel(LearnPPConfig(window_size=4, knn=KnnConfig(k=1), seed=0))
        model.fit_initial(*two_cluster_window(8, 2, rng))
        features, labels = two_cluster_window(5, 2, rng)
        model.partial_fit(features[:1], labels[:1], [True])
        before = self.state(model)
        assert model.rows_until_flush == 3
        with pytest.raises(ValueError):
            model.partial_fit(features[1:], labels[1:], [True] * 4)
        assert self.state(model) == before
        assert model.rows_until_flush == 3

    def test_buffer_holds_copies(self, rng):
        config = LearnPPConfig(window_size=6, knn=KnnConfig(k=1), seed=0)
        initial = two_cluster_window(12, 2, rng)
        features, labels = two_cluster_window(6, 2, rng)
        was_correct = np.ones(6, dtype=bool)
        edited, clean = LearnPPModel(config), LearnPPModel(config)
        for model in (edited, clean):
            model.fit_initial(*initial)
        edited.partial_fit(features[:3], labels[:3], was_correct[:3])
        clean.partial_fit(features[:3].copy(), labels[:3].copy(), was_correct[:3].copy())
        features[:3] = 100.0
        labels[:3] = 1 - labels[:3]
        was_correct[:3] = False
        for model in (edited, clean):
            model.partial_fit(features[3:], labels[3:], was_correct[3:])
        assert clean.windows_completed == 2
        assert self.state(edited) == self.state(clean)
