import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftpp.core import Records
from driftpp.errors import UndefinedAUC
from driftpp.metrics import auc, confusion, f1, fnr

from conftest import make_records


def quadratic_auc(records):
    """O(n^2) pair-counting reference for the ranking statistic."""
    pos = [r.score for r in records if int(r.truth) == 1]
    neg = [r.score for r in records if int(r.truth) == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def midrank_oracle(truth, scores):
    """AUC from an argsort of the scores: each tie group's sorted positions
    i..j share the midrank (i + j) / 2 + 1, scattered back to the rows."""
    truth, scores = np.asarray(truth), np.asarray(scores, dtype=np.float64)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ends = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1])
    i = np.append(0, ends + 1)
    j = np.append(ends, truth.size - 1)
    ranks = np.empty(truth.size, dtype=np.float64)
    ranks[order] = np.repeat((i + j) / 2.0 + 1.0, j - i + 1)
    rank_sum = ranks[truth == 1].sum()
    u_statistic = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u_statistic / (n_pos * n_neg))


class TestConfusion:
    def test_one_of_each_cell(self):
        records = make_records(
            truths=[1, 0, 0, 1],
            predictions=[1, 1, 0, 0],
            scores=[0.9, 0.8, 0.1, 0.2],
        )
        counts = confusion(records)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 1, 1, 1)

    def test_all_correct(self):
        records = make_records([1, 0, 1], [1, 0, 1], [0.9, 0.1, 0.8])
        counts = confusion(records)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 0, 1, 0)

    def test_empty(self):
        counts = confusion([])
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (0, 0, 0, 0)

    def test_matches_loop_oracle(self, rng):
        truths, predictions = rng.integers(0, 2, 200), rng.integers(0, 2, 200)
        records = make_records(truths, predictions, rng.uniform(size=200))
        counts = confusion(records)
        cells = {"tp": (1, 1), "fp": (0, 1), "tn": (0, 0), "fn": (1, 0)}
        for name, (truth, predicted) in cells.items():
            expected = sum(r.truth == truth and r.predicted == predicted for r in records)
            assert getattr(counts, name) == expected


class TestF1:
    def test_hand_value(self):
        # tp=9, fp=1, fn=1: precision 0.9, recall 0.9
        records = make_records(
            [1] * 10 + [0] * 10,
            [1] * 9 + [0] + [0] * 9 + [1],
            [0.9] * 10 + [0.1] * 10,
        )
        assert f1(confusion(records)) == pytest.approx(0.9)

    def test_no_true_positives_is_zero(self):
        records = make_records([1, 1, 0], [0, 0, 0], [0.2, 0.3, 0.1])
        assert f1(confusion(records)) == 0.0

    def test_perfect(self):
        records = make_records([1, 0, 1, 0], [1, 0, 1, 0], [0.9, 0.1, 0.8, 0.2])
        assert f1(confusion(records)) == 1.0


class TestFnr:
    def test_hand_value(self):
        records = make_records(
            [1] * 10, [1] * 9 + [0], [0.9] * 9 + [0.1]
        )
        assert fnr(confusion(records)) == pytest.approx(0.1)

    def test_no_positives_is_zero(self):
        records = make_records([0, 0], [0, 1], [0.1, 0.9])
        assert fnr(confusion(records)) == 0.0

    def test_three_quarters(self):
        records = make_records([1, 1, 1, 1], [1, 0, 0, 0], [0.9, 0.1, 0.2, 0.3])
        assert fnr(confusion(records)) == pytest.approx(0.75)


class TestAuc:
    def test_perfect_separation(self):
        records = make_records([1, 1, 0, 0], [1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])
        assert auc(records) == 1.0

    def test_reversed_separation(self):
        records = make_records([1, 1, 0, 0], [0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert auc(records) == 0.0

    def test_all_scores_tied(self):
        records = make_records([1, 0, 1, 0], [0, 0, 0, 0], [0.5] * 4)
        assert auc(records) == pytest.approx(0.5)

    def test_negative_zero_ties_with_zero(self):
        records = make_records([1, 0, 1, 0], [0, 0, 0, 0], [-0.0, 0.0, 0.5, 0.25])
        assert auc(records) == 0.625

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_midrank_oracle_bit_for_bit(self, data):
        n = data.draw(st.integers(2, 60))
        positives = data.draw(st.integers(1, n - 1))
        truth = data.draw(st.permutations([1] * positives + [0] * (n - positives)))
        value = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0])
        if data.draw(st.booleans()):
            # heavy ties: every score from a pool of at most four values
            value = st.sampled_from(data.draw(st.lists(value, min_size=1, max_size=4)))
        scores = data.draw(st.lists(value, min_size=n, max_size=n))
        block = Records("c", truth, truth, scores)
        expected = midrank_oracle(truth, scores).hex()
        assert auc(block).hex() == expected
        assert auc(list(block)).hex() == expected

    def test_single_class_raises(self):
        with pytest.raises(UndefinedAUC):
            auc(make_records([1, 1], [1, 1], [0.9, 0.8]))
        with pytest.raises(UndefinedAUC):
            auc(make_records([0, 0], [0, 0], [0.1, 0.2]))

    def test_empty_raises(self):
        with pytest.raises(UndefinedAUC):
            auc([])

    def test_matches_pair_counting_oracle(self, rng):
        for trial in range(25):
            n = int(rng.integers(10, 500))
            truths = rng.integers(0, 2, n)
            if truths.min() == truths.max():
                truths[0] = 1 - truths[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(size=n), 2)
            records = make_records(truths, truths, scores)
            assert auc(records) == pytest.approx(
                quadratic_auc(records), abs=1e-9
            )

    def test_label_reversal_flips_value(self, rng):
        n = 120
        truths = rng.integers(0, 2, n)
        truths[0], truths[1] = 0, 1
        scores = rng.uniform(size=n)
        records = make_records(truths, truths, scores)
        flipped = make_records(1 - truths, 1 - truths, scores)
        assert auc(records) + auc(flipped) == pytest.approx(1.0, abs=1e-9)

    def test_permutation_invariant(self, rng):
        n = 60
        truths = rng.integers(0, 2, n)
        truths[0], truths[1] = 0, 1
        scores = np.round(rng.uniform(size=n), 1)
        records = make_records(truths, truths, scores)
        order = rng.permutation(n)
        shuffled = [records[i] for i in order]
        assert auc(shuffled) == pytest.approx(auc(records), abs=1e-12)


class TestRecordsBlock:
    def test_block_and_its_records_give_the_same_metrics(self, rng):
        # a block's columns are read directly; any other sequence of
        # records is turned into columns first
        for ties in (False, True):
            scores = rng.integers(0, 5, 300) / 4 if ties else rng.uniform(size=300)
            block = Records("c", rng.integers(0, 2, 300), rng.integers(0, 2, 300), scores)
            records = list(block)
            assert confusion(block) == confusion(records)
            assert auc(block) == auc(records)
        assert confusion(Records("c", [], [], [])) == confusion([])
        with pytest.raises(UndefinedAUC):
            auc(Records("c", [1, 1], [0, 1], [0.5, 0.25]))
