"""End-to-end acceptance checks.

Every test prints one uncaptured [PASS]/[FAIL] verdict line so the gate's
outcome is readable straight off the terminal, then asserts. Oracles here
are deliberately written the slow way (per-instance loops, pairwise
counting, a separate matrix decomposition route) so they share no code with
the implementations they judge.
"""
import math
import time

import numpy as np
import pytest

from driftpp.adaptive import RunConfig, pretrain, process_chunk, reduce_chunk, run_experiment
from driftpp.core import Chunk
from driftpp.data import DriftSpec, StreamSpec, generate_stream
from driftpp.knn import KnnConfig, knn_fit, knn_predict_batch
from driftpp.learnpp import (
    LearnPPConfig,
    LearnPPModel,
    WeakHypothesis,
    WeightDistribution,
    init_weights,
    normalize_error,
    run_round,
    update_weights,
    weighted_error,
)
from driftpp.metrics import auc
from driftpp.pca import pca_fit, tevr

from conftest import ensemble_model, make_records, two_cluster_window


def emit(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def random_window(gen, n, d):
    features = gen.normal(size=(n, d))
    labels = gen.integers(0, 2, n)
    return features, labels


def fit_on_subset(gen, window, k):
    features, labels = window
    size = int(gen.integers(1, len(labels) + 1))
    picks = gen.integers(0, len(labels), size)
    return knn_fit(KnnConfig(k=k), features[picks], labels[picks])


def test_equation_conformance(capsys):
    """weighted_error (of a weak learner's and of the composite's
    predictions), normalize_error (of both errors) and update_weights
    against loop-and-sum oracles over 1,000 randomized cases."""
    gen = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(gen.integers(5, 41))
        d = int(gen.integers(2, 6))
        window = random_window(gen, n, d)
        dist = WeightDistribution.normalized(gen.uniform(0.05, 1.0, n))
        model = fit_on_subset(gen, window, k=int(gen.choice([1, 3])))

        got = weighted_error(dist, knn_predict_batch(model, window[0])[0], window[1])
        want = 0.0
        for i, (x, y) in enumerate(zip(*window)):
            label = knn_predict_batch(model, x[None])[0][0]
            if label != y:
                want += float(dist.weights[i])
        worst = max(worst, abs(got - want))

        if 0.0 < got < 0.5:
            assert normalize_error(got) == got / (1.0 - got)

        ensemble = [
            WeakHypothesis(fit_on_subset(gen, window, 1), float(gen.uniform(0.05, 0.95)), 0)
            for _ in range(int(gen.integers(1, 3)))
        ]
        got_comp = weighted_error(dist, ensemble_model(ensemble).predict(window[0])[0], window[1])
        want_comp = 0.0
        for i, (x, y) in enumerate(zip(*window)):
            label = ensemble_model(ensemble).predict(x[None])[0][0]
            if label != y:
                want_comp += float(dist.weights[i])
        worst = max(worst, abs(got_comp - want_comp))

        if 0.0 < got_comp < 0.5:
            assert normalize_error(got_comp) == got_comp / (1.0 - got_comp)

        mask = gen.integers(0, 2, n).astype(bool)
        decay = float(gen.uniform(0.01, 0.99))
        updated = update_weights(dist, mask, decay)
        raw = [
            float(w) * decay if correct else float(w)
            for w, correct in zip(dist.weights, mask)
        ]
        total = sum(raw)
        for value, reference in zip(updated.weights, raw):
            worst = max(worst, abs(float(value) - reference / total))

    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 10.0
    emit(capsys, ok, "equation conformance",
         f"1000 cases, max deviation {worst:.2e}, {elapsed:.1f}s (budget 10s)")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_vote_oracle(capsys):
    """LearnPPModel.predict, one row at a time, against exhaustive per-label log-sum argmax for
    ensembles of one to five voters, 200 inputs each."""
    gen = np.random.default_rng(202)
    mismatches = 0
    checked = 0
    for size in range(1, 6):
        for _ in range(10):
            window = random_window(gen, 12, 3)
            ensemble = [
                WeakHypothesis(fit_on_subset(gen, window, 1), float(gen.uniform(0.05, 0.95)), 0)
                for _ in range(size)
            ]
            for _ in range(200):
                x = gen.normal(size=3)
                sums = {0: 0.0, 1: 0.0}
                for hyp in ensemble:
                    label = knn_predict_batch(hyp.model, x[None])[0][0]
                    sums[int(label)] += math.log(1.0 / hyp.normalized_error)
                want_label = 1 if sums[1] > sums[0] else 0
                total = sums[0] + sums[1]
                want_score = sums[1] / total if total > 0.0 else 0.5
                got_labels, got_scores = ensemble_model(ensemble).predict(x[None])
                got_label, got_score = got_labels[0], got_scores[0]
                checked += 1
                if int(got_label) != want_label or abs(got_score - want_score) > 1e-12:
                    mismatches += 1
    ok = mismatches == 0
    emit(capsys, ok, "vote oracle", f"{checked} votes across ensemble sizes 1-5, {mismatches} mismatches")
    assert mismatches == 0


def test_knn_oracle(capsys):
    """knn_predict_batch, one row at a time, against an exhaustive sorted scan with the same tie
    rules on 100 random datasets."""
    gen = np.random.default_rng(303)
    mismatches = 0
    checked = 0
    for trial in range(100):
        n = int(gen.integers(1, 201))
        d = int(gen.integers(1, 11))
        if trial % 2 == 0:
            features = gen.integers(0, 4, (n, d)).astype(float)  # grid: exact distance ties
        else:
            features = gen.normal(size=(n, d))
        labels = gen.integers(0, 2, n)
        k = int(gen.choice([1, 3, 5, 7]))
        model = knn_fit(KnnConfig(k=k), features, labels)

        queries = list(gen.normal(size=(15, d)))
        if trial % 2 == 0:
            queries = [q.astype(float) for q in gen.integers(0, 4, (15, d))]
        queries += [features[i] for i in gen.integers(0, n, 5)]

        for x in queries:
            ranked = sorted(
                ((float(np.sqrt(((features[i] - x) ** 2).sum())), i) for i in range(n)),
            )
            top = ranked[: min(k, n)]
            score = sum(int(labels[i]) for _, i in top) / len(top)
            want_label = 1 if score > 0.5 else 0
            got_labels, got_scores = knn_predict_batch(model, x[None])
            got_label, got_score = got_labels[0], got_scores[0]
            checked += 1
            if int(got_label) != want_label or abs(got_score - score) > 1e-12:
                mismatches += 1
    ok = mismatches == 0
    emit(capsys, ok, "knn oracle", f"100 datasets, {checked} queries, {mismatches} mismatches")
    assert mismatches == 0


def test_auc_oracle(capsys):
    """Rank-based auc against O(n^2) pairwise counting, with and without
    tied scores."""
    gen = np.random.default_rng(404)
    worst = 0.0
    for trial in range(50):
        n = int(gen.integers(2, 501))
        truths = gen.integers(0, 2, n)
        truths[0], truths[1 % n] = 0, 1
        scores = gen.uniform(size=n)
        if trial % 2 == 0:
            scores = np.round(scores, 1)  # heavy ties
        records = make_records(truths, truths, scores)

        pos = [r.score for r in records if int(r.truth) == 1]
        neg = [r.score for r in records if int(r.truth) == 0]
        wins = 0.0
        for p in pos:
            for q in neg:
                if p > q:
                    wins += 1.0
                elif p == q:
                    wins += 0.5
        want = wins / (len(pos) * len(neg))
        worst = max(worst, abs(auc(records) - want))
    ok = worst <= 1e-9
    emit(capsys, ok, "auc oracle", f"50 record sets up to n=500, max deviation {worst:.2e}")
    assert worst <= 1e-9


def test_pca_oracle(capsys):
    """Explained-variance ratios against an independent SVD route, full-k
    completeness, and prefix consistency."""
    gen = np.random.default_rng(505)
    worst = 0.0
    shapes = [(50, 8), (80, 12), (120, 16), (160, 24), (200, 40)]
    for n, d in shapes:
        rows = gen.normal(size=(n, d)) @ gen.normal(size=(d, d))
        chunk = Chunk(f"m{n}x{d}", rows, np.zeros(n, int))
        basis = pca_fit(chunk, d)

        centered = rows - rows.mean(axis=0)
        singular = np.linalg.svd(centered, compute_uv=False)
        variances = singular**2
        want = variances / variances.sum()
        worst = max(worst, float(np.max(np.abs(basis.explained_variance_ratio - want))))

        completeness = tevr(basis, d)
        worst_total = abs(completeness - 1.0)
        assert worst_total <= 1e-9

        short = pca_fit(chunk, 3)
        prefix_gap = float(np.max(np.abs(short.components - basis.components[:3])))
        assert prefix_gap <= 1e-10
    ok = worst <= 1e-8
    emit(capsys, ok, "pca oracle",
         f"{len(shapes)} matrices 50x8..200x40, max ratio deviation {worst:.2e}, "
         "completeness and prefix consistency held")
    assert worst <= 1e-8


def test_training_invariants(capsys):
    """Across randomized streams: weight mass stays normalized after every
    round, every kept voter beats one half, perfect windows stop a round
    early, and a reseeded end-to-end run is byte-identical."""
    sum_drift = 0.0
    beta_ok = True
    rounds = 0
    for seed in range(5):
        spec = StreamSpec(n_chunks=3, chunk_size=80, dimensionality=5, noise=0.1, seed=seed)
        for chunk in generate_stream(spec):
            reduced = reduce_chunk(chunk, 3)
            config = LearnPPConfig(seed=seed)
            hyps, final = run_round(
                reduced.features, reduced.labels, init_weights(len(reduced)), config,
                np.random.default_rng(seed),
            )
            rounds += 1
            sum_drift = max(sum_drift, abs(float(final.weights.sum()) - 1.0))
            for hyp in hyps:
                if not (0.0 < hyp.normalized_error < 1.0):
                    beta_ok = False

    gen = np.random.default_rng(606)
    clean = two_cluster_window(40, 3, gen, gap=8.0, spread=0.4)
    config = LearnPPConfig(n_estimators=3, knn=KnnConfig(k=1), seed=0)
    early_hyps, _ = run_round(*clean, init_weights(40), config, np.random.default_rng(0))
    early_stopped = len(early_hyps) == 1

    spec = StreamSpec(n_chunks=4, chunk_size=150, dimensionality=6, noise=0.05, seed=2)
    chunks = generate_stream(spec)
    run_config = RunConfig(learnpp=LearnPPConfig(seed=9), pc_count=3)
    sink_a, sink_b = [], []
    reports_a = run_experiment(chunks[0], chunks[1:], run_config, record_sink=sink_a.append)
    reports_b = run_experiment(chunks[0], chunks[1:], run_config, record_sink=sink_b.append)
    deterministic = reports_a == reports_b and repr(sink_a) == repr(sink_b)

    ok = sum_drift <= 1e-9 and beta_ok and early_stopped and deterministic
    emit(capsys, ok, "training invariants",
         f"{rounds} rounds: max weight-sum drift {sum_drift:.2e}, "
         f"all betas in (0,1)={beta_ok}, early stop={early_stopped}, "
         f"reseeded run identical={deterministic}")
    assert sum_drift <= 1e-9
    assert beta_ok
    assert early_stopped
    assert deterministic


def test_drift_pattern_reproduction(capsys):
    """Scaled qualitative pattern on a synthetic stream: high F1 on the four
    stationary adaptive chunks, a collapse of at least 0.20 on the chunk
    where the boundary rotates, and exactly one alarm, inside two minutes."""
    started = time.perf_counter()
    spec = StreamSpec(
        n_chunks=6,
        chunk_size=2000,
        dimensionality=20,
        noise=0.05,
        seed=24,
        drift=DriftSpec("sudden", at_chunk=5, magnitude=1.0),
    )
    chunks = generate_stream(spec)
    config = RunConfig(learnpp=LearnPPConfig(seed=0), pc_count=10)
    reports = run_experiment(chunks[0], chunks[1:], config)
    elapsed = time.perf_counter() - started

    adaptive = reports[1:]
    steady = [r.f1 for r in adaptive[:4]]
    drifted = adaptive[4].f1
    gap = sum(steady) / 4 - drifted
    alarms = [r.chunk_id for r in reports if r.drift_alarm]

    steady_ok = all(f >= 0.90 for f in steady)
    gap_ok = gap >= 0.20
    alarm_ok = alarms == [adaptive[4].chunk_id]
    time_ok = elapsed < 120.0
    ok = steady_ok and gap_ok and alarm_ok and time_ok
    emit(capsys, ok, "drift pattern reproduction",
         f"steady f1={'/'.join(f'{f:.4f}' for f in steady)} (each >=0.90: {steady_ok}), "
         f"drifted f1={drifted:.4f} gap={gap:.4f} (>=0.20: {gap_ok}), "
         f"alarms={alarms} (exactly the drifted chunk: {alarm_ok}), {elapsed:.0f}s (budget 120s)")
    assert gap_ok, f"f1 gap {gap:.4f} under the drifted chunk must reach 0.20"
    assert alarm_ok, f"expected one alarm on the drifted chunk, got {alarms}"
    assert time_ok, f"runtime {elapsed:.0f}s exceeds the two-minute budget"
    assert steady_ok, f"every stationary adaptive chunk needs f1 >= 0.90, got {steady}"


def test_finite_memory_contract(capsys):
    """With a four-window ensemble cap over a 50-chunk stream, the
    hypothesis count stays within cap * n_estimators and the buffer never
    outgrows the window, checked after every single instance."""
    spec = StreamSpec(n_chunks=51, chunk_size=50, dimensionality=4, noise=0.0, seed=12)
    chunks = generate_stream(spec)
    config = LearnPPConfig(
        n_estimators=3,
        window_size=50,
        max_window_ensembles=4,
        knn=KnnConfig(k=1),
        seed=0,
    )
    model = LearnPPModel(config)
    initial = reduce_chunk(chunks[0], 3)
    model.fit_initial(initial.features, initial.labels)

    hyp_cap = 4 * config.n_estimators
    max_hyps = len(model.hypotheses)
    max_buffer = 0
    violations = 0
    for chunk in chunks[1:]:
        reduced = reduce_chunk(chunk, 3)
        for x, label in zip(reduced.features, reduced.labels):
            predicted = model.predict(x[None])[0][0]
            model.partial_fit(x[None], [label], [predicted == label])
            max_hyps = max(max_hyps, len(model.hypotheses))
            max_buffer = max(max_buffer, model.buffer_size)
            if len(model.hypotheses) > hyp_cap or model.buffer_size > config.window_size:
                violations += 1
    ok = violations == 0
    emit(capsys, ok, "finite memory contract",
         f"50 chunks: peak hypotheses {max_hyps} (cap {hyp_cap}), "
         f"peak buffer {max_buffer} (cap {config.window_size}), {violations} violations")
    assert violations == 0
    assert model.windows_completed == 51


def test_test_then_train_integrity(capsys):
    """Flipping a sentinel instance's label leaves that instance's own
    recorded prediction untouched; only later model states may move."""
    sentinel = 60

    def build(flip):
        gen = np.random.default_rng(77)
        labels = gen.integers(0, 2, 200)
        labels[0], labels[1] = 0, 1
        rows = gen.normal(size=(200, 4))
        rows[:, 0] += labels * 6.0
        if flip:
            labels = labels.copy()
            labels[sentinel] = 1 - labels[sentinel]
        return Chunk("watched", rows, labels)

    config = RunConfig(learnpp=LearnPPConfig(seed=0, window_size=25), pc_count=2)
    initial = Chunk(
        "initial",
        np.random.default_rng(5).normal(size=(200, 4))
        + np.repeat(np.arange(200) % 2, 4).reshape(200, 4) * 6.0,
        np.arange(200) % 2,
    )
    model_a, first_a, _ = pretrain(initial, config)
    _, records_a = process_chunk(model_a, build(flip=False), config, [first_a])
    model_b, first_b, _ = pretrain(initial, config)
    _, records_b = process_chunk(model_b, build(flip=True), config, [first_b])

    prior_same = records_a[:sentinel] == records_b[:sentinel]
    own_same = (
        records_a[sentinel].predicted == records_b[sentinel].predicted
        and records_a[sentinel].score == records_b[sentinel].score
    )
    truth_moved = records_a[sentinel].truth != records_b[sentinel].truth
    ok = prior_same and own_same and truth_moved
    emit(capsys, ok, "test-then-train integrity",
         f"sentinel at {sentinel}: earlier records identical={prior_same}, "
         f"own prediction unchanged={own_same}, truth flip recorded={truth_moved}")
    assert prior_same
    assert own_same
    assert truth_moved
