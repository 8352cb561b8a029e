"""Run one `driftpp run` through `driftpp.cli.main` in this process and write
its timings to a JSON file.

Usage: python3 child.py SRC_DIR RESULT_JSON TRACE CLI_ARG...

SRC_DIR is the checkout's `src` directory, imported ahead of anything
installed. TRACE is 0 or 1. Both modes time `process_chunk` once per chunk,
which is what `late_chunk_s` needs. With TRACE=1 the public functions of
each driftpp module are also wrapped, each patched in the module that looks
the name up, and their busy times and work counts are reported under the
per-layer metric names.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter


class Tracer:
    """Aggregated spans around driftpp's public functions.

    Spans nest through a stack: a span's busy time counts toward its own
    total and toward the nested time of its caller, so self time is the
    total minus the nested time. Only sums are kept, so memory does not grow
    with the number of calls.
    """

    def __init__(self) -> None:
        self.total: Counter[str] = Counter()
        self.nested: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[str] = []
        self._round_models: set[int] | None = None

    def wrap(self, name, fn):
        stack, total, nested, calls = self._stack, self.total, self.nested, self.calls

        def traced(*args, **kwargs):
            stack.append(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                total[name] += elapsed
                calls[name] += 1
                if stack:
                    nested[stack[-1]] += elapsed

        return traced

    def self_time(self, name: str) -> float:
        return self.total[name] - self.nested[name]

    def install(self, driftpp) -> None:
        """Patch every traced name where the pipeline looks it up."""
        cli, adaptive, learnpp, knn = driftpp.cli, driftpp.adaptive, driftpp.learnpp, driftpp.knn
        counts = self.counts

        read = cli.read_chunk_csv

        def counted_read(*args, **kwargs):
            chunk = read(*args, **kwargs)
            counts["data.rows_read"] += len(chunk)
            return chunk

        cli.read_chunk_csv = self.wrap("data.read", counted_read)

        experiment = cli.run_experiment

        def experiment_with_traced_sink(*args, record_sink=None, **kwargs):
            if record_sink is not None:
                record_sink = self.wrap("cli.record_sink", record_sink)
            return experiment(*args, record_sink=record_sink, **kwargs)

        cli.run_experiment = self.wrap("adaptive.run_experiment", experiment_with_traced_sink)

        adaptive.reduce_chunk = self.wrap("adaptive.reduce", adaptive.reduce_chunk)
        adaptive.pca_fit = self.wrap("pca.fit", adaptive.pca_fit)
        adaptive.pca_transform = self.wrap("pca.transform", adaptive.pca_transform)
        adaptive.standardize_chunk = self.wrap("core.standardize", adaptive.standardize_chunk)
        for name in ("confusion", "f1", "fnr", "auc"):
            setattr(adaptive, name, self.wrap("metrics.report", getattr(adaptive, name)))

        learnpp.LearnPPModel.predict = self.wrap("learnpp.predict", learnpp.LearnPPModel.predict)

        round_fn = learnpp.run_round

        def counted_round(*args, **kwargs):
            self._round_models = set()
            try:
                accepted, dist = round_fn(*args, **kwargs)
            except driftpp.errors.RoundFailed:
                counts["learnpp.rounds_failed"] += 1
                raise
            finally:
                self._round_models = None
            counts["learnpp.candidates_accepted"] += len(accepted)
            return accepted, dist

        learnpp.run_round = self.wrap("learnpp.round", counted_round)

        fit = knn.knn_fit

        def counted_fit(*args, **kwargs):
            model = fit(*args, **kwargs)
            if self._round_models is not None:
                self._round_models.add(id(model))
            return model

        learnpp.knn_fit = self.wrap("knn.fit", counted_fit)

        batch = knn.knn_predict_batch

        def counted_batch(model, queries):
            result = batch(model, queries)
            counts["knn.query_rows"] += len(queries)
            counts["knn.distance_cells"] += len(queries) * model.n_points * model.dimensionality
            return result

        traced_batch = self.wrap("knn.predict", counted_batch)
        # knn_predict looks knn_predict_batch up in driftpp.knn
        knn.knn_predict_batch = traced_batch
        rescore = self.wrap("learnpp.rescore", traced_batch)

        def round_batch(model, queries):
            # inside run_round, a model not fit in this round is a prior
            # hypothesis being re-scored on the new window
            if self._round_models is not None and id(model) not in self._round_models:
                counts["learnpp.rescore_rows"] += len(queries)
                return rescore(model, queries)
            return traced_batch(model, queries)

        learnpp.knn_predict_batch = round_batch

    def layer_metrics(self, ensemble_size: int) -> dict[str, float]:
        """Per-layer metric values, keyed by the names BENCHMARK.json uses."""
        total, calls, counts = self.total, self.calls, self.counts
        tried = calls["knn.fit"]
        accepted = counts["learnpp.candidates_accepted"]
        return {
            "data.read_s": total["data.read"],
            "data.rows_read": counts["data.rows_read"],
            "cli.write_s": self.self_time("cli.main") + total["cli.record_sink"],
            "adaptive.reduce_s": total["adaptive.reduce"],
            "pca.fit_s": total["pca.fit"],
            "pca.transform_s": total["pca.transform"],
            "core.standardize_s": total["core.standardize"],
            "learnpp.predict_s": total["learnpp.predict"],
            "learnpp.predict_calls": calls["learnpp.predict"],
            "learnpp.round_s": total["learnpp.round"],
            "learnpp.rounds": calls["learnpp.round"],
            "learnpp.rounds_failed": counts["learnpp.rounds_failed"],
            "learnpp.candidates_tried": tried,
            "learnpp.candidates_accepted": accepted,
            "learnpp.accept_ratio": accepted / tried if tried else 0.0,
            "learnpp.rescore_s": total["learnpp.rescore"],
            "learnpp.rescore_rows": counts["learnpp.rescore_rows"],
            "learnpp.ensemble_size": ensemble_size,
            # hypotheses leave the ensemble only by pruning
            "learnpp.hypotheses_pruned": accepted - ensemble_size,
            "knn.fit_calls": tried,
            "knn.predict_calls": calls["knn.predict"],
            "knn.query_rows": counts["knn.query_rows"],
            "knn.predict_s": total["knn.predict"],
            "knn.distance_cells": counts["knn.distance_cells"],
            "metrics.report_s": total["metrics.report"],
        }


def peak_rss_mb() -> float:
    """Peak resident set size of this process's own address space (VmHWM).
    getrusage's ru_maxrss is not used: exec carries the parent's high-water
    mark into it, which would put a floor under the figure."""
    for line in Path("/proc/self/status").read_text(encoding="utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv: list[str]) -> int:
    src, result_path, trace, cli_args = Path(argv[0]).resolve(), Path(argv[1]), argv[2] == "1", argv[3:]
    sys.path.insert(0, str(src))
    import driftpp
    import driftpp.cli

    if src not in Path(driftpp.__file__).resolve().parents:
        print(f"driftpp imported from {driftpp.__file__}, not from {src}", file=sys.stderr)
        return 1

    adaptive = driftpp.adaptive
    chunk_s: list[float] = []
    chunk_errors = 0
    ensemble_size = 0
    process_chunk = adaptive.process_chunk

    def timed_process_chunk(model, *args, **kwargs):
        nonlocal chunk_errors, ensemble_size
        start = perf_counter()
        report, records = process_chunk(model, *args, **kwargs)
        chunk_s.append(perf_counter() - start)
        chunk_errors += report.error is not None
        ensemble_size = len(model.hypotheses)
        return report, records

    adaptive.process_chunk = timed_process_chunk
    cli_main = driftpp.cli.main
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(driftpp)
        cli_main = tracer.wrap("cli.main", cli_main)

    start = perf_counter()
    exit_code = cli_main(cli_args)
    run_s = perf_counter() - start

    late = chunk_s[-max(1, len(chunk_s) // 5):]
    result = {
        "exit_code": exit_code,
        "run_s": run_s,
        "chunks_done": len(chunk_s),
        "chunk_errors": chunk_errors,
        "late_chunk_s": statistics.median(late) if late else None,
        "peak_rss_mb": peak_rss_mb(),
        "layers": tracer.layer_metrics(ensemble_size) if tracer else None,
    }
    result_path.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
