"""Prequential benchmark for driftpp.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload reference --seed 1 --seconds 60 --trace 0

Generates the workload's stream from the seed with `driftpp generate`, then
runs `driftpp run` on it repeatedly, each time in a fresh interpreter, until
the time budget is spent. Prints every metric by name and unit, checks the
outputs, and ends with one JSON line: end-to-end metrics with --trace 0, the
per-layer split by module with --trace 1. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# one BLAS/OpenMP thread per child: the pipeline is single-process, and two
# commits must be measured under the same thread budget
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# set-ups made up front; measure() adds one before each round of runs
SETUP_REPEATS = 4
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 150

_REFERENCE_STREAM = {
    "n_chunks": 6,
    "chunk_size": 700,
    "dimensionality": 20,
    "noise": 0.05,
    "drift_kind": "sudden",
    "drift_at_chunk": 5,
}

# Row counts are scaled down from the acceptance stream (6 x 2000 rows) so
# that every run repeats its workload several times within the time budget.
# A long stream of many small chunks is not a workload: its timings spread
# too much from one invocation to the next to be compared under the bounds.
# Why each workload was chosen is recorded in BENCHMARK.json and the README.
WORKLOADS = {
    "reference": {
        "stream": _REFERENCE_STREAM,
        "run": {"pc_count": 10},
    },
    "sliding_window": {
        "stream": _REFERENCE_STREAM,
        "run": {"pc_count": 10, "window_size": 200, "max_window_ensembles": 5},
    },
}

END_TO_END_UNITS = {
    "run_s": "s",
    "late_chunk_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "f1_mean": "ratio",
    "auc_mean": "ratio",
}

# per-layer metrics that count work; they must repeat exactly between runs
LAYER_COUNTS = (
    "data.rows_read",
    "learnpp.predict_calls",
    "learnpp.rounds",
    "learnpp.rounds_failed",
    "learnpp.candidates_tried",
    "learnpp.candidates_accepted",
    "learnpp.rescore_rows",
    "learnpp.ensemble_size",
    "learnpp.hypotheses_pruned",
    "knn.fit_calls",
    "knn.predict_calls",
    "knn.query_rows",
    "knn.distance_cells",
)
# layer metrics that may read zero on a healthy run; pruning only runs when
# the workload caps the number of window ensembles
MAY_BE_ZERO = {"learnpp.rounds_failed", "learnpp.hypotheses_pruned"}


class CheckFailed(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("DRIFTPP_LOG", None)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(args: list[str], env: dict[str, str]) -> float:
    """Run a child interpreter to completion; return its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    # driftpp exits 2 on success with a drift alarm
    if proc.returncode not in (0, 2):
        raise CheckFailed(f"{' '.join(args[:4])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return elapsed


def _write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()), encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stream_setup(workload: dict, seed: int, work: Path,
                 env: dict[str, str]) -> tuple[Path, list[float], Callable[[], None]]:
    """Return the directory the stream is generated into, the list of set-up
    wall times, and a function that generates the stream once more and
    appends its time. Every copy must be byte-identical to the first."""
    stream_cfg = work / "stream.cfg"
    _write_config(stream_cfg, {**workload["stream"], "seed": seed})
    stream_dir = work / "stream"
    times: list[float] = []
    first: list[dict] = []

    def set_up() -> None:
        out = stream_dir if not times else work / "stream_again"
        times.append(_run_child(
            ["-m", "driftpp.cli", "generate", "--config", str(stream_cfg), "--out", str(out)], env,
        ))
        chunks = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["chunks"]
        if not first:
            first.extend(chunks)
        elif chunks != first:
            raise CheckFailed("driftpp generate wrote different streams for the same seed")

    return stream_dir, times, set_up


def run_once(run_cfg: Path, work: Path, rep: int, trace: bool, env: dict[str, str]) -> dict:
    out = work / f"out{rep}"
    result_path = work / f"result{rep}.json"
    _run_child(
        [str(HERE / "child.py"), str(SRC), str(result_path), "1" if trace else "0",
         "run", "--config", str(run_cfg), "--out", str(out)], env,
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["exit_code"] not in (0, 2):
        raise CheckFailed(f"driftpp run exited {result['exit_code']}")
    result["records_sha256"] = _sha256(out / "records.jsonl")
    result["reports_sha256"] = _sha256(out / "reports.csv")
    result["out"] = out
    result["trace"] = trace
    return result


def check_outputs(stream_dir: Path, out: Path) -> list[list[str]]:
    """Check one run's outputs against its inputs and the library's metric
    functions; return the rows of reports.csv."""
    sys.path.insert(0, str(SRC))
    from driftpp.adaptive import RunConfig, drift_alarm
    from driftpp.core import PredictionRecord
    from driftpp.errors import UndefinedAUC
    from driftpp.metrics import auc, confusion, f1, fnr

    chunks = json.loads((stream_dir / "manifest.json").read_text(encoding="utf-8"))["chunks"]
    with (out / "records.jsonl").open(encoding="utf-8") as fh:
        in_order = [PredictionRecord(**json.loads(line)) for line in fh]
    grouped: dict[str, list[PredictionRecord]] = {}
    for record in in_order:
        grouped.setdefault(record.chunk_id, []).append(record)

    arrived = [(r.chunk_id, r.index, int(r.truth)) for r in in_order]
    expected_arrival = []
    for chunk in chunks:
        lines = (stream_dir / chunk["file"]).read_text(encoding="utf-8").splitlines()[1:]
        expected_arrival.extend(
            (Path(chunk["file"]).stem, i, int(line.rsplit(",", 1)[1])) for i, line in enumerate(lines)
        )
    if arrived != expected_arrival:
        raise CheckFailed("records.jsonl is not one record per input instance, in arrival order, "
                          "with the input's labels")

    config = RunConfig()  # the workloads keep the default alarm settings
    expected = [["id", "f1", "auc", "fnr", "correct", "incorrect", "percent_correct", "drift_alarm"]]
    baseline: list[float] = []
    for chunk_id, records in grouped.items():
        counts = confusion(records)
        try:
            auc_value = auc(records)
        except UndefinedAUC:
            auc_value = math.nan
        f1_value = f1(counts)
        correct, incorrect = counts.tp + counts.tn, counts.fp + counts.fn
        alarm = bool(baseline) and drift_alarm(f1_value, baseline, config)
        expected.append([chunk_id, repr(f1_value), repr(auc_value), repr(fnr(counts)), str(correct),
                         str(incorrect), repr(correct / (correct + incorrect)), "true" if alarm else "false"])
        baseline.append(f1_value)
    rows = [line.split(",") for line in (out / "reports.csv").read_text(encoding="utf-8").splitlines()]
    if rows != expected:
        raise CheckFailed("reports.csv differs from the table recomputed from records.jsonl")
    return rows


def measure(run_cfg: Path, work: Path, seconds: float, trace: bool, env: dict[str, str],
            set_up: Callable[[], None]) -> list[dict]:
    """Repeat the run until the budget is spent, at least MIN_REPEATS times.
    Each round first sets up once more, so that set-up times are sampled
    across the whole budget and not in one spell. A traced budget alternates
    untraced and traced runs."""
    modes = [False, True] if trace else [False]
    results: list[dict] = []
    start = time.perf_counter()
    while True:
        set_up()
        for mode in modes:
            results.append(run_once(run_cfg, work, len(results), mode, env))
        elapsed = time.perf_counter() - start
        rounds = len(results) // len(modes)
        if rounds >= MIN_REPEATS and elapsed + elapsed / rounds > seconds:
            return results


def machine_info() -> dict:
    import numpy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: str(BLAS_THREADS) for var in THREAD_VARS},
    }


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)} min={min(values):.4f} max={max(values):.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "driftpp" / "cli.py").is_file():
        print(f"error: no driftpp sources under {SRC}", file=sys.stderr)
        return 1

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    env = _child_env()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        info = machine_info()
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("machine: " + json.dumps(info))
        stream = workload["stream"]
        print(f"input: {stream['n_chunks']} chunks x {stream['chunk_size']} rows x "
              f"{stream['dimensionality']} dims; run config {json.dumps(workload['run'])}")

        stream_dir, setup_times, set_up = stream_setup(workload, args.seed, work, env)
        for _ in range(SETUP_REPEATS):
            set_up()
        run_cfg = work / "run.cfg"
        adaptive_files = [f"chunk_{i:03d}.csv" for i in range(1, stream["n_chunks"])]
        _write_config(run_cfg, {
            "initial_chunk": f"{stream_dir.name}/chunk_000.csv",
            "chunks": ",".join(f"{stream_dir.name}/{name}" for name in adaptive_files),
            "seed": args.seed,
            **workload["run"],
        })

        results = measure(run_cfg, work, args.seconds, trace, env, set_up)
        shas = {(r["records_sha256"], r["reports_sha256"]) for r in results}
        if len(shas) != 1:
            raise CheckFailed(f"repetitions wrote different outputs: {sorted(shas)}")
        rows = check_outputs(stream_dir, results[0]["out"])
        attempted = sum(len(adaptive_files) for _ in results)
        failed = sum(r["chunk_errors"] + len(adaptive_files) - r["chunks_done"] for r in results)
        print(f"records.jsonl sha256={results[0]['records_sha256']} (identical over {len(results)} runs)")
        print(f"failed_chunk_share {failed / attempted:.4f} ({failed}/{attempted} chunks)")

        if trace:
            metrics = layer_metrics(results, "max_window_ensembles" in workload["run"])
        else:
            plain = [r for r in results if not r["trace"]]
            f1_values = [float(row[1]) for row in rows[2:]]
            auc_values = [float(row[2]) for row in rows[2:]]
            samples = {
                "run_s": [r["run_s"] for r in plain],
                "late_chunk_s": [r["late_chunk_s"] for r in plain],
                "setup_s": setup_times,
                "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            }
            metrics = {name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
                       for name, values in samples.items()}
            metrics["f1_mean"] = {"value": statistics.fmean(f1_values), "unit": END_TO_END_UNITS["f1_mean"]}
            metrics["auc_mean"] = {"value": statistics.fmean(auc_values), "unit": END_TO_END_UNITS["auc_mean"]}
            for name, values in samples.items():
                print(f"{name} {metrics[name]['value']:.4f} {metrics[name]['unit']} (median; {_spread(values)})")
            for name in ("f1_mean", "auc_mean"):
                print(f"{name} {metrics[name]['value']:.6f} ratio (mean over {len(f1_values)} adaptive chunks)")
        correct = failed == 0
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_metrics(results: list[dict], pruning: bool) -> dict:
    """Per-layer metrics from the traced runs: medians for times, and counts
    that must agree exactly across runs. ``pruning`` says whether the
    workload caps the ensemble, so that hypotheses must be pruned."""
    traced = [r["layers"] for r in results if r["trace"]]
    for name in LAYER_COUNTS:
        if len({layers[name] for layers in traced}) != 1:
            raise CheckFailed(f"{name} differs between traced runs: {[t[name] for t in traced]}")
    may_be_zero = MAY_BE_ZERO - ({"learnpp.hypotheses_pruned"} if pruning else set())
    for name, value in traced[0].items():
        if name not in may_be_zero and value <= 0:
            raise CheckFailed(f"layer metric {name} is {value} on a run where its layer ran")
    metrics = {}
    for name in traced[0]:
        value = traced[0][name] if name in LAYER_COUNTS else statistics.median(t[name] for t in traced)
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit}")
    plain_run = statistics.median(r["run_s"] for r in results if not r["trace"])
    traced_run = statistics.median(r["run_s"] for r in results if r["trace"])
    metrics["trace.overhead_s"] = {"value": traced_run - plain_run, "unit": "s"}
    print(f"run_s untraced {plain_run:.4f} s, traced {traced_run:.4f} s; "
          f"trace.overhead_s {traced_run - plain_run:.4f} s over {len(results) - len(traced)} untraced and {len(traced)} traced runs")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
