"""Run the benchmark over several seeds per workload, report the spread of
every end-to-end metric against its bound, and write the results as a
baseline that later changes diff against.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Seeds are interleaved across workloads, so a slow spell on the machine hits
every workload alike. Each workload also gets one traced run, on its first
seed, for the per-layer split. The spread of a metric is the distance
between the first and third quartile of its per-seed values, as a share of
their median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    first, last = text.split("-")
    return list(range(int(first), int(last) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("records.jsonl sha256="):
            result["records_sha256"] = line.split("=", 1)[1].split()[0]
        elif line.startswith("machine: "):
            result["machine"] = json.loads(line[len("machine: "):])
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="range of seeds, first-last")
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    # traced runs first, so that a failing layer check shows before the long part
    traced = {w: bench(w, seeds[0], seconds, 1) for w in workloads}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result = bench(workload, seed, seconds, 0)
            runs[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4f} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} {values}", flush=True)

    baseline = {"run_seconds": seconds, "machine": runs[workloads[0]][0]["machine"], "workloads": {}}
    worst = 0.0
    for workload in workloads:
        entry = {"seeds": seeds, "records_sha256": {}, "end_to_end": {}}
        for seed, result in zip(seeds, runs[workload]):
            entry["records_sha256"][str(seed)] = result["records_sha256"]
        for name, bound in bounds.items():
            summary = summarize([r["metrics"][name]["value"] for r in runs[workload]])
            summary["bound"] = bound
            entry["end_to_end"][name] = summary
            ratio = summary["spread"] / bound
            worst = max(worst, ratio)
            flag = "" if ratio < 1 / 3 else "  <-- spread above a third of the bound"
            print(f"{workload:15s} {name:13s} median={summary['median']:.4f} "
                  f"spread={summary['spread']:.4f} bound={bound}{flag}")
        entry["per_layer"] = {"seed": seeds[0], **{k: v["value"] for k, v in traced[workload]["metrics"].items()}}
        if traced[workload]["records_sha256"] != entry["records_sha256"][str(seeds[0])]:
            raise SystemExit(f"{workload}: traced run wrote different records")
        baseline["workloads"][workload] = entry
    print(f"largest spread as a share of its bound: {worst:.3f}")

    if args.out:
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
