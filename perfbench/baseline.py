"""Measure a baseline of the benchmark over several seeds.

    python3 perfbench/baseline.py --seeds 1-10 --sets 2 --out perfbench/baseline.json

Runs perfbench/run.py once per set, seed and workload at the declared
run_seconds, visiting the workloads in turn for each seed so that slow
drift of the host spreads over all of them; then once per workload with
--trace 1.  Writes, per set and workload, each end-to-end metric's values
with their quartiles (Python's statistics.quantiles, n=4) and spread,
(Q3 - Q1) / median, next to the metric's bound; how far each later set's
median moved from the first set's, as a share of the first in the
metric's worse direction; the traced run's per-layer values; and every
run's correct, attempted, failed and duration.  Prints one line per set,
workload and metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()
    return json.loads(out[-1]), json.loads(out[-2])["manifest"], time.perf_counter() - t0


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, as 1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    ap.add_argument("--trace-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    seconds = declared["run_seconds"]
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = seed_list(args.seeds)
    report: dict = {"run_seconds": seconds, "seeds": seeds, "sets": [], "workloads": {}}
    for _ in range(args.sets):
        runs = {w: [] for w in workloads}
        values = {w: {name: [] for name in metrics} for w in workloads}
        for seed in seeds:
            for workload in workloads:
                result, manifest, took = run_once(workload, seed, seconds, 0)
                runs[workload].append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                                       "failed": result["failed"], "iterations": manifest["iterations"],
                                       "run_s": round(took, 2), "raw_medians": manifest["raw_medians"]})
                for name in metrics:
                    values[workload][name].append(result["metrics"][name]["value"])
        one_set = {}
        for workload in workloads:
            end_to_end = {}
            for name, vals in values[workload].items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                end_to_end[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                                    "bound": metrics[name]["bound"], "values": vals}
                print(f"set {len(report['sets']) + 1} {workload:15s} {name:14s} median {med:<12.6g}"
                      f" spread {(q3 - q1) / med:.4f} (bound {metrics[name]['bound']})", flush=True)
            one_set[workload] = {"runs": runs[workload], "end_to_end": end_to_end}
        report["sets"].append(one_set)
    first = report["sets"][0]
    for later in report["sets"][1:]:
        for workload in workloads:
            for name, m in metrics.items():
                a, b = first[workload]["end_to_end"][name]["median"], later[workload]["end_to_end"][name]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                later[workload]["end_to_end"][name]["worse_than_first"] = worse
                print(f"{workload:15s} {name:14s} later set worse by {worse:+.4f} (bound {m['bound']})")
    for workload in workloads:
        traced, manifest, took = run_once(workload, args.trace_seed, seconds, 1)
        report["workloads"][workload] = {
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_run": {"seed": args.trace_seed, "correct": traced["correct"], "attempted": traced["attempted"],
                           "failed": traced["failed"], "run_s": round(took, 2),
                           "absent_wrappers": manifest["absent_wrappers"]},
        }
        report["manifest"] = {k: manifest[k] for k in (
            "nproc", "cpu_model", "l3_cache", "python", "numpy", "git_commit", "src_sha256", "DIGAR_THREADS")}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
