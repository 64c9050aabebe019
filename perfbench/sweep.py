"""Run the benchmark over several seeds and summarise each end-to-end metric.

Usage:
    python3 perfbench/sweep.py --workloads cora-sparse,cora-edgerand --seeds 0-9 [--record]

Each (workload, seed) is one fresh ``run.py`` process with the
``run_seconds`` of BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles and the spread: the distance between the quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.

``--record`` also makes one traced run per workload at the first seed and
merges the summaries, every run's AUCs and the traced per-layer metrics into
baseline.json, from which run.py counts ``report.auc_changed``.
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
BASELINE = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict[str, str]]:
    """The result line of one run, and its ``# name value`` lines by name."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    notes = {}
    for line in lines[:-1]:
        if line.startswith("# "):
            name, _, value = line[2:].partition(" ")
            notes[name] = value
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: output check failed: {done.stderr[-2000:]}")
    return result, notes


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--record", action="store_true", help="merge the results into baseline.json")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    baseline = json.loads(BASELINE.read_text()) if args.record and BASELINE.is_file() else {}

    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        aucs = {}
        units = {}
        for seed in seeds:
            result, notes = run_once(workload, seed, seconds, trace=0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            aucs[str(seed)] = json.loads(notes["aucs"])
            baseline["env"] = json.loads(notes["env"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{n} {m['value']:.4g}" for n, m in result["metrics"].items())
                  + f", report.auc_changed {notes['report.auc_changed']}", flush=True)
        summaries = {name: {"unit": units[name], **summarise(v)} for name, v in values.items()}
        for name, s in summaries.items():
            print(f"{workload} {name}: median {s['median']:.4g} {s['unit']}, "
                  f"q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, spread {s['spread']:.3f}", flush=True)
        if args.record:
            # The AUCs go in first, so the traced run counts report.auc_changed
            # against this recording rather than the previous one.
            record = baseline.setdefault("workloads", {})[workload] = {
                "run_seconds": seconds,
                "seeds": seeds,
                "end_to_end": summaries,
                "aucs": aucs,
            }
            BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
            traced, _ = run_once(workload, seeds[0], seconds, trace=1)
            record["per_layer_at_first_seed"] = {n: m["value"] for n, m in traced["metrics"].items()}
            BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
