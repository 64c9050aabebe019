"""The repository benchmark: seeded attack pipelines run in-process.

Usage:
    python3 perfbench/run.py --workload desk-taxonomy --seed 0 --seconds 40 --trace 0

One operation is one seeded pass of ``linklab attack --runs 1 --out ...``
through ``linklab.cli.main``, on a graph generated here from ``--seed``.
Operations run one at a time (closed loop) until another would overrun
``--seconds``; at least one always runs. Every operation's ``report.csv`` is
checked (see checks.py) and must match the first operation's byte for
byte, so a fast wrong answer counts as a failure.

``--trace 0`` reports the end-to-end metrics: ``op_s`` (median wall seconds
per operation), ``setup_s`` (median seconds to import the package afresh and
load the dataset) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of tracing.py plus the tracing overhead. The last line of
standard output is the JSON result; the lines before it, starting with
``#``, carry the environment stamp, the samples and the AUCs.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stdout, suppress
from pathlib import Path
from time import perf_counter

import numpy

from checks import auc_changes, report_aucs, report_problems
from inputs import WORKLOADS, write_dataset
from tracing import Tracer, layer_metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
SETUP_PROBES = 15

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_METRIC_UNITS = {
    "report.auc_changed": ("count", "lower"),
    "report.auc_unrecorded": ("count", "lower"),
    "trace.op_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.absent": ("count", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    return {**layer_metric_units(), **RUN_METRIC_UNITS}


def _blas_threads() -> int | None:
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    with redirect_stdout(io.StringIO()):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def measure_setup(dataset: str) -> float:
    """Seconds to import the package afresh and load the dataset.

    This is the set-up before the first pipeline stage, less the start of
    the interpreter and the import of numpy: neither is the repository's
    code, and on a shared host their cost drifts by a quarter and more
    between runs minutes apart.
    """
    for name in [m for m in sys.modules if m == "linklab" or m.startswith("linklab.")]:
        del sys.modules[name]
    started = perf_counter()
    import linklab.cli  # noqa: F401
    from linklab.graph import load_dataset

    load_dataset(dataset)
    return perf_counter() - started


def recorded_aucs(workload: str, seed: int) -> dict[str, float] | None:
    if not BASELINE.is_file():
        return None
    recorded = json.loads(BASELINE.read_text()).get("workloads", {}).get(workload, {})
    return recorded.get("aucs", {}).get(str(seed))


def _median(values) -> float:
    """Median of the samples; 0 when an early failure left none."""
    return statistics.median(values) if values else 0.0


def timed_op(linklab_main, argv, tracer, op_id) -> tuple[float, str | None]:
    """Wall seconds of one pipeline pass, and the error it raised, if any.

    The tracer's wrappers are installed before the clock starts and removed
    after it stops.
    """
    error = None
    with redirect_stdout(io.StringIO()), tracer if tracer is not None else nullcontext():
        started = perf_counter()
        try:
            code = linklab_main(argv) if tracer is None else tracer.run(op_id, linklab_main, argv)
            if code != 0:
                error = f"linklab exited with status {code}"
        except Exception:
            error = traceback.format_exc()
        elapsed = perf_counter() - started
    return elapsed, error


def bench(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    dataset = str(work / "data")
    write_dataset(dataset, workload.graph, seed)
    sys.path.insert(0, str(SRC))
    setup = [] if trace else [measure_setup(dataset) for _ in range(SETUP_PROBES)]
    from linklab.cli import main as linklab_main

    tracer = Tracer() if trace else None
    reference = recorded_aucs(workload.name, seed)
    times: dict[bool, list[float]] = {False: [], True: []}
    layer_runs: list[dict[str, float]] = []
    attempted = failed = 0
    first_report = None
    aucs: dict[str, float] = {}
    started = perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        out = work / f"op{attempted}"
        elapsed, error = timed_op(linklab_main, workload.argv(dataset, seed, str(out)),
                                  tracer if traced else None, attempted)
        attempted += 1
        times[traced].append(elapsed)
        report = out / "report.csv"
        problems = [error] if error else report_problems(
            str(report), workload.attacks, workload.graph.communities)
        if error is None and report.is_file():
            content = report.read_bytes()
            if first_report is None:
                first_report = content
                with suppress(ValueError):
                    aucs = report_aucs(str(report))
            elif content != first_report:
                problems.append("report.csv differs from the first operation at this seed")
        if traced:
            layer_runs.append(tracer.op_metrics())
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            failed += 1
            print(f"operation {attempted - 1} failed: " + "; ".join(problems), file=sys.stderr)
        if error:
            break
        spent = perf_counter() - started
        both_done = not trace or (times[False] and times[True])
        if both_done and spent + statistics.median(times[False] + times[True]) > seconds:
            break

    changed, unrecorded = auc_changes(aucs, reference)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print("# aucs " + json.dumps(aucs, sort_keys=True))
    print(f"# report.auc_changed {changed} (unrecorded {unrecorded})")
    print("# op_s samples " + json.dumps({"untraced": times[False], "traced": times[True]}))
    if trace:
        metrics = {name: _median([run[name] for run in layer_runs])
                   for name in per_layer_units() if name not in RUN_METRIC_UNITS}
        traced_s = _median(times[True])
        metrics.update({
            "report.auc_changed": changed,
            "report.auc_unrecorded": unrecorded,
            "trace.op_s": traced_s,
            "trace.overhead_s": traced_s - _median(times[False]),
            "trace.absent": len(tracer.absent),
        })
        if tracer.absent:
            print("# absent entry points " + " ".join(tracer.absent))
        units = {name: unit for name, (unit, _) in per_layer_units().items()}
    else:
        print("# setup_s samples " + json.dumps(setup))
        metrics = {
            "op_s": _median(times[False]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "linklab" / "__init__.py").is_file():
        print(f"error: no linklab package under {SRC}", file=sys.stderr)
        return 2
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
