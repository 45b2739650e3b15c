"""Benchmark for infospace: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {spectra,decisions,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. The run sets up the workload's seeded inputs, then executes whole
rounds of operations, one at a time in this process, until ``--seconds`` have
passed and at least 100 operations are timed. Every output is checked. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, from spans recorded around each call into the package. A traced run
also runs one small round of each other workload, so that every per-layer
metric has a value; the result file names those that came from such rounds.

The full result (with platform details, the end-to-end metrics of traced
runs and any check failures) goes to ``bench/out/``, spans of traced runs
beside it.
"""

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# One process, one operation at a time: no BLAS worker threads, here or in
# any child (they inherit the environment). Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402

import metrics  # noqa: E402
from timing import Recorder  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("spectra", "decisions", "cli")
MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
SETUP_REPEATS = 3


def import_package():
    """Import infospace from this checkout's src/, or exit without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "infospace", "__init__.py")):
        sys.exit(f"bench: no infospace sources under {src}")
    sys.path[:0] = [src, BENCH]
    import infospace

    if os.path.dirname(os.path.dirname(os.path.abspath(infospace.__file__))) != src:
        sys.exit(f"bench: imported infospace from {infospace.__file__}, not from {src}")
    return infospace


def workload_module(name: str):
    return importlib.import_module(f"workloads.{name}")


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(workload: str, seed: int, repeats: int) -> float:
    """Median wall time of a complete set-up (import, inputs, warm-up) in fresh interpreters."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"bench: set-up of {workload} failed:\n{proc.stderr.strip()[-2000:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_rounds(module, plan, rec, seconds: float, min_ops: int, max_rounds: int | None) -> int:
    """Whole rounds until the time is used and enough operations are timed.

    A new round starts only if the last one would still fit in ``seconds``,
    unless fewer than ``min_ops`` operations have run.
    """
    start = time.perf_counter()
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        began = time.perf_counter()
        module.run_round(plan, rounds, rec)
        rec.end_round()
        rounds += 1
        now = time.perf_counter()
        if rec.attempted >= min_ops and now - start + (now - began) > seconds:
            break
    return rounds


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full result document."""
    module = workload_module(workload)
    setup_s = measure_setup(workload, seed, 1 if tiny else SETUP_REPEATS)
    plan = module.setup(seed, tiny=tiny)
    module.warm_up(plan, Recorder())
    rec = Recorder(trace=trace, workload=workload)
    rounds = run_rounds(module, plan, rec, seconds, 1 if tiny else MIN_OPS, 1 if tiny else None)
    if hasattr(module, "peak_rss_kib"):
        peak = module.peak_rss_kib(plan)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    e2e = metrics.end_to_end(rec.op_ms, setup_s, peak)
    spans, fill_errors = [], []
    if trace:
        if workload == "cli":
            module.probe_startup(rec)
        fills = []
        for other in WORKLOADS:
            if other == workload:
                continue
            other_module = workload_module(other)
            fill = Recorder(trace=True, workload=other)
            run_rounds(other_module, other_module.setup(seed, tiny=True), fill, 0.0, 1, 1)
            if other == "cli":
                other_module.probe_startup(fill)
            fill_errors += [f"fill-in {other}: {e}" for e in fill.errors]
            fills.extend(fill.finished_spans())
        own = rec.finished_spans()
        layers, filled = metrics.merge_layers(metrics.layer_metrics(own), metrics.layer_metrics(fills))
        spans = own + fills
    errors = rec.errors + fill_errors
    doc = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": rounds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "correct": not errors,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failed_kinds": sorted(set(rec.failed_kinds)),
        "errors": errors[:50],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "op_ms_by_round": rec.rounds(),
    }
    if trace:
        doc["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        doc["per_layer_from_fill_in"] = filled
    doc["spans"] = [dataclasses.asdict(s) for s in spans]
    return doc


def summary(doc: dict) -> dict:
    """The last output line: end-to-end metrics, or per-layer ones when traced."""
    chosen = doc["per_layer"] if doc["trace"] else doc["end_to_end"]
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": chosen,
    }


def save(doc: dict) -> str:
    os.makedirs(OUT, exist_ok=True)
    stem = f"{doc['workload']}-seed{doc['seed']}-trace{int(doc['trace'])}"
    spans = doc.pop("spans")
    if spans:
        with open(os.path.join(OUT, f"spans-{stem}.jsonl"), "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    path = os.path.join(OUT, f"result-{stem}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = save(doc)
    for name, m in doc["end_to_end"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {doc['attempted']}, failed = {doc['failed']}, "
          f"rounds = {doc['rounds']}, correct = {doc['correct']}; details in {os.path.relpath(path, ROOT)}")
    for err in doc["errors"][:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(summary(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
