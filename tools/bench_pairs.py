"""Alternating before/after benchmark pairs, summarised into one JSON file.

    python3 tools/bench_pairs.py --before DIR --after DIR --workload cli \
        --seeds 601-610 --out BENCH_<n>.json

DIR is the root of a source checkout of each side. Pair k runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` once in
each checkout, the "before" side first in even-numbered pairs and second in
odd ones, so a slow drift of the machine does not favour one side. T is the
``run_seconds`` of the "after" side's ``BENCHMARK.json``. The runs
of a workload go under ``workloads.W`` of the output file, next to any other
workload already in it, with every run's end-to-end metrics, the git SHA,
the tree of ``src/``, the Python and numpy versions of each side, and per
metric the median and quartiles of each side, the number of pairs in which
"after" is better, the metric's ``bound`` from ``BENCHMARK.json`` and
``worse_beyond_bound``: whether the "after" median is worse than the
"before" median by more than bound x the "before" median, and
``unresolved``: whether the "before" runs spread wider than the bound (their
interquartile range exceeds bound x their median) while not every "after" run
is better than every "before" run; such a metric is neither a gain nor
unchanged. Per side it records ``failed_share``, the failed share of all
operations attempted, and ``not_correct_runs``, the number of runs whose
checks failed. Quartiles are ``statistics.quantiles(n=4, method="inclusive")``.
Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {root} failed:\n{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(root, "bench", "out", f"result-{workload}-seed{seed}-trace0.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: m["value"] for k, m in summary["metrics"].items()},
        "versions": {k: doc[k] for k in ("git_sha", "python", "numpy", "nproc")},
    }


def src_tree(root: str) -> str | None:
    """Git tree id of the committed src/ of a checkout (None outside git)."""
    proc = subprocess.run(["git", "rev-parse", "HEAD:src"], cwd=root, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def side_health(runs: list[dict], side: str) -> dict:
    """Failed share of the operations one side attempted, and its runs not ``correct``."""
    attempted = sum(r[side]["attempted"] for r in runs)
    return {
        "failed_share": sum(r[side]["failed"] for r in runs) / (attempted or 1),
        "not_correct_runs": sum(not r[side]["correct"] for r in runs),
    }


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric summary; ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``."""
    out = {}
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        before = [r["before"]["metrics"][name] for r in runs]
        after = [r["after"]["metrics"][name] for r in runs]
        wins = sum((a > b) if better == "higher" else (a < b) for a, b in zip(after, before))
        b, a = spread(before), spread(after)
        worse_by = a["median"] - b["median"] if better == "lower" else b["median"] - a["median"]
        all_after_better = min(after) > max(before) if better == "higher" else max(after) < min(before)
        out[name] = {
            "better": better,
            "before": b,
            "after": a,
            "after_better_pairs": wins,
            "pairs": len(runs),
            "median_gap_over_before_iqr": abs(a["median"] - b["median"]) / (b["q3"] - b["q1"] or 1e-300),
            "bound": bound,
            "worse_beyond_bound": worse_by > bound * abs(b["median"]),
            "unresolved": b["q3"] - b["q1"] > bound * abs(b["median"]) and not all_after_better,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="checkout of the parent commit")
    parser.add_argument("--after", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 601-610 or 1,4,7")
    parser.add_argument("--out", required=True, help="JSON file to write or extend")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("--seeds: quartiles need at least two pairs")

    with open(os.path.join(args.after, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    sides = {"before": args.before, "after": args.after}
    runs = []
    for k, seed in enumerate(seeds):
        order = ("before", "after") if k % 2 == 0 else ("after", "before")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, seconds)
            print(f"{args.workload} seed {seed} {side}: {pair[side]['metrics']}", file=sys.stderr)
        runs.append(pair)

    doc = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["workloads"][args.workload] = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {seconds:g} --trace 0",
        "sides": {side: {"src_tree": src_tree(root), **runs[0][side]["versions"],
                         **side_health(runs, side)}
                  for side, root in sides.items()},
        "summary": summarise(runs, benchmark["end_to_end"]),
        "runs": [{"seed": r["seed"], "first": r["first"],
                  **{s: {k: v for k, v in r[s].items() if k != "versions"} for s in sides}}
                 for r in runs],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
