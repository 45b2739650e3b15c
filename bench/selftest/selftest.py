"""Self-test of the benchmark: tiny runs, a broken output, the known fault, a bare directory.

    python3 bench/selftest/selftest.py

Runs each workload for one small round, untraced and traced, and checks the
result shape against BENCHMARK.json. Then checks that the correctness gate
catches a deliberately perturbed output in each workload, that the
fault-probe states of ``decisions`` are counted as failed operations (also
when they raise) rather than stopping the run, and that the benchmark exits
without a result in a directory holding only BENCHMARK.json and bench/.
Exits 1 if any check fails. Takes about half a minute.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

isp = run.import_package()

from timing import Recorder  # noqa: E402
from workloads import cli, decisions  # noqa: E402

SEED = 5
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_shape(doc: dict, trace: bool) -> None:
    out = run.summary(doc)
    wanted = spec()["per_layer" if trace else "end_to_end"]
    expect(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{doc['workload']}: result keys")
    names = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    expect(got == names, f"{doc['workload']} trace={int(trace)}: metric names and units match BENCHMARK.json")
    bad = [k for k, v in out["metrics"].items() if not isinstance(v["value"], (int, float))]
    expect(not bad, f"{doc['workload']} trace={int(trace)}: every metric has a number {bad}")
    json.loads(json.dumps(out))


def tiny(workload: str, trace: bool = False) -> dict:
    return run.run(workload, SEED, 0.0, trace, tiny=True)


@dataclasses.dataclass
class patched:
    """Replace infospace.<name> for the duration of a with-block."""

    name: str
    wrapper: object

    def __enter__(self):
        self.original = getattr(isp, self.name)
        setattr(isp, self.name, self.wrapper(self.original))

    def __exit__(self, *exc):
        setattr(isp, self.name, self.original)


def test_tiny_runs() -> None:
    for workload in run.WORKLOADS:
        doc = tiny(workload)
        expect(doc["correct"], f"{workload}: tiny run passes its checks {doc['errors'][:3]}")
        expect(doc["attempted"] >= 1, f"{workload}: attempted {doc['attempted']}")
        if workload != "decisions":
            expect(doc["failed"] == 0, f"{workload}: no failed operations")
        check_shape(doc, False)
    doc = tiny("decisions", trace=True)
    expect(doc["correct"], f"decisions traced: passes its checks {doc['errors'][:3]}")
    check_shape(doc, True)


def test_perturbed_outputs() -> None:
    def shift(field):
        def wrapper(f):
            def wrapped(*a, **k):
                out = f(*a, **k)
                return dataclasses.replace(out, **{field: getattr(out, field) + 1e-6})
            return wrapped
        return wrapper

    with patched("measure_report", shift("s_total")):
        doc = tiny("spectra")
    expect(not doc["correct"], "spectra: an entropy off by 1e-6 fails the gate")

    with patched("formation_point", shift("q")):
        doc = tiny("decisions")
    expect(not doc["correct"], "decisions: a formation point off by 1e-6 fails the gate")

    plan = cli.setup(SEED, tiny=True)
    item = plan["rounds"][0][0]  # entropy --state
    code, _, stderr = cli.run_child(cli.command(item), item["stdout"])
    rec = Recorder()
    cli.check(item, code, stderr, rec)
    expect(not rec.errors, f"cli: untouched output passes {rec.errors[:2]}")
    path = os.path.join(ROOT, item["stdout"])
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["s_total"] = float(f"{doc['s_total'] * (1 + 1e-7):.9g}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    rec = Recorder()
    cli.check(item, code, stderr, rec)
    expect(bool(rec.errors), "cli: an S off in the 7th digit fails the gate")


def test_fault_states() -> None:
    faults = decisions.fault_states()
    wrong = []
    for case in faults:
        out = decisions._run(case, Recorder())
        if decisions._wrong(case, out):
            wrong.append(out["verdict"])
    doc = tiny("decisions")
    expect(doc["correct"], "decisions: fault-probe states do not break the gate")
    expect(doc["failed"] == len(wrong), f"decisions: {doc['failed']} failed, {len(wrong)} fault-probe states wrong")
    expect(set(doc["failed_kinds"]) <= {"fault-probe"}, f"decisions: failed kinds {doc['failed_kinds']}")
    expect(all(v == "no" for v in wrong), f"decisions: every wrong fault-probe verdict is a false 'no' {wrong}")

    probes = {id(case.rho.matrix) for case in faults}

    def crash_on_probe(f):
        def wrapped(rho, *a, **k):
            if id(rho.matrix) in probes:
                raise ArithmeticError("injected")
            return f(rho, *a, **k)
        return wrapped

    plan = decisions.setup(SEED, tiny=True)
    plan["faults"] = faults
    rec = Recorder()
    with patched("classify", crash_on_probe):
        decisions.run_round(plan, 0, rec)
    expect(rec.failed == len(faults) and not rec.errors,
           f"decisions: raising fault-probe states count as {rec.failed} failed, not a crash")


def test_bare_directory() -> None:
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectra", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0 and not any(line.startswith("{") for line in lines),
           f"bare directory: exit {proc.returncode} without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    test_tiny_runs()
    test_perturbed_outputs()
    test_fault_states()
    test_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
