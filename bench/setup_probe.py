"""Time one complete set-up of a workload in this fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED

Set-up is ``import infospace``, generating the seeded inputs with their
expected values, and the warm-up pass. Prints the seconds it took.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    run.import_package()
    module = run.workload_module(workload)
    plan = module.setup(seed)
    module.warm_up(plan, run.Recorder())
    print(f"{time.perf_counter() - START:.6f}")


if __name__ == "__main__":
    main()
