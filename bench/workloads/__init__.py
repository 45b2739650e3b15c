"""Benchmark workloads. Each module offers ``setup(seed, tiny)`` and ``run_round(plan, index, rec)``."""
