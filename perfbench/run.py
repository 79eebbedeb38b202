"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-tenants --seed 1 \\
        --seconds 10 --trace 0

Prints one line per metric with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 1 if any check failed and 2 if the program under
``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: variables that select a non-default engine or make runs write
#: ``BENCH_*.json`` trajectories; the benchmark runs without them
_CLEARED = ("REPRO_EXECUTOR", "REPRO_FUSED_VERIFY")


def _pin_environment() -> None:
    """One BLAS thread and the program's default engine (before numpy
    is imported).  String hashing is fixed too, so that set and dict
    orders, and the work that follows them, repeat from run to run; the
    interpreter restarts itself once to apply it."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    for var in list(os.environ):
        if var in _CLEARED or (var.startswith("REPRO_")
                               and var.endswith("_TRAJECTORY")):
            del os.environ[var]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one "
                     f"of {', '.join(WORKLOADS)}")
    if args.trace:
        result = bench.run_traced(args.workload, args.seed, args.seconds)
    else:
        result = bench.run_untraced(args.workload, args.seed, args.seconds)
    bench.write_result(result, args.workload, args.seed, args.trace)
    for line in bench.describe(result):
        print(line)
    print(result.line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
