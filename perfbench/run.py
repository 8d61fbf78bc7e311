"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.

Prints the metrics as a table, then the environment, the output checks and,
as the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. Exits non-zero without a result when the package source is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# The metrics BENCHMARK.json gates on; the others are printed only (NOTES.md).
END_TO_END = ("setup_s", "step_s_p50", "samples_per_s", "peak_rss_mb", "run_dir_mb")


def _load_program():
    """Import msrnas from this checkout with BLAS threads pinned to nproc."""
    if not os.path.isfile(os.path.join(SRC, "msrnas", "__init__.py")):
        sys.exit(f"perfbench: no msrnas source under {SRC}")
    # msrnas reads MSRNAS_THREADS before numpy is first imported.
    os.environ["MSRNAS_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, SRC)
    import msrnas

    if os.path.dirname(os.path.dirname(os.path.abspath(msrnas.__file__))) != SRC:
        sys.exit(f"perfbench: msrnas imported from {msrnas.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**31 - 1 or args.seconds <= 0:
        parser.error("--seed must lie in [0, 2^31-1) and --seconds be positive")
    _load_program()
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench.WORKLOADS)}")
    result = bench.run_benchmark(bench.WORKLOADS[args.workload], args.seed,
                                 args.seconds, bool(args.trace), ROOT)
    for name, (value, unit) in result["end_to_end"].items():
        print(f"{args.workload:>14} {name:<36} {value:12.6g} {unit}")
    if args.trace:
        for name, (value, unit) in result["per_layer"].items():
            print(f"{args.workload:>14} {name:<36} {value:12.6g} {unit}")
    print(json.dumps({"env": result["env"], "calls": result["calls"],
                      "steps_timed": result["steps_timed"]}))
    for check in result["checks"]:
        print(f"check {check['name']}: {'ok' if check['ok'] else 'FAILED'} "
              f"({check['detail']})")
    chosen = result["per_layer"] if args.trace else {
        name: result["end_to_end"][name] for name in END_TO_END}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
