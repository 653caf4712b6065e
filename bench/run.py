"""Benchmark of the rexl pipeline: one workload per run, one JSON result line.

    python3 bench/run.py --workload serve --seed 1 --seconds 5 --trace 0

Run from the root of a rexl checkout; the program is imported from its
``src`` directory and nowhere else.  Outputs go under ``.bench_out/`` and
are removed when the run ends, except the span file of a traced run.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Progress and failures go to standard error.
A run that prints its result line exits 0; ``correct`` says whether every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# OpenBLAS reads this once, when numpy loads: one thread keeps the process
# on one of the two cores and the figures steady
os.environ["OPENBLAS_NUM_THREADS"] = "1"

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rexl" / "__init__.py").is_file():
        print(f"error: no rexl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports rexl, so only after the path is set

    import rexl
    if Path(rexl.__file__).resolve().parent != SRC / "rexl":
        print(f"error: rexl imported from {rexl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out" / f"run-{args.workload}-s{args.seed}-{os.getpid()}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    try:
        run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed,
                            args.seconds, bool(args.trace), out)
        metrics = run.execute()
    finally:
        shutil.rmtree(out, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": not run.r.problems,
        "attempted": run.r.attempted,
        "failed": run.r.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
