"""Run one workload of the spikesparse benchmark and print its metrics.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
prints the per-layer metrics and writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are a readable report.
"""

import os

# BLAS threads are pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    if not (SRC / "spikesparse" / "__init__.py").is_file():
        print(f"perfbench: no spikesparse package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    args = parse_args(argv, bench.WORKLOADS)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    run = bench.Run(bench.WORKLOADS[args.workload], args.seed, args.seconds)
    env = bench.environment(args.seed)
    if args.trace:
        metrics, tracer = run.profile()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "environment": env,
                                 "notes": run.notes})
        print(f"spans: {trace_path}")
    else:
        metrics = run.measure()
    result = bench.result(run.ledger, metrics)
    print(f"workload {args.workload}  environment {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  notes {json.dumps(run.notes, default=float)}")
    print(f"  error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
