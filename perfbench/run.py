"""Benchmark entry point.

    python3 perfbench/run.py --workload star-m2m --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Generates the workload's tables and queries
from the seed, gets reference answers from the oracle (in a separate
process, cached per seed), then measures. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced pass. See perfbench/README.md.
"""

import argparse
import json
import sys
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description="relagg benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the timed passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced pass")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "relagg" / "__init__.py").is_file():
        print(f"run.py: relagg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # needs relagg on the path

    result, diagnostics = bench.run(args.workload, args.seed, args.seconds,
                                    args.trace, SRC)
    for line in bench.describe(result, diagnostics):
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
