"""Record the benchmark's results at the root of the repository.

    python3 scripts/record_bench.py

For each workload W of star-m2m, cross-real and star-large this runs
`python3 perfbench/run.py --workload W --seed 1 --seconds 40 --trace T`
with T = 0 and then T = 1, one run at a time, and writes BENCH_W.json:
the last line of each run's output, the end-to-end result as
"end_to_end" and the per-layer result as "per_layer", and the commit it
measured, with whether tracked files held uncommitted changes. Run it on
an otherwise idle machine; `git log -p BENCH_*.json` is the trajectory.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("star-m2m", "cross-real", "star-large")
SEED, SECONDS = 1, 40


def _output(*command):
    return subprocess.run(command, cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def _run(workload, trace):
    out = _output(sys.executable, "perfbench/run.py", "--workload", workload,
                  "--seed", str(SEED), "--seconds", str(SECONDS),
                  "--trace", str(trace))
    return json.loads(out.splitlines()[-1])


def main():
    measured = {
        "commit": _output("git", "rev-parse", "HEAD").strip(),
        "uncommitted_changes": bool(_output(
            "git", "status", "--porcelain", "--untracked-files=no").strip()),
    }
    for workload in WORKLOADS:
        record = {
            "workload": workload, "seed": SEED, "seconds": SECONDS,
            "measured": measured,
            "end_to_end": _run(workload, 0),
            "per_layer": _run(workload, 1),
        }
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
