"""The benchmark results recorded at the root of the repository.

`scripts/record_bench.py` writes one BENCH_<workload>.json per workload:
the end-to-end result of perfbench's timed pass, the per-layer result of
its traced pass, and the commit they measured. Each file must parse,
report correct answers on both passes, and name every end-to-end metric
that BENCHMARK.json declares; star-large, which the benchmark does not
gate, runs no approx query, so it has no approx metric.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {metric["name"] for metric in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
NOT_RUN = {"star-large": {"count.approx_s", "sumprod.approx_s"}}


@pytest.mark.parametrize("workload", ["star-m2m", "cross-real", "star-large"])
def test_bench_file_records_a_correct_run_of_every_metric(workload):
    record = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert record["workload"] == workload
    assert record["end_to_end"]["correct"] is True
    assert record["per_layer"]["correct"] is True
    assert END_TO_END - NOT_RUN.get(workload, set()) <= \
        set(record["end_to_end"]["metrics"])
    assert record["per_layer"]["metrics"]
    assert len(record["measured"]["commit"]) == 40
