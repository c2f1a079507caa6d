"""Checks of the benchmark itself, on a workload small enough for a unit test."""

import inspect
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import bench  # noqa: E402
import reference  # noqa: E402
import relagg  # noqa: E402
import timing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload(
    "tiny", tables=3, rows=12, keys=3, integers=True, threshold=60,
    queries=tuple(workloads.QUERY_KINDS), why="unit tests",
)


@pytest.fixture
def quick_timing(monkeypatch):
    """One call per sample, one pass, and a calibration loop that costs nothing."""
    monkeypatch.setattr(timing, "calibration_loop", lambda: timing.CAL_NOMINAL_S)
    monkeypatch.setattr(timing, "SAMPLE_S", 1e-9)
    monkeypatch.setattr(bench, "MIN_PASSES", 1)


@pytest.fixture
def tiny(tmp_path):
    workloads.write_inputs(TINY, 5, tmp_path)
    return tmp_path, reference.compute(tmp_path)["answers"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_for_a_seed(name, tmp_path):
    w = workloads.WORKLOADS[name]
    assert workloads.make_tables(w, 3) == workloads.make_tables(w, 3)
    assert workloads.make_tables(w, 3) != workloads.make_tables(w, 4)
    workloads.write_inputs(w, 3, tmp_path / "a")
    workloads.write_inputs(w, 3, tmp_path / "b")
    digests = {reference.inputs_digest(tmp_path / d) for d in "ab"}
    assert len(digests) == 1


def test_reference_partition_by_key_matches_whole_join(tiny):
    work, answers = tiny
    db, specs = reference.load_inputs(work)
    for name, answer in answers.items():
        assert answer == relagg.oracle_eval(db, specs[name])


def test_correct_reference_gives_full_correct_frac(tiny, quick_timing):
    work, answers = tiny
    result, _ = bench.timed_run(TINY, work, answers, seconds=0)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["correct_frac"]["value"] == 1.0
    assert result["attempted"] == len(TINY.queries)


def test_wrong_reference_drives_correct_frac_below_one(tiny, quick_timing):
    work, answers = tiny
    wrong = dict(answers, **{"sumprod.exact": answers["sumprod.exact"] + 1})
    result, diagnostics = bench.timed_run(TINY, work, wrong, seconds=0)
    assert not result["correct"]
    assert result["failed"] == 1   # the exact query; approx is checked within eps
    assert result["metrics"]["correct_frac"]["value"] < 1.0
    assert diagnostics["errors"]


def test_query_exception_counts_as_failure(tiny, quick_timing, monkeypatch):
    work, answers = tiny

    def broken(db, spec, instr=None):
        raise relagg.QueryRejected("broken on purpose")

    monkeypatch.setattr(relagg, "run_query", broken)
    result, _ = bench.timed_run(TINY, work, answers, seconds=0)
    assert result["failed"] == result["attempted"] == len(TINY.queries)


def _bindings():
    """Every function bound in relagg's modules, and the checked constructors."""
    found = {}
    for module in [relagg] + [getattr(relagg, m) for m in tracing.LAYERS]:
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj):
                found[(module.__name__, attr)] = obj
    for cls in tracing.VALIDATORS.values():
        found[(cls.__name__, "__post_init__")] = cls.__post_init__
    return found


def test_traced_pass_restores_every_function(tiny, tmp_path):
    work, answers = tiny
    before = _bindings()
    spans = tmp_path / "spans.jsonl"
    result, diagnostics = bench.traced_run(TINY, work, answers, spans)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)
    assert result["correct"]
    metrics = result["metrics"]
    assert metrics["multiset.ms_union.calls"]["value"] > 0
    assert metrics["sketch.ms_sketch.calls"]["value"] > 0
    assert metrics["tables.rows"]["value"] == TINY.tables * TINY.rows
    assert diagnostics["spans"] == len(spans.read_text().splitlines())


def test_traced_counts_repeat_exactly(tiny, tmp_path):
    work, answers = tiny
    runs = [bench.traced_run(TINY, work, answers, tmp_path / f"{i}.jsonl")[0]
            for i in range(2)]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]


def test_one_calibration_factor_scales_every_metric_alike(monkeypatch):
    monkeypatch.setattr(timing, "calibration_loop", lambda: 2 * timing.CAL_NOMINAL_S)
    samples = [timing.take_sample(lambda: sum(range(n)), 3)[0] for n in (10, 10_000)]
    for sample in samples:
        assert sample.value == pytest.approx(sample.raw_s / 2)
    a, b = (timing.Sample(raw, 0.07) for raw in (0.2, 3.0))
    assert a.value / a.raw_s == pytest.approx(b.value / b.raw_s)


def test_short_calls_are_batched_into_long_samples():
    assert timing.batch_size(0.001) * 0.001 >= timing.SAMPLE_S
    assert timing.batch_size(30.0) == 1


def test_calibration_time_is_not_counted_in_the_sample(monkeypatch):
    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return seconds

    def call():   # 20 ms of work with one 50 ms calibration tick inside
        spin(0.01)
        signal.raise_signal(signal.SIGALRM)
        spin(0.01)

    monkeypatch.setattr(timing, "TICK_S", 60.0)
    monkeypatch.setattr(timing, "calibration_loop", lambda: spin(0.05))
    sample, _ = timing.take_sample(call, 1)
    assert 0.015 < sample.raw_s < 0.04


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "star-m2m",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
