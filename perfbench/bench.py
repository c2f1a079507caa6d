"""Timed and traced passes over one workload, and their report.

Load model: one caller in a closed loop, single-threaded, one process per
workload; each query is one `relagg.run_query(db, spec)` call, the dispatch
the CLI uses, so validation and join-tree construction are inside the
measured latency.
"""

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import relagg
import timing
import tracing
import workloads
from reference import REFERENCE, inputs_digest, load_inputs

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
SUMSUM_RTOL = 1e-9        # real sums are added in another order than the oracle's
REFERENCE_TIMEOUT_S = 150


def ensure_reference(work, src):
    """Oracle answers for the inputs in `work`, computed once per input set."""
    path = work / REFERENCE
    digest = inputs_digest(work)
    if not (path.exists() and json.loads(path.read_text())["digest"] == digest):
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, str(HERE / "reference.py"), str(work)],
                       env=env, check=True, timeout=REFERENCE_TIMEOUT_S)
    ref = json.loads(path.read_text())
    if ref["digest"] != digest:
        raise RuntimeError(f"{path} does not belong to the inputs beside it")
    return ref["answers"]


def reference_for(name, refs):
    return refs[name.split(".")[0] + ".exact"]


def is_correct(name, answer, refs):
    if isinstance(answer, Exception):
        return False
    ref = reference_for(name, refs)
    kind, mode = name.split(".")
    if mode == "approx":
        return abs(answer - ref) <= workloads.EPSILON * abs(ref)
    if kind == "sumsum":
        return math.isclose(answer, ref, rel_tol=SUMSUM_RTOL)
    return answer == ref


def rel_err(name, answer, refs):
    ref = reference_for(name, refs)
    return abs(answer - ref) / abs(ref)


def guarded(fn, *args, **kwargs):
    """Call fn; an exception is returned, so it counts as a failed query."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a failing query must not abort the run
        return exc


class Tally:
    """Query calls attempted and failed, with the first few failures."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, name, answer):
        self.attempted += 1
        if not is_correct(name, answer, self.refs):
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{name}: got {answer!r}, reference "
                                   f"{reference_for(name, self.refs)!r}")

    def result(self, metrics):
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def timed_run(workload, work, refs, seconds):
    """Round-robin calibrated samples of setup and every query.

    Each pass takes one sample of every item in turn, so a slow phase of the
    machine lands on all metrics alike instead of on one. Passes continue
    while the next is expected to end within `seconds`.
    """
    def setup():
        load_inputs(work)   # the loaded copy is dropped: samples keep no state

    db, specs = load_inputs(work)
    items = {"setup": setup}
    for q in workload.queries:
        items[q] = lambda spec=specs[q]: guarded(relagg.run_query, db, spec)
    # A calibrated warm-up call sizes each item's batches: calibrated time
    # varies far less between runs than raw time, so the batch size does too.
    series = {}
    for name, call in items.items():
        warm, _ = timing.take_sample(call, 1)
        series[name] = timing.Series(timing.batch_size(warm.value))
    tally = Tally(refs)
    approx_answers = {}
    started = time.perf_counter()
    passes = 0
    while True:
        for name, call in items.items():
            s = series[name]
            sample, outputs = timing.take_sample(call, s.calls)
            s.samples.append(sample)
            if name != "setup":
                for answer in outputs:
                    tally.check(name, answer)
                if name.endswith(".approx"):
                    approx_answers[name] = outputs[-1]
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now + (now - started) / passes > started + seconds:
            break

    summaries = {name: s.summary() for name, s in series.items()}
    metrics = {"setup_s": (summaries["setup"]["median"], "s")}
    for q in workload.queries:
        metrics[f"{q}_s"] = (summaries[q]["median"], "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    passed = tally.attempted - tally.failed
    metrics["correct_frac"] = (passed / tally.attempted, "ratio")
    cals = [sample.cal_s for s in series.values() for sample in s.samples]
    diagnostics = {
        "passes": passes,
        "measured_s": time.perf_counter() - started,
        "samples": summaries,
        "calibration_s": {"median": statistics.median(cals), "min": min(cals),
                          "max": max(cals), "nominal": timing.CAL_NOMINAL_S},
        "approx": {name: approx_diagnostic(name, answer, refs)
                   for name, answer in approx_answers.items()},
        "errors": tally.errors,
    }
    return tally.result(metrics), diagnostics


def approx_diagnostic(name, answer, refs):
    if isinstance(answer, Exception):
        return {"error": repr(answer)}
    err = rel_err(name, answer, refs)
    return {"rel_err": err, "rel_err_over_epsilon": err / workloads.EPSILON}


def traced_run(workload, work, refs, spans_path):
    """Setup and every query once untraced, then once traced, item by item.

    A warm-up pass first keeps first-call costs (such as the heap growing)
    out of the comparison. Untraced and traced calls of an item run back to
    back, so a slow phase of the machine moves both sides of
    `trace.overhead` alike.
    """
    tally = Tally(refs)
    db, specs = load_inputs(work)
    for q in workload.queries:
        tally.check(q, guarded(relagg.run_query, db, specs[q]))

    items = {"setup": lambda instr: load_inputs(work)}
    for q in workload.queries:
        items[q] = lambda instr, spec=specs[q]: guarded(
            relagg.run_query, db, spec, instr=instr)
    instr = tracing.FoldInstrumentation()
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    answers = {}
    origin = time.perf_counter()
    for name, call in items.items():
        gc.collect()
        start = time.perf_counter()
        answer = call(None)
        untraced += time.perf_counter() - start
        gc.collect()
        with tracer:
            tracer.query = name
            start = time.perf_counter()
            traced_answer = call(instr)
            traced += time.perf_counter() - start
        if name != "setup":
            tally.check(name, answer)
            tally.check(name, traced_answer)
            answers[name] = traced_answer
    tracer.write_spans(spans_path, origin)

    metrics = tracing.layer_metrics(tracer, instr)
    for q in ("count.approx", "sumprod.approx"):
        if q in answers and not isinstance(answers[q], Exception):
            metrics[f"drivers.{q}.rel_err"] = (rel_err(q, answers[q], refs), "ratio")
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    diagnostics = {"untraced_s": untraced, "traced_s": traced,
                   "spans": len(tracer.spans), "span_file": str(spans_path),
                   "errors": tally.errors}
    return tally.result(metrics), diagnostics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(workload_name, seed, seconds, trace, src):
    """Generate, reference, measure; returns (result line, diagnostics)."""
    workload = workloads.WORKLOADS[workload_name]
    work = HERE / "out" / f"{workload.name}-{seed}"
    workloads.write_inputs(workload, seed, work)
    refs = ensure_reference(work, src)
    if trace:
        result, diagnostics = traced_run(workload, work, refs, work / "spans.jsonl")
    else:
        result, diagnostics = timed_run(workload, work, refs, seconds)
    report = {"workload": workload.name, "seed": seed, "trace": trace,
              "result": result, "diagnostics": diagnostics}
    (work / f"report-trace{trace}.json").write_text(json.dumps(report, indent=1))
    return result, diagnostics


def describe(result, diagnostics):
    """Human-readable lines printed before the result line."""
    lines = []
    samples = diagnostics.get("samples", {})
    for name, m in result["metrics"].items():
        line = f"{name:40s} {m['value']:.6g} {m['unit']}"
        s = samples.get(name[:-2] if name.endswith("_s") else name)
        if s:
            line += (f"  q1={s['q1']:.4g} q3={s['q3']:.4g} n={s['n']}"
                     f" calls/sample={s['calls_per_sample']} raw={s['raw_median']:.4g}")
        lines.append(line)
    for key in ("passes", "measured_s", "calibration_s", "approx",
                "untraced_s", "traced_s", "spans", "span_file"):
        if key in diagnostics:
            lines.append(f"# {key}: {json.dumps(diagnostics[key])}")
    for error in diagnostics["errors"]:
        lines.append(f"# failed: {error}")
    return lines
