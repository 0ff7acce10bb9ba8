"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = {
    "recursion": {"grid": ((2, 2), (3, 4)), "genera": (2, 3)},
    "canonical": {"cusps": (4,), "alpha_beta": (3,), "glued": ((1, 2),)},
    "queries": {"operations": tuple((op, 8) for op, _ in workloads.OPERATIONS), "suites": ("c0",),
                "desk": False},
}


def tiny_run(workload, tmp_path, trace=False, seed=1):
    make_jobs = functools.partial(workloads.JOB_LISTS[workload], **TINY[workload])
    tmp_path.mkdir(parents=True, exist_ok=True)
    _, lib, jobs = run.set_up(workload, seed, tmp_path, make_jobs)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install(lib)
    records, calibrations, outputs = run.run_rounds(jobs, seed, 0, tracer)
    assert calibrations and all(seconds > 0 for _, seconds in calibrations)
    if tracer:
        tracer.uninstall()
    return jobs, records, outputs, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload, tmp_path):
    jobs, records, outputs, _ = tiny_run(workload, tmp_path)
    failed, problems = run.check(jobs, records, outputs, {})
    assert not any(failed), problems
    assert {rnd for _, rnd, _, _ in records} == set(range(run.MIN_ROUNDS))


def _change_first_rational(text):
    """Add one to the numerator of the first rational string value."""
    return re.sub(r'(: \\?")(-?\d+)', lambda m: m.group(1) + str(int(m.group(2)) + 1), text, count=1)


def _corrupt_first_output(outputs, prefix):
    """Change one rational in the first output of a job whose key starts with prefix."""
    key = next(k for k, text in outputs.items() if k.startswith(prefix) and '"exit": 2' not in text)
    changed = _change_first_rational(outputs[key])
    assert changed != outputs[key]
    outputs[key] = changed
    return key


@pytest.mark.parametrize("workload,prefix", [("recursion", "run_recursion"), ("canonical", "alpha_beta"),
                                             ("queries", "curve alphabeta")])
def test_changed_rational_counts_as_failed(workload, prefix, tmp_path):
    jobs, records, outputs, _ = tiny_run(workload, tmp_path)
    reference = {key: run.digest(text) for key, text in outputs.items()}
    key = _corrupt_first_output(outputs, prefix)
    failed, problems = run.check(jobs, records, outputs, reference)
    assert "output differs from the reference" in problems[key]
    assert sum(failed) == run.MIN_ROUNDS  # every execution of that job, and only those


def test_closed_form_oracle_needs_no_reference(tmp_path):
    jobs, records, outputs, _ = tiny_run("recursion", tmp_path)
    key = _corrupt_first_output(outputs, "run_recursion")  # s_{g+1,1}
    _, problems = run.check(jobs, records, outputs, {})
    assert any("closed form" in p for p in problems[key])


def test_output_differing_from_reference_fails(tmp_path):
    jobs, records, outputs, _ = tiny_run("recursion", tmp_path)
    key = jobs[records[0][0]].key
    failed, problems = run.check(jobs, records, outputs, {key: "0" * 64})
    assert problems[key] == ["output differs from the reference"]
    assert sum(failed) == run.MIN_ROUNDS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(workload, tmp_path):
    jobs, plain, _, _ = tiny_run(workload, tmp_path / "plain")
    traced_jobs, traced, _, tracer = tiny_run(workload, tmp_path / "traced", trace=True)
    digests = {jobs[i].key: output for i, _, _, output in plain}
    traced_digests = {traced_jobs[i].key: output for i, rnd, _, output in traced if rnd % 2 == 1}
    assert traced_digests == digests
    summary = tracer.summary()
    assert summary["spans"] > 0
    unspanned = sum(lat for _, rnd, lat, _ in traced if rnd % 2 == 1) - summary["root_s"]
    assert tracing.span_problems(summary, unspanned) == []


def test_span_check_finds_a_child_outside_its_parent():
    tracer = tracing.Tracer()
    for parent, start, end in ((-1, 0.0, 1.0), (0, 0.2, 0.5), (0, 0.5, 0.9)):
        tracer.name_ids.append(0)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    assert tracing.span_problems(tracer.summary(), 0.0) == []
    tracer.ends[2] = 1.5  # the second child ends after its parent and overlaps the first
    assert tracing.span_problems(tracer.summary(), 0.0) == ["1 spans have a negative self time"]
    assert tracing.span_problems(tracer.summary(), -0.1) == [
        "1 spans have a negative self time", "root spans outlast the traced jobs by 0.1 s"]


def test_tracer_wraps_names_bound_by_import(tmp_path):
    _, lib, _ = run.set_up("recursion", 1, tmp_path, lambda *args: [])
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        wrapped = lib.laurent.series_substitute
        assert hasattr(wrapped, "__wrapped__")
        assert lib.normalform.series_substitute is wrapped and lib.sections.series_substitute is wrapped
        series = lib.laurent.LaurentSeries
        assert hasattr(series.__mul__, "__wrapped__") and series.__rmul__ is series.__mul__
    finally:
        tracer.uninstall()
    assert not hasattr(lib.normalform.series_substitute, "__wrapped__")
    assert not hasattr(lib.laurent.LaurentSeries.__rmul__, "__wrapped__")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "recursion", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    layer = {f"{n}.{k}" for n in tracing.ENTRY_POINTS for k in ("calls", "self_s")}
    layer |= set(tracing.COUNTS)
    layer |= {f"{c}.{k}" for c in tracing.CACHES for k in ("hit_ratio", "size")}
    layer |= {f"trace.{k}" for k in ("wall_s", "unspanned_s", "untraced_wall_s", "overhead", "spans")}
    layer.add("host.calibration_s")
    assert {m["name"] for m in spec["per_layer"]} == layer
