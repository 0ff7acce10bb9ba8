"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload recursion --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src``.  The
workload's job list is built from the seed, then run in rounds, each round in
a seeded order, until the next round would end past ``--seconds`` (at least
three rounds).  Every output is checked after the timed phase.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it repeat the metrics
with their units and sample counts.

The end-to-end times are reference seconds: measured seconds scaled by
CALIBRATION_S over the median time, in the same round (or in set-up), of a
fixed kernel that does not use the package, run between jobs every
CALIBRATE_EVERY_S.  The kernel's time tracks how fast the host runs exact
arithmetic at that moment, so the scaled times move with the program and
little with the load of other tenants of a shared host.  The measured
seconds are printed beside them.

With ``--trace 1`` the rounds alternate untraced and traced, starting
untraced; the layer entry points are wrapped only while a traced round's job
runs, and the spans are written to ``.perfbench_out/``.  Per-layer times are
measured seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import JOB_LISTS, WORKLOADS  # noqa: E402

MODULES = ("cli", "curveio", "curves", "deskcheck", "genus2", "laurent", "linalg", "multipoly",
           "normalform", "sections", "zoo")
SETUP_REPEATS = 9
MIN_ROUNDS = 3
CALIBRATION_S = 0.025
CALIBRATE_EVERY_S = 1.0
SETUP_ROUND = -1  # the round number of calibrations taken during set-up

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_p90_s": "s", "peak_rss_mb": "MB"}


def load_library():
    """Import the package from SRC afresh, so its caches start empty."""
    for name in [n for n in sys.modules if n == "nsc" or n.startswith("nsc.")]:
        del sys.modules[name]
    nsc = importlib.import_module("nsc")
    if Path(nsc.__file__).resolve().parent != SRC / "nsc":
        raise ImportError(f"nsc imported from {nsc.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"nsc.{m}") for m in MODULES})


def set_up(workload, seed, workdir, make_jobs=None):
    """Import the package and build the job list; returns (seconds, lib, jobs)."""
    start = perf_counter()
    lib = load_library()
    jobs = (make_jobs or JOB_LISTS[workload])(lib, random.Random(seed), workdir)
    return perf_counter() - start, lib, jobs


def calibrate() -> float:
    """Seconds for a fixed exact-arithmetic kernel that uses no package code:
    a big-integer fraction sum with gcd reductions and dict updates, then
    Gauss-Jordan elimination of a 14 x 14 Fraction matrix."""
    start = perf_counter()
    n, d, acc = 1, 1, {}
    for i in range(1, 1000):
        n, d = n * (i + 1) * i + d * (i + 2), d * (i + 2) * i
        g = math.gcd(n, d)
        n, d = n // g, d // g
        acc[i % 97] = acc.get(i % 97, 0) + n % 1000003
    size = 14
    m = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 7) for j in range(size)] for i in range(size)]
    for c in range(size):
        pivot = next(i for i in range(c, size) if m[i][c])
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(size):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return perf_counter() - start


def round_scales(calibrations):
    """Round -> CALIBRATION_S over the median calibration time of the round."""
    by_round = {}
    for rnd, seconds in calibrations:
        by_round.setdefault(rnd, []).append(seconds)
    overall = [seconds for _, seconds in calibrations]
    return lambda rnd: CALIBRATION_S / statistics.median(by_round.get(rnd, overall))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_rounds(jobs, seed, seconds, tracer=None, min_rounds=MIN_ROUNDS):
    """Run the job list in rounds, at least ``min_rounds``, until the next
    round would end after ``seconds``; with a tracer, odd rounds are traced.

    Returns one record per execution, (job index, round, latency, SHA-256 of
    the output), the calibrations taken between jobs, (round, seconds), and
    each job key's first output.
    """
    records, calibrations, outputs = [], [], {}
    start = perf_counter()
    last_calibration = -math.inf
    walls = []
    rnd = 0
    while True:
        order = list(range(len(jobs)))
        random.Random(f"{seed}:{rnd}").shuffle(order)
        traced = tracer is not None and rnd % 2 == 1
        wall = 0.0
        for i in order:
            job = jobs[i]
            if perf_counter() - last_calibration >= CALIBRATE_EVERY_S:
                calibrations.append((rnd, calibrate()))
                last_calibration = perf_counter()
            if traced:
                tracer.active = True
            t0 = perf_counter()
            try:
                result, error = job.run(), None
            except Exception as exc:  # a raising job is a failed job
                result, error = None, exc
            latency = perf_counter() - t0
            if traced:
                tracer.active = False
            wall += latency
            if error is None:
                try:
                    text = job.render(result)
                except Exception as exc:
                    error = exc
            if error is not None:
                text = f"raised {type(error).__name__}: {error}"
            outputs.setdefault(job.key, text)
            records.append((i, rnd, latency, digest(text)))
        walls.append(wall)
        rnd += 1
        elapsed = perf_counter() - start
        if rnd >= min_rounds and elapsed + statistics.median(walls) > seconds:
            return records, calibrations, outputs


def check(jobs, records, outputs, reference):
    """Mark each execution failed or not; returns (failed flags, problems).

    An execution fails if its job raised, if its output differs from the
    reference or from the first execution of the same job, or if the job's
    oracle finds a problem with that first output.
    """
    by_key = {job.key: job for job in jobs}
    first = {key: digest(text) for key, text in outputs.items()}
    bad_keys = {}
    for key, text in outputs.items():
        if text.startswith("raised "):
            bad_keys[key] = [text]
            continue
        try:
            problems = by_key[key].oracle(text)
        except Exception as exc:
            problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        if key in reference and first[key] != reference[key]:
            problems.append("output differs from the reference")
        if problems:
            bad_keys[key] = problems
    failed = []
    for i, rnd, _, output in records:
        key = jobs[i].key
        failed.append(key in bad_keys or output != first[key])
        if output != first[key]:
            bad_keys.setdefault(key, []).append(f"round {rnd} output differs from round 0")
    return failed, bad_keys


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nsc").is_dir():
        print(f"no package source at {SRC / 'nsc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    setup_times, calibrations = [], []
    for _ in range(SETUP_REPEATS):
        seconds, lib, jobs = set_up(args.workload, args.seed, workdir)
        setup_times.append(seconds)
        calibrations.append((SETUP_ROUND, calibrate()))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(lib)
    records, more, outputs = run_rounds(jobs, args.seed, args.seconds, tracer)
    calibrations += more
    calibration_s = statistics.median(seconds for _, seconds in calibrations)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    caches = tracing.cache_metrics(lib)  # before the oracles, which use the caches too
    if tracer:
        tracer.uninstall()
    reference = json.loads(REFERENCE.read_text()).get(args.workload, {}) if REFERENCE.exists() else {}
    failed, problems = check(jobs, records, outputs, reference)
    for key, found in sorted(problems.items()):
        print(f"FAILED {key}: {'; '.join(found)}", file=sys.stderr)
    rounds = max(rnd for _, rnd, _, _ in records) + 1
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"jobs {len(records)} ({len(jobs)} per round)  failed_frac {sum(failed) / len(records):.4g} "
          f"({sum(failed)} of {len(records)})")
    scale = round_scales(calibrations)
    print(f"host: calibration kernel {1000 * calibration_s:.3f} ms, median of {len(calibrations)}, "
          f"reference {1000 * CALIBRATION_S:.0f} ms; reference seconds = measured seconds x "
          + " ".join(f"{scale(rnd):.3f}" for rnd in range(SETUP_ROUND, rounds)) + " (set-up, rounds)")
    trace_ok = True
    if tracer:
        metrics, trace_ok = layer_metrics(args, caches, tracer, records, len(jobs), calibration_s)
    else:
        walls = [sum(lat for _, r, lat, _ in records if r == rnd) for rnd in range(rounds)]
        latencies = [lat for _, _, lat, _ in records]
        scaled = [scale(rnd) * lat for _, rnd, lat, _ in records]
        measured = {"setup_s": statistics.median(setup_times), "wall_s": statistics.median(walls),
                    "job_p50_s": statistics.median(latencies), "job_p90_s": quantile(latencies, 90)}
        values = {"setup_s": scale(SETUP_ROUND) * measured["setup_s"],
                  "wall_s": statistics.median(scale(rnd) * wall for rnd, wall in enumerate(walls)),
                  "job_p50_s": statistics.median(scaled), "job_p90_s": quantile(scaled, 90)}
        samples = {"setup_s": f"median of {SETUP_REPEATS} set-ups", "wall_s": f"median of {rounds} rounds",
                   "job_p50_s": f"{len(latencies)} jobs", "job_p90_s": f"{len(latencies)} jobs"}
        print("  round walls, measured s: " + " ".join(f"{w:.3f}" for w in walls))
        metrics = {}
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
            print(f"  {name:<12} {value:12.6f} {END_TO_END_UNITS[name]:<3} "
                  f"(measured {measured[name]:.6f} s; {samples[name]})")
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": END_TO_END_UNITS["peak_rss_mb"]}
        print(f"  {'peak_rss_mb':<12} {peak_rss_mb:12.6f} MB  (ru_maxrss after the timed phase)")
    correct = trace_ok and not any(failed)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": sum(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_metrics(args, caches, tracer, records, jobs_per_round, calibration_s):
    """Per-layer metrics of the traced rounds, per traced round, and whether
    the spans passed their consistency check."""
    traced_rounds = sorted({rnd for _, rnd, _, _ in records if rnd % 2 == 1})
    untraced = sorted({rnd for _, rnd, _, _ in records if rnd % 2 == 0 and rnd > 0})
    n = len(traced_rounds)
    traced_wall = sum(lat for _, rnd, lat, _ in records if rnd % 2 == 1) / n
    untraced_wall = statistics.median(sum(lat for _, r, lat, _ in records if r == rnd) for rnd in untraced)
    summary = tracer.summary()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in tracer.names:
        put(f"{name}.calls", summary["calls"][name] / n, "count")
        put(f"{name}.self_s", summary["self_s"][name] / n, "s")
    for name, value in tracer.counts.items():
        put(name, value / n, "count")
    for name, value in caches.items():
        put(name, value, "ratio" if name.endswith("ratio") else "count")
    unspanned = traced_wall - summary["root_s"] / n
    put("trace.wall_s", traced_wall, "s")
    put("trace.unspanned_s", unspanned, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.overhead", traced_wall / untraced_wall - 1, "ratio")
    put("trace.spans", summary["spans"] / n, "count")
    put("host.calibration_s", calibration_s, "s")

    print(f"per traced round, over {n} traced rounds of {jobs_per_round} jobs:")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:16.6f} {m['unit']}")
    problems = tracing.span_problems(summary, unspanned * n)
    for problem in problems:
        print(f"FAILED trace check: {problem}", file=sys.stderr)
    print(f"trace check {'FAILED' if problems else 'passed'}: every span's self time >= 0 and "
          f"un-spanned time {unspanned:.6f} s >= 0, so the self times ({sum(summary['self_s'].values()) / n:.6f} s) "
          f"and the un-spanned time split the traced wall ({traced_wall:.6f} s)")
    print(f"tracing overhead: traced round {traced_wall:.4f} s against untraced {untraced_wall:.4f} s "
          f"({100 * (traced_wall / untraced_wall - 1):+.1f}%)")
    layers = {}
    for name, value in summary["self_s"].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + value / n
    print("self time share of the traced wall: " + ", ".join(
        f"{layer} {100 * value / traced_wall:.1f}%" for layer, value in sorted(layers.items(), key=lambda kv: -kv[1])))
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans)
    print(f"spans written to {spans.relative_to(ROOT)}")
    return metrics, not problems


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        sys.exit(2)
