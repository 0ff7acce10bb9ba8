"""Run the benchmark repeatedly and report how much each metric spreads.

    python3 perfbench/steadiness.py --seeds 1-10

Runs ``run.py`` once per (seed, workload) for the ``run_seconds`` of
BENCHMARK.json, workloads interleaved within each seed, each in a fresh
interpreter, and prints for every end-to-end metric its values, median,
quartiles and the quartile distance as a share of the median
(``statistics.quantiles(values, n=4)``).  With a single seed it is the one
command that prints every workload's end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=[1], help="e.g. 1-10 or 3,7")
    args = parser.parse_args(argv)
    results = {w: [] for w in WORKLOADS}
    ok = True
    for seed in args.seeds:
        for w in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(RUN_SECONDS), "--trace", "0"],
                capture_output=True, text=True, cwd=HERE.parent, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            doc = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not doc.get("correct"):
                ok = False
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", flush=True)
            if doc:
                results[w].append(doc)
    if len(args.seeds) > 1:
        for w, docs in results.items():
            print(f"\n{w}: {len(docs)} runs")
            for name in docs[0]["metrics"] if docs else ():
                values = [d["metrics"][name]["value"] for d in docs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                print(f"  {name:<32} median {statistics.median(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {(q3 - q1) / statistics.median(values):.3f}  "
                      f"values {' '.join(f'{v:.6g}' for v in values)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
