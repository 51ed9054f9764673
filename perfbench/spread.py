"""Run-to-run spread of the benchmark over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload regions-search --seeds 1-10 \
        --seconds 15 [--trace 0|1] [--out FILE]

Runs ``run.py`` once per seed, one run at a time, and prints for each metric
the median of its values, the first and third quartile
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median. ``--out`` writes the same summary, every run's metrics included, as
JSON. It exits non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=HERE.parent, capture_output=True,
            text=True, timeout=900)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall,
                     "metrics": {k: m["value"]
                                 for k, m in result["metrics"].items()}})
        print(f"seed {seed}: {wall:.1f} s", file=sys.stderr)

    summary = {name: summarize([r["metrics"][name] for r in runs])
               for name in runs[0]["metrics"]}
    for name, s in summary.items():
        print(f"{args.workload:<22}{name:<45}median {s['median']:<14.6g}"
              f"q1 {s['q1']:<14.6g}q3 {s['q3']:<14.6g}"
              f"spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "trace": args.trace, "summary": summary, "runs": runs},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
