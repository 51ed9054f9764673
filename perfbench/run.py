"""Benchmark of the pkregion CLI: four seeded workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One run generates the workload's inputs from the seed, checks that the
generator is reproducible, computes reference values with the oracles in
``tests/oracles.py``, and then:

* with ``--trace 0`` times fresh ``python -m pkregion version`` processes
  (``setup_s``) and starts one serving process that calls
  ``pkregion.cli.main`` over the request list in a closed loop with one
  client; it reports the end-to-end metrics of ``BENCHMARK.json``;
* with ``--trace 1`` the serving process also runs every request with
  spans around each public package function, and the run reports the
  per-layer metrics.

Every report is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every check passed. ``--workload all`` runs each
workload untraced and traced and prints every metric of each.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

# Spawns of `python -m pkregion version` per untraced run, spread over the
# run, after one untimed spawn that fills the bytecode cache.
SETUP_SPAWNS = 15
# Wall-time limit of the serving process.
SERVE_TIMEOUT_S = 150


def _env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PKREGION_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def _latency_metrics(lat: list) -> dict:
    return {"req_per_s": len(lat) / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_p90_s": statistics.quantiles(lat, n=10)[8]}


def _corrected(raw: dict, units: dict, factor: float) -> dict:
    """Times and rates in reference seconds (see yardstick.py)."""
    scale = {"s": factor, "1/s": 1.0 / factor}
    return {k: v * scale.get(units[k], 1.0) for k, v in raw.items()}


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 units: dict) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "in").mkdir(parents=True)
    (workdir / "out").mkdir()

    clock = time.perf_counter()
    phases = {}
    files, requests = workloads.build(name, seed, ROOT / "data")
    workloads.self_check(name, seed, ROOT / "data", files)
    for fname, data in files.items():
        (workdir / "in" / fname).write_bytes(data)
    phases["generate_s"] = time.perf_counter() - clock
    refs = reference.references(reference.load_oracles(ROOT), requests, files)
    phases["oracles_s"] = time.perf_counter() - clock - sum(phases.values())
    for req, ref in zip(requests, refs):
        if req.command == "compute" and not req.control and \
                ref["det_correlated"] != (name == "regions-tight"):
            raise RuntimeError(f"{name}: {req.input} does not have the "
                               "tightness verdict its workload needs")

    cards = {req.input: json.loads(files[req.input])["cardinalities"]
             for req in requests}
    plan_requests, table = [], []
    for i, (req, ref) in enumerate(zip(requests, refs)):
        argv = [req.command, "--input", str(workdir / "in" / req.input)]
        label = f"{req.command} {req.input}"
        if req.protocol:
            argv += ["--protocol", str(workdir / "in" / req.protocol)]
            label += f" {req.protocol}"
        output = str(workdir / "out" / f"{i:03d}.json")
        plan_requests.append({"argv": argv + ["--output", output],
                              "command": req.command, "output": output,
                              "label": label, "ref": ref})
        power = req.n if req.command == "simulate" else 1
        table.append({"label": label, "control": req.control,
                      "cardinalities": cards[req.input], "n": req.n,
                      "cells": math.prod(cards[req.input]) ** power,
                      "bytes_in": len(files[req.input])
                      + (len(files[req.protocol]) if req.protocol else 0)})

    plan = {"requests": plan_requests, "seconds": seconds, "trace": trace,
            "spawns": 0 if trace else SETUP_SPAWNS,
            "result": str(workdir / "result.json"),
            "spans": str(workdir / "spans.json")}
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    done = subprocess.run([sys.executable, str(HERE / "serve.py"),
                           str(plan_path)], cwd=ROOT, env=_env(),
                          stdout=sys.stderr, timeout=SERVE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"serving process exited {done.returncode}")
    phases["serve_s"] = time.perf_counter() - clock - sum(phases.values())
    served = json.loads((workdir / "result.json").read_text())
    failures = served["failures"]
    attempted = served["attempted"]

    lat = served["latencies"]
    factor = yardstick.factor([d for _, d in served["yardstick"]])
    if trace:
        raw = served["per_layer"]
        metrics = _corrected(raw, units, factor)
    else:
        raw = _latency_metrics(lat)
        local = yardstick.local_factors(served["starts"], lat,
                                        served["yardstick"])
        metrics = _latency_metrics([x * f for x, f in zip(lat, local)])
        for m in (raw, metrics):
            m["setup_s"] = statistics.median(served["spawns"])
            m["peak_rss_mb"] = served["peak_rss_kb"] / 1024.0
            m["ok_ratio"] = (attempted - len(failures)) / attempted
    manifest = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "definition": vars(workloads.WORKLOADS[name]),
        "python": served["python"], "numpy": served["numpy"],
        "nproc": os.cpu_count(),
        "platform": platform.platform(), "passes": served["passes"],
        "timed_requests": len(lat), "setup_spawns": len(served["spawns"]),
        "attempted": attempted, "phases": phases,
        "speed_factor": factor, "yardstick_samples": len(served["yardstick"]),
        "raw_metrics": raw,
        "requests": table, "sha256": workloads.digest(files),
        "failures": failures, "metrics": metrics,
    }
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def _print_summary(manifest: dict, units: dict) -> None:
    print(f"# {manifest['workload']} seed {manifest['seed']} trace "
          f"{int(manifest['trace'])}: {manifest['timed_requests']} timed "
          f"requests in {manifest['passes']} passes; python "
          f"{manifest['python']}, numpy {manifest['numpy']}, nproc "
          f"{manifest['nproc']}")
    for key, value in manifest["metrics"].items():
        print(f"{manifest['workload']:<22}{key:<45}{value:<24.10g}"
              f"{units.get(key, '')}")
    for line in manifest["failures"][:20]:
        print(f"FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    needed = [ROOT / "src" / "pkregion" / "__init__.py",
              ROOT / "tests" / "oracles.py", ROOT / "BENCHMARK.json"] + \
        [ROOT / "data" / f for f in workloads.DATA_FILES]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from a pkregion checkout; missing {missing}",
              file=sys.stderr)
        return 2

    units = _units()
    if args.workload == "all":
        runs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    manifests = []
    for name, trace in runs:
        try:
            manifests.append(run_workload(name, args.seed, args.seconds,
                                          trace, units))
        except (RuntimeError, OSError, ValueError,
                subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        _print_summary(manifests[-1], units)

    failed = sum(len(m["failures"]) for m in manifests)
    if len(manifests) == 1:
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in manifests[0]["metrics"].items()}
    else:
        metrics = {f"{m['workload']}.{k}": {"value": v, "unit": units[k]}
                   for m in manifests for k, v in m["metrics"].items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(m["attempted"] for m in manifests),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
