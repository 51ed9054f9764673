"""Serving process: one client calling ``pkregion.cli.main`` in a closed loop.

Usage: ``python3 perfbench/serve.py PLAN.json``. The plan (written by
``run.py``) lists the requests of one pass with their reference values. The
process makes one warm-up request, then whole passes over the list while the
next pass is expected to end within ``seconds``. Each request writes its
report to a file, which is checked after the timed call returns. Between
requests, outside the timed calls, it samples the yardstick and, spread over
the run, times ``spawns`` fresh ``python -m pkregion version`` processes.

With ``trace`` set, every request runs twice, untraced and traced, in
alternating order; the median difference is the tracing overhead.
Results go to the plan's ``result`` path as JSON.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from yardstick import Probe  # noqa: E402

VERSION_CMD = [sys.executable, "-m", "pkregion", "version"]


def peak_rss_kb() -> int:
    """High-water resident set of this process, in KiB.

    ``VmHWM`` belongs to this process's own address space. ``ru_maxrss`` is
    the fallback where /proc is missing; on Linux it also counts the memory
    of the parent that spawned this process, which ``execve`` carries over.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    import numpy
    import pkregion.cli

    requests = plan["requests"]
    tracer = Tracer() if plan["trace"] else None
    state = {"attempted": 0, "failures": []}
    probe = Probe()
    spawn_times = []

    def spawn() -> float:
        start = time.perf_counter()
        done = subprocess.run(VERSION_CMD, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - start
        state["attempted"] += 1
        if done.returncode != 0 or not done.stdout.startswith("pkregion "):
            state["failures"].append(
                f"version spawn exited {done.returncode}: {done.stdout!r} "
                f"{done.stderr!r}")
        return elapsed

    def call(index: int, traced: bool) -> tuple:
        req = requests[index]
        if traced:
            tracer.request = state["attempted"]
            tracer.install()
        start = time.perf_counter()
        try:
            code = pkregion.cli.main(req["argv"])
        except Exception as exc:  # a crash fails this request, not the run
            code = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        state["attempted"] += 1
        problems = [f"exit code {code}"] if code != 0 else \
            checks.failures(req["command"], req["output"], req["ref"])
        if problems:
            state["failures"].append(f"request {index} ({req['label']}): "
                                     + "; ".join(problems))
        probe.maybe_sample()
        return start, elapsed

    if plan["spawns"]:
        spawn()  # fills the bytecode cache; not timed
    call(0, False)
    spawn_every = plan["seconds"] / max(plan["spawns"], 1)
    last_spawn = time.perf_counter()
    timed, traced = [], []
    passes = 0
    loop_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for index in range(len(requests)):
            if tracer is None:
                timed.append(call(index, False))
            elif index % 2 == 0:
                timed.append(call(index, False))
                traced.append(call(index, True))
            else:
                traced.append(call(index, True))
                timed.append(call(index, False))
            if len(spawn_times) < plan["spawns"] and \
                    time.perf_counter() - last_spawn >= spawn_every:
                spawn_times.append(spawn())
                last_spawn = time.perf_counter()
        passes += 1
        now = time.perf_counter()
        if (now - loop_start) + (now - pass_start) > plan["seconds"]:
            break
    while len(spawn_times) < plan["spawns"]:
        spawn_times.append(spawn())

    result = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "passes": passes,
        "attempted": state["attempted"],
        "failures": state["failures"],
        "starts": [start for start, _ in timed],
        "latencies": [elapsed for _, elapsed in timed],
        "spawns": spawn_times,
        "peak_rss_kb": peak_rss_kb(),
        "yardstick": probe.samples,
    }
    if tracer is not None:
        result["per_layer"] = tracer.per_layer(len(traced))
        result["per_layer"]["trace.overhead_s"] = statistics.median(
            t - u for (_, t), (_, u) in zip(traced, timed))
        Path(plan["spans"]).write_text(json.dumps(tracer.spans))
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
