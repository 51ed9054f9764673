"""Interleaved A/B timing of the pkregion CLI between two revisions.

Usage (from the repository root)::

    python tools/abtime.py BASE [HEAD]

BASE and HEAD are git revisions; HEAD defaults to the working tree. Each
revision is checked out with ``git worktree`` under
``.perfbench_work/abtime/`` and removed again at the end, by
``checkouts.py``, as ``tools/compare.py`` does. Before any timing,
``python -m compileall -q`` writes the bytecode of both trees' ``src/``:
where it is missing and the environment sets ``PYTHONDONTWRITEBYTECODE``,
every fresh process compiles the package anew (about 14 ms on a 2-core x86
host), so a tree that alone had bytecode would seem faster.

The requests are every distinct request of the four benchmark workloads at
seed 1, built by ``perfbench/workloads.py``. One worker process per tree
times each call of ``pkregion.cli.main`` with ``perf_counter``, with the
garbage collector disabled, so that collections fall between calls and not
on whichever call an allocation count happens to tip. After the call,
outside the timed part, it checks the report with
``perfbench/checks.py`` against the values ``perfbench/reference.py``
computes from the oracles, as the benchmark's serving process does. The
parent sends each request to both workers in turn, in ABBA order: BASE
first where the round and the request's index add up to an even number,
HEAD first otherwise. One untimed round is followed by ``ROUNDS`` timed
ones. Host drift therefore hits both trees alike, and no yardstick is
needed.

Printed, with a ratio being HEAD's time over BASE's, so that below 1 means
HEAD is faster:

* per request class (workload, command, source sizes and, for
  ``simulate``, the blocklength), per workload and over all requests: the
  number of pairs, the median ratio with its quartiles, the pairs HEAD won
  and the ratio of total times;
* the same for ``FRESH`` pairs of fresh ``pkregion compute`` processes on
  ``data/worked_source.json``, alternated between the trees.

The tool reports and never gates on a ratio. The exit code is 1 when a
request or a fresh process failed (a nonzero exit code or a failed check)
or a worker died, 2 on a usage error, and 0 otherwise. A run takes about
25 s on a 2-core x86 host.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time

from checkouts import ROOT, clean_env, names, resolve, source_trees

WORK = ROOT / ".perfbench_work" / "abtime"
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SEED = 1
ROUNDS = 40
FRESH = 10
FRESH_SOURCE = "worked_source.json"

# Runs in each tree's own process: the plan's requests, then one request
# index a line on stdin; one line [seconds, problems] back for each.
WORKER = """
import gc, json, sys, time
src, perfbench, plan, out = sys.argv[1:]
sys.path[:0] = [src, perfbench]
import checks
import pkregion.cli
assert pkregion.cli.__file__.startswith(src), pkregion.cli.__file__
requests = json.load(open(plan))
for line in sys.stdin:
    index = int(line)
    req = requests[index]
    output = f"{out}/{index:03d}.json"
    gc.disable()
    start = time.perf_counter()
    try:
        code = pkregion.cli.main(req["argv"] + ["--output", output])
    except Exception as exc:  # a crash fails this request, not the run
        code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    gc.enable()
    problems = [f"exit code {code}"] if code != 0 else \\
        checks.failures(req["command"], output, req["ref"])
    print(json.dumps([elapsed, problems]), flush=True)
"""


def build_requests() -> list:
    """Every distinct request of the four workloads at ``SEED``, with its
    inputs written under ``WORK``: a dict of argv, command, reference
    values, workload and class each."""
    oracles = reference.load_oracles(ROOT)
    out = []
    for workload in workloads.WORKLOADS:
        files, requests = workloads.build(workload, SEED, ROOT / "data")
        folder = WORK / "inputs" / workload
        folder.mkdir(parents=True)
        for name, data in files.items():
            (folder / name).write_bytes(data)
        seen = set()
        for req, ref in zip(requests,
                            reference.references(oracles, requests, files)):
            key = (req.command, req.input, req.protocol)
            if key in seen:
                continue
            seen.add(key)
            argv = [req.command, "--input", str(folder / req.input)]
            cards = json.loads(files[req.input])["cardinalities"]
            label = f"{req.command} {'x'.join(map(str, cards))}"
            if req.protocol:
                argv += ["--protocol", str(folder / req.protocol)]
                label += f" n={req.n}"
            out.append({"argv": argv, "command": req.command, "ref": ref,
                        "workload": workload, "class": label})
    return out


class Worker:
    """One tree's worker process."""

    def __init__(self, src, plan, out):
        out.mkdir(parents=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(src), str(PERFBENCH),
             str(plan), str(out)],
            cwd=WORK, env=clean_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def time(self, index: int) -> tuple:
        """(seconds, problems) of request ``index``."""
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"a worker exited with {self.proc.wait()}")
        return tuple(json.loads(line))

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def time_requests(trees, requests) -> tuple:
    """Per request, the timed pairs [BASE, HEAD] of seconds; and every
    failure found."""
    plan = WORK / "plan.json"
    plan.write_text(json.dumps(requests))
    workers = [Worker(src, plan, WORK / "out" / side)
               for src, side in zip(trees, ("base", "head"))]
    pairs = [[] for _ in requests]
    failures = []
    try:
        for rnd in range(ROUNDS + 1):
            for index, req in enumerate(requests):
                first = (rnd + index) % 2
                pair = [0.0, 0.0]
                for side in (first, 1 - first):
                    pair[side], problems = workers[side].time(index)
                    failures += [f"{('BASE', 'HEAD')[side]} "
                                 f"{' '.join(req['argv'])}: {problem}"
                                 for problem in problems]
                if rnd:  # round 0 fills caches and writes every output
                    pairs[index].append(pair)
    finally:
        for worker in workers:
            worker.close()
    return pairs, failures


def time_fresh(trees) -> tuple:
    """Timed pairs [BASE, HEAD] of fresh ``pkregion compute`` processes,
    after one untimed process a tree; and every failure found."""
    source = ROOT / "data" / FRESH_SOURCE
    ref = reference.compute_reference(reference.load_oracles(ROOT),
                                      source.read_bytes())

    def spawn(side: int) -> tuple:
        env = clean_env()
        env["PYTHONPATH"] = str(trees[side])
        output = WORK / "out" / f"fresh-{side}.json"
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pkregion", "compute", "--input",
             str(source), "--output", str(output)],
            cwd=WORK, env=env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        problems = [f"exit code {done.returncode}: {done.stderr.strip()}"] \
            if done.returncode else checks.failures("compute", output, ref)
        return elapsed, [f"{('BASE', 'HEAD')[side]} fresh compute: {p}"
                         for p in problems]

    pairs, failures = [], []
    for rnd in range(FRESH + 1):
        pair = [0.0, 0.0]
        for side in (rnd % 2, 1 - rnd % 2):
            pair[side], problems = spawn(side)
            failures += problems
        if rnd:
            pairs.append(pair)
    return pairs, failures


def row(label: str, pairs) -> str:
    """Pairs, median ratio [quartiles], HEAD's wins and the total ratio."""
    q1, median, q3 = statistics.quantiles(
        [head / base for base, head in pairs], n=4)
    wins = sum(head < base for base, head in pairs)
    total = sum(h for _, h in pairs) / sum(b for b, _ in pairs)
    return (f"{label:<46} {len(pairs):>5}  {median:.3f} [{q1:.3f}, {q3:.3f}]"
            f"  {wins:>5}/{len(pairs):<5} {total:.3f}")


def main(args) -> int:
    if not 1 <= len(args) <= 2:
        print("usage: python tools/abtime.py BASE [HEAD]", file=sys.stderr)
        return 2
    clock = time.perf_counter()
    shas = resolve(args)
    shutil.rmtree(WORK, ignore_errors=True)
    requests = build_requests()
    with source_trees(shas, WORK) as trees:
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        *map(str, trees)], check=True)
        pairs, failures = time_requests(trees, requests)
        fresh, fresh_failures = time_fresh(trees)
    print(f"abtime {names(shas)}: HEAD/BASE time ratios, seed {SEED}, "
          f"{len(requests)} requests x {ROUNDS} rounds")
    print(f"{'class':<46} {'pairs':>5}  median [quartiles]      "
          f"{'wins':>5}/{'N':<5} total")
    everything = []
    for workload in workloads.WORKLOADS:
        classes = {}
        for req, timed in zip(requests, pairs):
            if req["workload"] == workload:
                classes.setdefault(req["class"], []).extend(timed)
        for label, timed in classes.items():
            print(row(f"{workload}  {label}", timed))
        in_workload = [pair for timed in classes.values() for pair in timed]
        print(row(f"{workload}  all", in_workload))
        everything += in_workload
    print(row("all requests", everything))
    print(row(f"fresh compute {FRESH_SOURCE}", fresh))
    failures += fresh_failures
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"abtime: {len(failures)} failures in "
          f"{time.perf_counter() - clock:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
