"""Interleaved A/B timing of the pkregion CLI between two revisions.

Usage (from the repository root)::

    python tools/abtime.py BASE [HEAD]

BASE and HEAD are git revisions; HEAD defaults to the working tree. Each is
checked out under ``.perfbench_work/abtime/``, as ``tools/compare.py``
does. Before any timing, ``python -m compileall -q`` writes the bytecode of
both trees' ``src/``: where it is missing and the environment sets
``PYTHONDONTWRITEBYTECODE``, every fresh process compiles the package anew
(about 14 ms on a 2-core x86 host), so a tree that alone had bytecode would
seem faster.

The requests are every distinct request of the four benchmark workloads at
seed 1 (``checkouts.workload_requests``). One runner process per tree
(``checkouts.py``) times each call of ``pkregion.cli.main``; the parent
then checks the report with ``perfbench/checks.py`` against the values
``perfbench/reference.py`` computes from the oracles, as the benchmark's
serving process does. The parent sends each request to both runners in
turn, in ABBA order: BASE first where the round and the request's index add
up to an even number, HEAD first otherwise. One untimed round is followed
by ``ROUNDS`` timed ones. Host drift therefore hits both trees alike, and
no yardstick is needed.

Printed, with a ratio being HEAD's time over BASE's, so that below 1 means
HEAD is faster:

* per request class (workload, command, source sizes and, for
  ``simulate``, the blocklength), per workload and over all requests: the
  number of pairs, the median ratio with its quartiles, the pairs HEAD won,
  the ratio of total times, and the mean minor page faults a call of BASE
  and of HEAD took. Near 0 on both sides, the faults show that the
  allocator thresholds of ``checkouts.MALLOC`` took effect; a tree that
  still maps large blocks anew on every call pays for it in faults;
* the same for ``FRESH`` pairs of fresh ``pkregion compute`` processes on
  ``data/worked_source.json``, alternated between the trees.

A row whose quartiles straddle 1.0 ends in ``unresolved``: its spread is
wider than any difference between the trees, and its median shows none.
The fresh-process row is one: with the same ``src/`` on both sides its
quartiles were seen at [0.92, 1.31] on a 2-core x86 host.

The tool reports and never gates on a ratio. The exit code is 1 when a
request or a fresh process failed (a nonzero exit code or a failed check),
2 when a runner dies or on a usage error, and 0 otherwise. A run takes
about 30 s on a 2-core x86 host.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack

from checkouts import ROOT, names, resolve, runner, source_trees, tree_env, \
    workload_requests

# from perfbench/, which checkouts puts on the path
import checks
import reference
import workloads

WORK = ROOT / ".perfbench_work" / "abtime"
SEED = 1
ROUNDS = 40
FRESH = 10
FRESH_SOURCE = "worked_source.json"
SIDES = ("BASE", "HEAD")


def build_requests() -> list:
    """Every distinct request of the four workloads at ``SEED``, with its
    inputs written under ``WORK``: a dict of argv, command, reference
    values, workload and class each."""
    oracles = reference.load_oracles(ROOT)
    out = []
    for workload, files, req, argv in workload_requests((SEED,),
                                                        WORK / "inputs"):
        cards = json.loads(files[req.input])["cardinalities"]
        label = f"{req.command} {'x'.join(map(str, cards))}"
        if req.protocol:
            label += f" n={req.n}"
        out.append({"argv": argv, "command": req.command,
                    "ref": reference.references(oracles, [req], files)[0],
                    "workload": workload, "class": label})
    return out


def problems(code, stderr: str, command: str, output, ref) -> list:
    """Why a call that exited with ``code`` and wrote the report ``output``
    failed; none when it did not."""
    return [f"exit code {code}: {stderr.strip()}"] if code != 0 \
        else checks.failures(command, output, ref)


def call(proc, argv) -> list:
    """[exit code, stdout, stderr, seconds, minor faults] of ``argv``, run
    by the runner ``proc``."""
    proc.stdin.write(json.dumps(argv) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise ChildProcessError(f"a runner exited with {proc.wait()}")
    return json.loads(line)


def time_requests(trees, requests) -> tuple:
    """Per request, the timed pairs [BASE, HEAD] of seconds, each followed
    by the two calls' minor page faults; and every failure found."""
    outputs = [WORK / "out" / side for side in ("base", "head")]
    pairs = [[] for _ in requests]
    failures = []
    with ExitStack() as stack:
        procs = [stack.enter_context(runner(src, WORK)) for src in trees]
        for out in outputs:
            out.mkdir(parents=True)
        for rnd in range(ROUNDS + 1):
            for index, req in enumerate(requests):
                first = (rnd + index) % 2
                pair = [0.0, 0.0, 0, 0]
                for side in (first, 1 - first):
                    output = outputs[side] / f"{index:03d}.json"
                    code, _, err, pair[side], pair[2 + side] = call(
                        procs[side], req["argv"] + ["--output", str(output)])
                    label = f"{SIDES[side]} {' '.join(req['argv'])}"
                    failures += [f"{label}: {problem}" for problem in problems(
                        code, err, req["command"], output, req["ref"])]
                if rnd:  # round 0 fills caches and writes every output
                    pairs[index].append(pair)
    return pairs, failures


def time_fresh(trees) -> tuple:
    """Timed pairs [BASE, HEAD] of fresh ``pkregion compute`` processes,
    after one untimed process a tree; and every failure found."""
    source = ROOT / "data" / FRESH_SOURCE
    ref = reference.compute_reference(reference.load_oracles(ROOT),
                                      source.read_bytes())

    def spawn(side: int) -> tuple:
        env = {**tree_env(), "PYTHONPATH": str(trees[side])}
        output = WORK / "out" / f"fresh-{side}.json"
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pkregion", "compute", "--input",
             str(source), "--output", str(output)],
            cwd=WORK, env=env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        return elapsed, [f"{SIDES[side]} fresh compute: {problem}"
                         for problem in problems(done.returncode, done.stderr,
                                                 "compute", output, ref)]

    pairs, failures = [], []
    for rnd in range(FRESH + 1):
        pair = [0.0, 0.0]
        for side in (rnd % 2, 1 - rnd % 2):
            pair[side], found = spawn(side)
            failures += found
        if rnd:
            pairs.append(pair)
    return pairs, failures


def row(label: str, pairs) -> str:
    """Pairs, median ratio [quartiles], HEAD's wins, the total ratio,
    where the pairs carry them, the mean minor page faults of a call of
    BASE and of HEAD, and ``unresolved`` where the quartiles straddle 1.0."""
    q1, median, q3 = statistics.quantiles(
        [pair[1] / pair[0] for pair in pairs], n=4)
    wins = sum(pair[1] < pair[0] for pair in pairs)
    total = sum(pair[1] for pair in pairs) / sum(pair[0] for pair in pairs)
    line = (f"{label:<46} {len(pairs):>5}  {median:.3f} [{q1:.3f}, {q3:.3f}]"
            f"  {wins:>5}/{len(pairs):<5} {total:.3f}")
    if len(pairs[0]) == 4:
        line += "  " + " / ".join(
            f"{statistics.fmean(pair[side] for pair in pairs):.1f}"
            for side in (2, 3))
    if q1 <= 1.0 <= q3:
        line += "  unresolved"
    return line


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
        try:
            pairs, failures = time_requests(trees, requests)
        except (BrokenPipeError, ChildProcessError) as exc:
            print(f"a runner died: {exc}", file=sys.stderr)
            return 2
        fresh, fresh_failures = time_fresh(trees)
    print(f"abtime {names(shas)}: HEAD/BASE time ratios, seed {SEED}, "
          f"{len(requests)} requests x {ROUNDS} rounds")
    print(f"{'class':<46} {'pairs':>5}  median [quartiles]      "
          f"{'wins':>5}/{'N':<5} total  faults BASE / HEAD")
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
