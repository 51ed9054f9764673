"""Git revisions checked out side by side and run, for the tools that run
two trees.

``compare.py`` (byte identity) and ``abtime.py`` (speed) each check out the
commits they are given with ``git worktree`` under a work directory of
their own, and remove the checkouts again at the end. The working tree
stands in for a second revision that is not given. ``workload_requests``
writes the inputs of the four benchmark workloads (``perfbench/workloads.py``)
and yields each distinct request, for both tools to run.

Each tree runs in a process of its own, started by ``runner``. Its script,
``RUNNER``, imports the tree's ``pkregion.cli`` and reads one JSON argv list
a line on stdin. For each it calls ``pkregion.cli.main`` once, with stdout
and stderr captured, and writes one JSON line ``[exit code, stdout, stderr,
seconds, minor faults]``. A ``SystemExit`` gives its code, and any other
exception that escapes ``main`` the exit code ``uncaught <type>:
<message>``: the process ends only when its stdin does, or when it dies.
Only the call is timed, with ``perf_counter`` and the garbage collector
disabled, so that collections fall between calls and not on whichever call
an allocation count happens to tip; the process's minor page faults are
read just outside the timed part.

Every process that runs a tree gets the environment ``tree_env()``: this
one without ``PYTHONPATH`` and the ``PKREGION_*`` option variables, so that
it imports its own package and runs every command with the options given; a
usage width of 80 columns; and glibc's ``MALLOC_MMAP_THRESHOLD_`` and
``MALLOC_TRIM_THRESHOLD_`` at 256 MiB (``MALLOC``). A large array then
reuses freed heap instead of being mapped afresh, and the heap is not
trimmed between calls. Without them, the process whose heap layout happened
to unmap a large block after each call (which turned on details as small as
the length of the tree's path) was seen to pay hundreds of minor faults per
call that the other did not, and the largest request classes to time at
0.92-0.97 or 1.05-1.13 of each other with identical code. The benchmark's
serving process runs with glibc's defaults and still pays for that churn,
so ``perfbench/run.py``, not ``abtime.py``, decides a claim about
end-to-end figures.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

MALLOC = {"MALLOC_MMAP_THRESHOLD_": str(256 << 20),
          "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}

RUNNER = """
import contextlib, gc, io, json, resource, sys, time
src = sys.argv[1]
sys.path.insert(0, src)
import pkregion.cli
assert pkregion.cli.__file__.startswith(src), pkregion.cli.__file__
for line in sys.stdin:
    argv = json.loads(line)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        gc.disable()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        try:
            code = pkregion.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"uncaught {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        gc.enable()
    print(json.dumps([code, out.getvalue(), err.getvalue(), seconds, faults]),
          flush=True)
"""


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def resolve(revs) -> list:
    """The 12-digit commit hash of each revision."""
    return [git("rev-parse", "--verify", "--short=12", f"{rev}^{{commit}}")
            for rev in revs]


def names(shas) -> str:
    """The trees of ``shas`` by name, for a summary line."""
    return " ".join(shas) + (" working-tree" if len(shas) == 1 else "")


@contextmanager
def source_trees(shas, work: Path):
    """The ``src`` directory of each commit in ``shas``, checked out under
    ``work``, then of the working tree when ``shas`` holds one commit; the
    checkouts are removed on exit."""
    git("worktree", "prune")  # trees of a run that was killed
    trees, added = [], []
    try:
        for sha in shas:
            tree = work / sha
            if tree not in added:
                git("worktree", "add", "--detach", str(tree), sha)
                added.append(tree)
            trees.append(tree / "src")
        if len(shas) == 1:
            trees.append(ROOT / "src")
        yield trees
    finally:
        for tree in added:
            git("worktree", "remove", "--force", str(tree))


def clean_env() -> dict:
    """This process's environment without ``PYTHONPATH`` and the
    ``PKREGION_*`` option variables."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("PKREGION_") and k != "PYTHONPATH"}


def tree_env() -> dict:
    """The environment of every process that runs a tree."""
    return {**clean_env(), **MALLOC, "COLUMNS": "80"}


def runner(src: Path, cwd: Path, stdin=subprocess.PIPE,
           stdout=subprocess.PIPE) -> subprocess.Popen:
    """A process in ``cwd`` that runs ``RUNNER`` on the tree ``src``."""
    return subprocess.Popen([sys.executable, "-c", RUNNER, str(src)],
                            cwd=cwd, env=tree_env(), stdin=stdin,
                            stdout=stdout, text=True)


def workload_requests(seeds, folder: Path):
    """Write the inputs of each benchmark workload at each of ``seeds``
    under ``folder``, in ``<workload>-seed<seed>``; yield the workload, its
    files (name -> bytes), the request and its argv of each distinct
    request, workload by workload and seed by seed."""
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            files, requests = workloads.build(workload, seed, ROOT / "data")
            inputs = folder / f"{workload}-seed{seed}"
            inputs.mkdir(parents=True, exist_ok=True)
            for name, data in files.items():
                (inputs / name).write_bytes(data)
            seen = []
            for req in requests:
                argv = [req.command, "--input", str(inputs / req.input)]
                if req.protocol:
                    argv += ["--protocol", str(inputs / req.protocol)]
                if argv not in seen:
                    seen.append(argv)
                    yield workload, files, req, argv
