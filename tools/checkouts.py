"""Git revisions checked out side by side, for the tools that run two trees.

``compare.py`` (byte identity) and ``abtime.py`` (speed) each check out the
commits they are given with ``git worktree`` under a work directory of
their own, run each tree's ``src/`` in processes of its own, and remove
the checkouts again at the end. The working tree stands in for a second
revision that is not given.
"""

from __future__ import annotations

import os
import subprocess
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    ``PKREGION_*`` option variables, so that a tree's process imports its
    own package and runs every command with the options given."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("PKREGION_") and k != "PYTHONPATH"}
