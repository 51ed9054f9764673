"""Single-edit mutants of ``src/`` that the tier-1 tests must kill.

Usage (from the repository root)::

    python tools/mutants.py [REV]

REV is a git revision, HEAD by default. It is checked out with ``git
worktree`` under ``.perfbench_work/mutants/`` and removed again at the end,
by ``checkouts.py``. Each entry of ``MUTANTS`` is one edit: every
occurrence of its old text in its file of the checkout becomes the new
text. The tool applies one edit at a time, runs the tier-1 tests of the
checkout with ``-x``, and puts the file back. A mutant is killed when a
test fails; the first failing test is printed with it.

The last line is a summary. The exit code is 0 when every mutant is
killed, 1 when one survives, and 2 when an edit's old text is missing from
its file, so that a stale list shows. One mutant costs up to one whole
tier-1 run (about 45 s on a 2-core x86 host): the tool is run by hand when
a threshold changes, not on every push.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time

from checkouts import ROOT, clean_env, resolve, source_trees

WORK = ROOT / ".perfbench_work" / "mutants"
# the test that each edit finds its text fails on every mutant: not a kill
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--deselect",
         "tests/test_properties.py::test_every_mutant_edits_its_file")

# (label, file under src/pkregion, old text, new text)
MUTANTS = (
    ("_CONTAIN_TOL 1e-9 -> 1e-3", "cli.py",
     "_CONTAIN_TOL = 1e-9", "_CONTAIN_TOL = 1e-3"),
    ("source memo: key without --tol-sum", "cli.py",
     "source[:2] != (data, tol_sum)", "source[:1] != (data,)"),
    ("source memo: key by length, not bytes", "cli.py",
     "source[:2] != (data, tol_sum)",
     "(len(source[0] or b''), source[1]) != (len(data), tol_sum)"),
    ("DEFAULT_SUM_TOL 1e-9 -> 1e-6", "dist.py",
     "DEFAULT_SUM_TOL = 1e-9", "DEFAULT_SUM_TOL = 1e-6"),
    ("check_eps_pk: leak_xy <= 2 * eps", "protocol.py",
     "report.leak_xy <= eps", "report.leak_xy <= 2 * eps"),
    ("DEFAULT_CI_TOL 1e-9 -> 1e-4", "structure.py",
     "DEFAULT_CI_TOL = 1e-9", "DEFAULT_CI_TOL = 1e-4"),
    ("row rule: NUM_TOL -> 1e-6", "structure.py",
     "from .dist import NUM_TOL, JointPmf, _count, _table",
     "from .dist import JointPmf, _count, _table\nNUM_TOL = 1e-6"),
    ("row rule: projection filter with no room", "structure.py",
     "> 2.0 * NUM_TOL * width", "> 0.0 * NUM_TOL * width"),
    ("hull rule: NUM_TOL -> 1e-6", "regions.py",
     "_point_segment_distance(q, o, b) > NUM_TOL",
     "_point_segment_distance(q, o, b) > 1e-6"),
    ("hull rule: no band", "regions.py",
     "_point_segment_distance(q, o, b) > NUM_TOL",
     "_point_segment_distance(q, o, b) > 0.0 * NUM_TOL"),
    ("hull rule: band to the line, not the segment", "regions.py",
     "_point_segment_distance(q, o, b) > NUM_TOL",
     "-_left_of(o, b, q) > NUM_TOL"),
    ("hull rule: weigh only the vertex skipped", "regions.py",
     "pts[chain[-2] + 1:k]", "[pts[chain[-1]]]"),
    ("hull rule: weigh passed points for an inner vertex too", "regions.py",
     "if _cross(grid_o, pts[chain[-1]][1], grid_b) > 0 and any(",
     "if any("),
    ("hull rule: vertex side on the doubles", "regions.py",
     "_cross(grid_o, pts[chain[-1]][1], grid_b) > 0",
     "_cross(o, pts[chain[-1]][0], b) > 0"),
    ("hull rule: passed points' side on the doubles", "regions.py",
     "_cross(grid_o, grid_q, grid_b) > 0", "_cross(o, q, b) > 0"),
    ("inside test: cross product on the doubles", "regions.py",
     "_left_of(p0, p1, point) >= 0.0",
     "(p1[0] - p0[0]) * (point[1] - p0[1])\n"
     "                              >= (p1[1] - p0[1]) * (point[0] - p0[0])"),
    ("segment distance: far end as p0 + (p1 - p0)", "regions.py",
     "(p1, 0.0) if t >= 1.0 else (p0, max(0.0, t))",
     "(p0, max(0.0, min(1.0, t)))"),
    ("_ci_residual: mean for max", "structure.py",
     "float(resid.max())", "float(resid.mean())"),
    ("leak_xy: min for max", "protocol.py",
     "leak_xy=_clip0(max(", "leak_xy=_clip0(min("),
    ("transcript radix reversed", "protocol.py",
     "    transcript = 0\n"
     "    for side, slot in spoken:\n"
     "        message = slot.table[grids[side], transcript]\n"
     "        transcript = transcript * slot.alphabet_size + message\n",
     "    transcript, radix = 0, 1\n"
     "    for side, slot in spoken:\n"
     "        message = slot.table[grids[side], transcript]\n"
     "        transcript = transcript + message * radix\n"
     "        radix *= slot.alphabet_size\n"),
    ("hull keeps collinear points", "regions.py",
     "if _cross(grid_o, pts[chain[-1]][1], grid_b) > 0 and any(\n"
     "                    _cross(grid_o, grid_q, grid_b) > 0\n"
     "                    and _point_segment_distance(q, o, b) > NUM_TOL\n"
     "                    for q, grid_q in pts[chain[-2] + 1:k]):",
     "if _cross(grid_o, pts[chain[-1]][1], grid_b) >= 0:"),
    ("_clip0 window: -NUM_TOL -> -1e-6", "dist.py",
     "-NUM_TOL <= v <= NUM_TOL", "-1e-6 <= v <= NUM_TOL"),
    ("_clip0 window: NUM_TOL -> 1e-6", "dist.py",
     "-NUM_TOL <= v <= NUM_TOL", "-NUM_TOL <= v <= 1e-6"),
)


def first_failure(output: str) -> str:
    """The first test the summary of a pytest run names as failed."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.M)
    return found.group(1) if found else "(no test named)"


def run_mutant(tree, label, name, old, new) -> bool | None:
    """Whether tier-1 kills the mutant in ``tree``; None if ``old`` is not
    in its file."""
    path = tree / "src" / "pkregion" / name
    text = path.read_text()
    if old not in text:
        print(f"STALE    {label}: {name} lacks {old!r}")
        return None
    path.write_text(text.replace(old, new))
    try:
        clock = time.perf_counter()
        run = subprocess.run([sys.executable, *TIER1], cwd=tree,
                             env={**clean_env(), "PYTHONPATH": "src"},
                             capture_output=True, text=True)
    finally:
        path.write_text(text)
    seconds = time.perf_counter() - clock
    if run.returncode == 0:
        print(f"SURVIVED {label} ({seconds:.0f} s)")
        return False
    print(f"killed   {label} by {first_failure(run.stdout)} "
          f"({seconds:.0f} s)")
    return True


def main(args) -> int:
    if len(args) > 1:
        print("usage: python tools/mutants.py [REV]", file=sys.stderr)
        return 2
    shas = resolve(args or ["HEAD"])
    with source_trees(shas, WORK) as trees:
        tree = trees[0].parent
        outcomes = [run_mutant(tree, *mutant) for mutant in MUTANTS]
    killed = outcomes.count(True)
    print(f"mutants {shas[0]}: {len(MUTANTS)} listed, {killed} killed, "
          f"{outcomes.count(False)} survived, {outcomes.count(None)} stale")
    if None in outcomes:
        return 2
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
