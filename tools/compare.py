"""Byte-identity check of the pkregion CLI between two revisions.

Usage (from the repository root)::

    python tools/compare.py BASE [HEAD]

BASE and HEAD are git revisions; HEAD defaults to the working tree. Each is
checked out under ``.perfbench_work/compare/``, and both trees run one
corpus, with the same input paths, each in its own runner process
(``checkouts.py``). The corpus:

* every ``data/`` source through ``compute`` and ``check``, at the default
  ``--tol-ci`` and at 1;
* ``compute`` and ``check`` of the tie source ``TIE_SOURCE``, whose second
  inner region has an XY cap 4.4e-16 past its sum cap, so that a change to
  how cap corners become vertices shows;
* ``compute`` and ``check`` of ``HALF_STEP_SOURCE``, whose Y symbols 0 and
  1 have rows one ulp apart on either side of a 12-decimal half-step, so
  that a change to how the sufficient statistic merges rows shows;
* ``simulate`` of ``PERFECT_KEY_SOURCE`` with ``direct_extraction_n2`` at
  ``--eps 0``, whose XY key is perfect but whose leak is computed as
  2.2e-16, so that a change to the window around 0 shows;
* ``simulate`` of every ``data/`` source with both shipped protocols, at
  ``--eps`` 0 and 0.5, and with ``--budget 1`` (exit code 3);
* every distinct request of the four benchmark workloads at seeds 1 and 51
  (``checkouts.workload_requests``);
* command lines that the parser refuses or answers with help, and flags
  given as an abbreviation or joined to their value (``PARSER_RUNS``), at
  a usage width of 80 columns;
* the pmf ``tight_8x32x32_c1`` of ``regions-tight`` and the protocol
  ``bsc_r1_n4`` of ``simulate-interactive`` at seed 1 (``VARIED``) in each
  of the ``LAYOUTS`` of ``tests/variants.py``, and as every malformed
  variant and refused file that module makes of them; and the module's
  ``[true] and [0.0] rows`` variant of ``direct_extraction_n2``. The
  agreement tests in
  ``tests/test_properties.py`` run each of these against json, on drawn
  files; this corpus runs them tree against tree.

The corpus has 490 runs; the tier-1 tests build it without running it.

Exit code, stdout and stderr are compared byte for byte. Each differing run
is printed with what differs. For reports that differ, each report field
(list positions folded into ``[]``) is printed once, with its largest
absolute difference and the run that gave it, how many of its values
changed over all runs, and how many of those went from within ``NUM_TOL``
of 0 to exactly 0.0. The last line is a summary. The exit code is 0 when
no run differs, 1 when one does (no difference is ever accepted), and 2
when a runner dies or on a usage error.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

from checkouts import ROOT, names, resolve, runner, source_trees, \
    workload_requests

WORK = ROOT / ".perfbench_work" / "compare"
sys.path.insert(0, str(ROOT / "tests"))

import variants  # noqa: E402

SEEDS = (1, 51)
# pkregion.dist.NUM_TOL, the window around 0 in which a figure reads 0.0
NUM_TOL = 1e-12
SOURCES = ("bsc_source.json", "independent_source.json",
           "worked_source.json", "xy_pair_source.json")
PROTOCOLS = ("direct_extraction_n2.json", "worked_recovery_n1.json")
# 2x3x3, integer weights / 20, Z fastest: region 2 of its inner bound has
# caps (a, b, s) = (0.38446099142050016, 0.0, 0.3844609914204997)
TIE_SOURCE = """{
  "schema": "pkregion-pmf-v1",
  "variables": ["X", "Y", "Z"],
  "cardinalities": [2, 3, 3],
  "pmf": [0.0, 0.0, 0.0, 0.0, 0.15, 0.1, 0.05, 0.0, 0.05,
          0.0, 0.15, 0.15, 0.0, 0.0, 0.15, 0.1, 0.0, 0.1]
}
"""
# 2x3x2, Z fastest: Y = 0 forces X = 0 and Y = 1 forces X = 1, with Z
# drawn from (v, 1 - v), v = 0.3000000000005, under both; Y = 2 is X = Z
HALF_STEP_SOURCE = """{
  "schema": "pkregion-pmf-v1",
  "variables": ["X", "Y", "Z"],
  "cardinalities": [2, 3, 2],
  "pmf": [0.07606394622314988, 0.17748254118692716, 0.0, 0.0,
          0.18065720184607117, 0.0, 0.0, 0.0, 0.11554173266952678,
          0.26959737622825397, 0.0, 0.18065720184607117]
}
"""
# 4x2x2, Z fastest: X = (Y, Z) as 2y + z, Y a fair bit and Z a bit of bias
# q = 0.04097352393619469
PERFECT_KEY_SOURCE = """{
  "schema": "pkregion-pmf-v1",
  "variables": ["X", "Y", "Z"],
  "cardinalities": [4, 2, 2],
  "pmf": [0.47951323803190266, 0.0, 0.0, 0.0, 0.0, 0.020486761968097345,
          0.0, 0.0, 0.0, 0.0, 0.47951323803190266, 0.0, 0.0, 0.0, 0.0,
          0.020486761968097345]
}
"""

# Help, usage errors, an abbreviated flag and a flag joined to its value;
# {source} stands for a data/ source. A parser error is an exit code with
# argparse's usage message on stderr.
PARSER_RUNS = (
    ("compute", "-h"), ("-h",), (), ("frobnicate",), ("version", "extra"),
    ("simulate", "--budget"), ("compute", "--budget", "5"),
    ("check", "--tol-ci", "abc"), ("compute", "--inp", "{source}"),
    ("compute", "--input={source}"))

# key of its large table -> (folder, file) of each varied workload file
VARIED = {"pmf": ("regions-tight-seed1", "tight_8x32x32_c1.json"),
          "key_xy": ("simulate-interactive-seed1", "bsc_r1_n4.json")}


# -- corpus ---------------------------------------------------------------------

def build_corpus(corpus: Path) -> list:
    """Write every input under ``corpus``; return the argv of each run."""
    data = ROOT / "data"
    runs = []

    def write(name, text):
        path = corpus / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return str(path)

    for name in sorted(p.name for p in data.glob("*.json")):
        write(f"data/{name}", (data / name).read_bytes())
    src = {name: str(corpus / "data" / name) for name in SOURCES + PROTOCOLS}
    for name in SOURCES:
        for command in ("compute", "check"):
            for tol in ([], ["--tol-ci", "1"]):
                runs.append([command, "--input", src[name], *tol])
        for protocol in PROTOCOLS:
            for eps in ("0", "0.5"):
                runs.append(["simulate", "--input", src[name], "--protocol",
                             src[protocol], "--eps", eps])
    runs += [[arg.format(source=src["worked_source.json"]) for arg in argv]
             for argv in PARSER_RUNS]
    for name, text in (("tie_source.json", TIE_SOURCE),
                       ("half_step_source.json", HALF_STEP_SOURCE)):
        path = write(name, text)
        runs += [["compute", "--input", path], ["check", "--input", path]]
    runs.append(["simulate", "--input",
                 write("perfect_key_source.json", PERFECT_KEY_SOURCE),
                 "--protocol", src["direct_extraction_n2.json"], "--eps", "0"])
    for source, protocol in zip(("xy_pair_source.json", "worked_source.json"),
                                PROTOCOLS):
        runs.append(["simulate", "--input", src[source], "--protocol",
                     src[protocol], "--budget", "1"])

    runs += [argv for *_, argv in workload_requests(SEEDS, corpus)]

    source = str(corpus / "simulate-interactive-seed1" /
                 "bsc_seeded_source.json")
    for key, (folder, name) in VARIED.items():
        text = (corpus / folder / name).read_bytes().decode()
        kind = "pmf" if key == "pmf" else "protocol"
        doc = json.loads(text)
        files = {f"{label} layout": layout(doc)
                 for label, layout in variants.LAYOUTS.items()}
        files.update(variants.variant_files(text, key, variants.middle))
        for variant, content in files.items():
            path = write(f"variants/{kind} {variant}.json", content)
            if kind == "pmf":
                runs += [["compute", "--input", path],
                         ["check", "--input", path]]
            else:
                runs.append(["simulate", "--input", source, "--protocol",
                             path])
    runs.append(["simulate", "--input", source, "--protocol",
                 str(corpus / "simulate-interactive-seed1" / "bsc_r1_n4.json"),
                 "--budget", "1000"])
    path = write("variants/direct extraction [true] and [0.0] rows.json",
                 variants.protocol_variant(
                     (data / "direct_extraction_n2.json").read_text(),
                     "key_xy", "[true] and [0.0] rows", variants.middle))
    runs.append(["simulate", "--input", src["xy_pair_source.json"],
                 "--protocol", path])
    return runs


# -- running --------------------------------------------------------------------

def leaves(value, path=""):
    """(path, value) of every non-container value; list positions are []."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item, f"{path}[]")
    else:
        yield path, value


def field_differences(base: str, head: str) -> dict:
    """Field -> (largest absolute difference, values changed, values that
    went from within ``NUM_TOL`` of 0 to exactly 0.0) between two reports;
    the difference is inf where a value changed kind, or a field came or
    went."""
    try:
        a, b = json.loads(base), json.loads(head)
    except ValueError:
        return {}
    out = {}
    fa, fb = list(leaves(a)), list(leaves(b))
    if [p for p, _ in fa] != [p for p, _ in fb]:
        return {"(field list)": (math.inf, 1, 0)}
    for (path, x), (_, y) in zip(fa, fb):
        if x == y and type(x) is type(y):
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (x, y))
        diff = abs(x - y) if numbers else math.inf
        zeroed = numbers and abs(x) <= NUM_TOL and y == 0.0 \
            and type(y) is float
        largest, changed, zeroes = out.get(path, (0.0, 0, 0))
        out[path] = (max(largest, diff), changed + 1, zeroes + zeroed)
    return out


def first_line(text: str) -> str:
    return text.splitlines()[0] if text else "(empty)"


def report(runs, base, head, corpus) -> tuple:
    """Print each differing run, then per report field the largest
    difference and the values changed and zeroed; return the number of runs
    that differ and the count per part."""
    differ = {"exit code": 0, "stdout": 0, "stderr": 0}
    fields = {}  # field -> [largest difference, its run, changed, zeroed]
    count = 0
    for argv, a, b in zip(runs, base, head):
        what = [part for part, x, y in zip(differ, a, b) if x != y]
        if not what:
            continue
        count += 1
        label = " ".join(os.path.relpath(arg, corpus) if arg.startswith("/")
                         else arg for arg in argv)
        print(f"DIFF {label}")
        for part in what:
            differ[part] += 1
        if "exit code" in what:
            print(f"  exit code {a[0]} -> {b[0]}")
        if "stderr" in what:
            print(f"  stderr {first_line(a[2])!r}\n"
                  f"      -> {first_line(b[2])!r}")
        for field, (diff, changed, zeroed) in \
                field_differences(a[1], b[1]).items():
            stats = fields.setdefault(field, [-1.0, label, 0, 0])
            if diff > stats[0]:
                stats[:2] = diff, label
            stats[2] += changed
            stats[3] += zeroed
    for field, (diff, label, changed, zeroed) in sorted(fields.items()):
        print(f"FIELD {field}: largest |difference| {diff:.3g} at {label}; "
              f"{changed} changed, {zeroed} from within {NUM_TOL:g} of 0 "
              "to 0.0")
    return count, differ


def main(args) -> int:
    if not 1 <= len(args) <= 2:
        print("usage: python tools/compare.py BASE [HEAD]", file=sys.stderr)
        return 2
    clock = time.perf_counter()
    shas = resolve(args)
    shutil.rmtree(WORK, ignore_errors=True)
    corpus = WORK / "corpus"
    runs = build_corpus(corpus)
    (WORK / "runs.jsonl").write_text(
        "".join(json.dumps(argv) + "\n" for argv in runs))
    with source_trees(shas, WORK) as trees:
        procs = []
        for side, src in enumerate(trees):  # both trees at once
            with open(WORK / "runs.jsonl") as stdin, \
                    open(WORK / f"results{side}.jsonl", "w") as stdout:
                procs.append(runner(src, corpus, stdin, stdout))
        if any([proc.wait() for proc in procs]):
            print("a runner died", file=sys.stderr)
            return 2
    base, head = ([json.loads(line) for line in
                   (WORK / f"results{side}.jsonl").read_text().splitlines()]
                  for side in (0, 1))
    count, differ = report(runs, base, head, corpus)
    print(f"compare {names(shas)}: {len(runs)} runs, {count} differ "
          f"(exit code {differ['exit code']}, stdout {differ['stdout']}, "
          f"stderr {differ['stderr']}) in {time.perf_counter() - clock:.1f} s")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
