"""Byte-identity check of the pkregion CLI between two revisions.

Usage (from the repository root)::

    python tools/compare.py BASE [HEAD]

BASE and HEAD are git revisions; HEAD defaults to the working tree. Each
revision is checked out with ``git worktree`` under
``.perfbench_work/compare/`` and removed again at the end, by
``checkouts.py``. Both trees run one corpus, with the same input paths,
each in its own process that calls ``pkregion.cli.main`` once per run. The
corpus:

* every ``data/`` source through ``compute`` and ``check``, at the default
  ``--tol-ci`` and at 1;
* ``compute`` and ``check`` of the tie source ``TIE_SOURCE``, whose second
  inner region has an XY cap 4.4e-16 past its sum cap, so that a change to
  how cap corners become vertices shows;
* ``simulate`` of every ``data/`` source with both shipped protocols, at
  ``--eps`` 0 and 0.5, and with ``--budget 1`` (exit code 3);
* every distinct request of the four benchmark workloads at seeds 1 and 51,
  generated by ``perfbench/workloads.py``;
* command lines that the parser refuses or answers with help, and flags
  given as an abbreviation or joined to their value (``PARSER_RUNS``), at
  a usage width of 80 columns;
* malformed variants of the pmf ``tight_8x32x32_c1`` of ``regions-tight``
  and of the protocol ``bsc_r1_n4`` of ``simulate-interactive`` (seed 1),
  among them sizes and counts that are no integers or too small, ``n`` and
  a slot's ``alphabet_size`` given as a 300x8 table, and protocols that
  hold a boolean among integral floats;
* variants of the same two files with a field put just ahead of the pmf
  list or the ``key_xy`` table (``FIELDS_AHEAD``): a string holding
  ``Infinity``, ``NaN``, ``[[`` or ``[0``, and an unknown field holding
  ``-Infinity``. The scan for large tables knows no strings or constants,
  so these files go to json whole;
* encoded variants of the same two files (``encoded_variants``), which only
  a reader of the file's bytes tells apart: a line break after every
  ``", "``, ended by CR LF or by a lone CR, whole and cut short; a UTF-8
  BOM; a byte that is not UTF-8 ahead of the table, inside it and after
  the last table; a string past ASCII ahead of the table; and a raw CR in
  a string. Tables are found and read on the bytes, and json must still
  read, or refuse, the text as the file opened as text gives it.

Exit code, stdout and stderr are compared byte for byte. Each differing run
is printed with what differs; for reports that differ, the largest absolute
difference of each report field (list positions folded into ``[]``) and the
run that gave it. The last line is a summary. The exit code is 0 when no run
differs and 1 otherwise; no difference is ever accepted.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

from checkouts import ROOT, clean_env, names, resolve, source_trees

WORK = ROOT / ".perfbench_work" / "compare"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEEDS = (1, 51)
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

# Help, usage errors, an abbreviated flag and a flag joined to its value;
# {source} stands for a data/ source. A parser error is an exit code with
# argparse's usage message on stderr.
PARSER_RUNS = (
    ("compute", "-h"), ("-h",), (), ("frobnicate",), ("version", "extra"),
    ("simulate", "--budget"), ("compute", "--budget", "5"),
    ("check", "--tol-ci", "abc"), ("compute", "--inp", "{source}"),
    ("compute", "--input={source}"))

# Runs in each tree's own process: the runs' argv lists in, each run's
# exit code, stdout and stderr out. An exception that escapes main is an
# outcome too.
RUNNER = """
import contextlib, io, json, sys
src, runs, results = sys.argv[1:]
sys.path.insert(0, src)
import pkregion.cli
assert pkregion.cli.__file__.startswith(src), pkregion.cli.__file__
outcomes = []
for argv in json.load(open(runs)):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pkregion.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"uncaught {type(exc).__name__}: {exc}"
    outcomes.append([code, out.getvalue(), err.getvalue()])
json.dump(outcomes, open(results, "w"))
"""


# -- malformed inputs -----------------------------------------------------------

# a number of the pmf list -> its replacement
PMF_NUMBER_MUTATIONS = {
    "NaN": lambda v: "NaN",
    "Infinity": lambda v: "Infinity",
    "-Infinity": lambda v: "-Infinity",
    "true": lambda v: "true",
    "false": lambda v: "false",
    "null": lambda v: "null",
    "string": lambda v: json.dumps(v),
    "string holding ]": lambda v: '"]"',
    "nested list": lambda v: f"[{v}]",
    "object": lambda v: "{}",
    "01": lambda v: "01",
    "1.": lambda v: "1.",
    ".5": lambda v: ".5",
    "+1": lambda v: "+1",
    "10**400": lambda v: str(10 ** 400),
    "1e400": lambda v: "1e400",
    "1.7976931348623159e308": lambda v: "1.7976931348623159e308",
    "Arabic-Indic digit": lambda v: "\u0661" + v[1:],
    "trailing no-break space": lambda v: v + "\u00a0",
}
# an extra list this many zeros long is past the large-table threshold
# (ioformats.LARGE_TABLE_CHARS, 2048 characters)
LONG_ZEROS = 2048
# name -> a field that json reads, put just ahead of a large table
FIELDS_AHEAD = {
    "Infinity string": '"note": "Infinity"',
    "NaN string": '"note": "NaN"',
    "-Infinity field": '"extra": -Infinity',
    "[[ string": '"note": "[["',
    "[0 string": '"note": "[0"',
}
# a table past the threshold, given where an integer belongs
LARGE_TABLE = json.dumps([[0] * 8] * 300)


def fields_ahead(text, key, prefix):
    """Name -> ``text`` with each of ``FIELDS_AHEAD`` put just ahead of the
    field ``key``."""
    at = text.index(json.dumps(key))
    return {f"{prefix} {name} ahead of {key}": text[:at] + field + ", "
            + text[at:] for name, field in FIELDS_AHEAD.items()}


def pmf_variants(text):
    """Name -> text of each malformed variant of a pmf file."""
    start = text.index("[", text.index('"pmf"'))
    end = text.index("]", start) + 1
    values = text[start:end]
    numbers = list(re.finditer(r"-?[0-9][0-9.eE+-]*", values))
    number = numbers[len(numbers) // 2]
    opening = text.index("{") + 1

    def with_values(new):
        return text[:start] + new + text[end:]

    def ahead(field):
        return text[:opening] + field + ", " + text[opening:]

    out = {f"pmf number {name}": with_values(
        values[:number.start()] + mutate(number.group())
        + values[number.end():])
        for name, mutate in PMF_NUMBER_MUTATIONS.items()}
    reversed_values = ", ".join(reversed(values[1:-1].split(",")))
    for length in ("short", "long"):
        zeros = "0, " * (LONG_ZEROS if length == "long" else 1)
        out[f"pmf extra {length} list holding NaN"] = ahead(
            f'"extra": [{zeros}NaN]')
        out[f"pmf extra {length} list holding a quoted ], list as schema"] = \
            ahead(f'"extra": [{zeros}"]"]').replace(
                '"pkregion-pmf-v1"', json.dumps(values), 1)
    out.update({f"pmf cardinalities [{bad}, ...]": re.sub(
        r'("cardinalities": *\[)[0-9]+', rf"\g<1>{bad}", text, count=1)
        for bad in ("0", "2.5", "true")})
    out.update({
        "pmf trailing comma": with_values(values[:-1] + ",]"),
        "pmf blank list": with_values("[" + " " * (len(values) - 2) + "]"),
        "pmf empty list": with_values("[]"),
        "pmf second pmf key": text[:text.rindex("}")]
        + f', "pmf": [{reversed_values}]' + text[text.rindex("}"):],
        "pmf list in a string": ahead(f'"note": {json.dumps(values)}'),
        "pmf list as schema": text.replace('"pkregion-pmf-v1"', values, 1),
        "pmf bare list": values,
        "pmf truncated file": text[:len(text) // 2],
        "pmf tab after [": with_values("[\t" + values[1:]),
        "pmf ] removed": with_values(values[:-1]),
    })
    out.update(fields_ahead(text, "pmf", "pmf"))
    return out


# a cell of key_xy -> its replacement
CELL_MUTATIONS = {
    "3-D cell": lambda v: "[1, 2]",
    "true": lambda v: "true",
    "1.0": lambda v: "1.0",
    "1e0": lambda v: "1e0",
    "99": lambda v: "99",
    "2**63-1": lambda v: str(2 ** 63 - 1),
    "2**63": lambda v: str(2 ** 63),
    "2**64": lambda v: str(2 ** 64),
    "-1": lambda v: "-1",
    "leading zero": lambda v: "0" + v,
    "null": lambda v: "null",
    "string": lambda v: '"1"',
    "NaN": lambda v: "NaN",
    "Arabic-Indic digit": lambda v: "\u0661",
    "trailing no-break space": lambda v: v + "\u00a0",
    "+1": lambda v: "+" + v,
}


def table_span(text, key):
    start = text.index("[", text.index(json.dumps(key)))
    return start, re.compile(r"\][ \t\n\r]*\]").search(text, start).end()


def protocol_variants(text):
    """Name -> text of each malformed variant of a protocol file; its
    ``key_xy`` table is the one changed."""
    start, end = table_span(text, "key_xy")
    table = text[start:end]
    cells = list(re.finditer(r"[0-9]+", table))
    middle = len(cells) // 2
    row_end = table.index("]")
    opening = text.index("{") + 1

    def with_table(new):
        return text[:start] + new + text[end:]

    def with_field(key, value, within=text):
        """The first integer field ``key`` of ``within`` set to ``value``."""
        return re.sub(rf'"{key}": *[0-9]+', f'"{key}": {value}', within,
                      count=1)

    def with_cells(replacements):
        """The table with cell i's text replaced, for each (i, text)."""
        new = table
        for i, replacement in sorted(replacements.items(), reverse=True):
            new = new[:cells[i].start()] + replacement + new[cells[i].end():]
        return new

    flagged = text[:opening] + '"flag": true, ' + text[opening:]
    ragged = table[:row_end] + ",0" + table[row_end:]
    out = {f"protocol cell {name}": with_table(
        with_cells({middle: mutate(cells[middle].group())}))
        for name, mutate in CELL_MUTATIONS.items()}
    other = text[slice(*table_span(text, "est_xy"))]
    out.update({
        "protocol ragged row": with_table(ragged),
        "protocol empty row": with_table(table[:1] + "[]," + table[1:]),
        "protocol trailing comma": with_table(
            table[:row_end] + "," + table[row_end:]),
        "protocol missing comma": with_table(table.replace(",", " ", 1)),
        "protocol table in a string": text[:opening]
        + f'"note": {json.dumps(other)}, ' + text[opening:],
        "protocol table nested once more": with_table(f"[{table}]"),
        "protocol closing ]] removed": with_table(table[:-2]),
        "protocol truncated file": text[:len(text) // 2],
        "protocol true field": flagged,
        "protocol ragged row, true field": flagged.replace(table, ragged, 1),
        "protocol indent=2": json.dumps(json.loads(text), indent=2),
        "protocol n NaN": with_field("n", "NaN"),
        "protocol n 2.5": with_field("n", "2.5"),
        "protocol n true": with_field("n", "true"),
        "protocol key_xy_size 0": with_field("key_xy_size", "0"),
        "protocol slot 1 alphabet_size true": with_field(
            "alphabet_size", "true"),
        # the slots are built first, so the slot is reported
        "protocol n 2.5, slot 1 alphabet_size true": with_field(
            "alphabet_size", "true", with_field("n", "2.5")),
        "protocol slots for another round count": with_field("rounds", "2"),
        "protocol n as a large table": with_field("n", LARGE_TABLE),
        "protocol slot 1 alphabet_size as a large table": with_field(
            "alphabet_size", LARGE_TABLE),
        # numpy reads such a table as floats; the boolean must not become 1
        "protocol true and 1.0 cells": with_table(
            with_cells({0: "true", middle: "1.0"})),
    })
    out.update(fields_ahead(text, "key_xy", "protocol"))
    return out


def encoded_variants(text, key, prefix):
    """Name -> bytes of each encoded variant of a file, around its large
    table stored under ``key``."""
    at = text.index(json.dumps(key))
    inside = text.index(",", text.index("[", at)) + 1
    closing = text.rindex("}")

    def put(pos, raw):
        return text[:pos].encode() + raw + text[pos:].encode()

    out = {}
    for name, end in (("CRLF", "\r\n"), ("lone CR", "\r")):
        lines = text.replace(", ", ",\n").replace("\n", end)
        out[f"{prefix} {name} line ends"] = lines.encode()
        out[f"{prefix} {name} line ends, cut short"] = \
            lines[:len(lines) // 2].encode()
    out.update({
        f"{prefix} UTF-8 BOM": b"\xef\xbb\xbf" + text.encode(),
        f"{prefix} invalid byte ahead of {key}": put(at, b'"note": "\xff", '),
        f"{prefix} invalid byte inside {key}": put(inside, b"\xff"),
        f"{prefix} invalid byte after the tables": put(
            closing, b', "note": "\xff"'),
        f"{prefix} non-ASCII string ahead of {key}": put(
            at, '"note": "Zürich ✓", '.encode()),
        f"{prefix} raw CR in a string": put(at, b'"note": "a\rb", '),
    })
    return out


def boolean_among_floats(text):
    """A protocol file whose first two ``key_xy`` rows are [true], [0.0]."""
    start, end = table_span(text, "key_xy")
    rows = re.findall(r"\[[^\[\]]*\]", text[start + 1:end - 1])
    table = "[" + ", ".join(["[true]", "[0.0]"] + rows[2:]) + "]"
    return text[:start] + table + text[end:]


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
    path = write("tie_source.json", TIE_SOURCE)
    runs += [["compute", "--input", path], ["check", "--input", path]]
    for source, protocol in zip(("xy_pair_source.json", "worked_source.json"),
                                PROTOCOLS):
        runs.append(["simulate", "--input", src[source], "--protocol",
                     src[protocol], "--budget", "1"])

    generated = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            files, requests = workloads.build(workload, seed, data)
            folder = f"{workload}-seed{seed}"
            paths = {name: write(f"{folder}/{name}", text)
                     for name, text in files.items()}
            generated[folder] = files
            for req in requests:
                argv = [req.command, "--input", paths[req.input]]
                if req.protocol:
                    argv += ["--protocol", paths[req.protocol]]
                if argv not in runs:
                    runs.append(argv)

    pmf = generated["regions-tight-seed1"]["tight_8x32x32_c1.json"].decode()
    for name, text in {**pmf_variants(pmf),
                       **encoded_variants(pmf, "pmf", "pmf")}.items():
        path = write(f"malformed/{name}.json", text)
        runs += [["compute", "--input", path], ["check", "--input", path]]
    source = str(corpus / "simulate-interactive-seed1" /
                 "bsc_seeded_source.json")
    protocol = generated["simulate-interactive-seed1"]["bsc_r1_n4.json"]
    for name, text in {
            **protocol_variants(protocol.decode()),
            **encoded_variants(protocol.decode(), "key_xy", "protocol")
    }.items():
        path = write(f"malformed/{name}.json", text)
        runs.append(["simulate", "--input", source, "--protocol", path])
    runs.append(["simulate", "--input", source, "--protocol",
                 str(corpus / "simulate-interactive-seed1" / "bsc_r1_n4.json"),
                 "--budget", "1000"])
    path = write("malformed/direct extraction, [true] and [0.0] rows.json",
                 boolean_among_floats(
                     (data / "direct_extraction_n2.json").read_text()))
    runs.append(["simulate", "--input", src["xy_pair_source.json"],
                 "--protocol", path])
    return runs


# -- running --------------------------------------------------------------------

def start(src: Path, runs_path: Path, results_path: Path, corpus: Path):
    return subprocess.Popen(
        [sys.executable, "-c", RUNNER, str(src), str(runs_path),
         str(results_path)], cwd=corpus,
        env={**clean_env(), "COLUMNS": "80"})


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
    """Field -> largest absolute difference (inf where a value changed
    kind, or a field came or went) between two reports."""
    try:
        a, b = json.loads(base), json.loads(head)
    except ValueError:
        return {}
    out = {}
    fa, fb = list(leaves(a)), list(leaves(b))
    if [p for p, _ in fa] != [p for p, _ in fb]:
        return {"(field list)": math.inf}
    for (path, x), (_, y) in zip(fa, fb):
        if x == y and type(x) is type(y):
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (x, y))
        diff = abs(x - y) if numbers else math.inf
        out[path] = max(out.get(path, 0.0), diff)
    return out


def first_line(text: str) -> str:
    return text.splitlines()[0] if text else "(empty)"


def report(runs, base, head, corpus) -> tuple:
    """Print each differing run and the largest difference per report
    field; return the number of runs that differ and the count per part."""
    differ = {"exit code": 0, "stdout": 0, "stderr": 0}
    largest = {}
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
        for field, diff in field_differences(a[1], b[1]).items():
            if diff > largest.get(field, (-1.0,))[0]:
                largest[field] = (diff, label)
    for field, (diff, label) in sorted(largest.items()):
        print(f"FIELD {field}: largest |difference| {diff:.3g} at {label}")
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
    (WORK / "runs.json").write_text(json.dumps(runs))
    with source_trees(shas, WORK) as trees:
        procs = [start(src, WORK / "runs.json", WORK / f"results{i}.json",
                       corpus) for i, src in enumerate(trees)]
        if any([proc.wait() for proc in procs]):
            print("a runner failed", file=sys.stderr)
            return 2
        base, head = (json.loads((WORK / f"results{i}.json").read_text())
                      for i in range(2))
    count, differ = report(runs, base, head, corpus)
    print(f"compare {names(shas)}: {len(runs)} runs, {count} differ "
          f"(exit code {differ['exit code']}, stdout {differ['stdout']}, "
          f"stderr {differ['stderr']}) in {time.perf_counter() - clock:.1f} s")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
