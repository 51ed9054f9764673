import json
import os
import re
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pkregion
from pkregion import __version__
from pkregion.cli import main
from pkregion.ioformats import dumps_deterministic, pmf_document

from conftest import assert_report_fields, bsc_pmf, worked_pmf


def write_pmf(tmp_path, p, name="source.json"):
    path = tmp_path / name
    path.write_text(dumps_deterministic(pmf_document(p)))
    return str(path)


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one in-process call; a parser error's
    ``SystemExit`` gives its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes and diagnostics -----------------------------------------------------

def test_version_command(capsys):
    code, out, err = run_cli(capsys, "version")
    assert code == 0
    assert out.strip() == f"pkregion {__version__}"
    assert err == ""


def test_compute_success_emits_valid_document(tmp_path, capsys):
    src = write_pmf(tmp_path, worked_pmf())
    code, out, err = run_cli(capsys, "compute", "--input", src)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert_report_fields(doc, "pkregion-regions-v4")
    assert doc["regions"]["outer"]["vertices"] == [[0.0, 0.0], [1.0, 0.0],
                                                   [0.0, 1.0]]
    assert doc["det_correlated"] is True
    assert doc["regions"]["exact"]["provenance"] == "exact-thm4"


def test_check_success(tmp_path, capsys):
    src = write_pmf(tmp_path, bsc_pmf())
    code, out, _ = run_cli(capsys, "check", "--input", src)
    assert code == 0
    doc = json.loads(out)
    assert_report_fields(doc, "pkregion-check-v4")
    assert doc["det_correlated"] is False
    assert doc["ci_residual"] > 0.1
    assert doc["mcf_components"] == 1


def test_simulate_success(tmp_path, capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "simulate",
        "--input", f"{data_dir}/xy_pair_source.json",
        "--protocol", f"{data_dir}/direct_extraction_n2.json",
        "--eps", "0")
    assert code == 0
    doc = json.loads(out)
    assert_report_fields(doc, "pkregion-evaluation-v2")
    assert doc["eps_pk"] == {"xy": True, "xz": True}
    assert doc["rate_point"] == [1.0, 1.0]
    assert doc["in_outer_region"] is True
    assert all(doc["evaluation"][k] == 0.0 for k in
               ("error_xy", "error_xz", "leak_xy", "leak_xz"))


def test_invalid_input_exits_2_and_names_the_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = pmf_document(worked_pmf())
    doc["pmf"][0] += 0.5
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "compute", "--input", str(bad))
    assert code == 2
    assert out == ""
    assert "SUM_OUT_OF_TOLERANCE" in err


def test_nan_pmf_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({
        "schema": "pkregion-pmf-v1", "variables": ["X", "Y", "Z"],
        "cardinalities": [2, 2, 2],
        "pmf": [0.25, float("nan"), 0, 0.25, 0.25, 0, 0, 0.25]}))
    code, out, err = run_cli(capsys, "compute", "--input", str(bad))
    assert code == 2
    assert out == ""
    assert "NON_FINITE_ENTRY" in err


def test_pmf_entries_must_be_json_numbers(tmp_path, capsys):
    # each table sums to 1 once coerced, so only the entry types are wrong
    zeros = [0] * 6
    cases = (["0.5", "0.5"] + ["0"] * 6,
             [0.5, "0.5"] + zeros,
             [True] + [0] * 7,
             [0.5, 0.5, False] + [0] * 5,
             [1.0, None] + zeros,
             [[0.5, 0.5, 0, 0], [0, 0, 0, 0]],
             [10 ** 400] + [0] * 7)
    for table in cases:
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps({
            "schema": "pkregion-pmf-v1", "variables": ["X", "Y", "Z"],
            "cardinalities": [2, 2, 2], "pmf": table}))
        code, out, err = run_cli(capsys, "compute", "--input", str(bad))
        assert (code, out) == (2, ""), table
        assert "INPUT_FORMAT" in err, table


def test_non_integer_protocol_entry_exits_2(tmp_path, capsys, data_dir):
    cases = ((("est_xy", 1), 0.7, "MALFORMED_TABLE"),
             (("est_xy", 1), True, "MALFORMED_TABLE"),
             (("key_xy_size",), True, "INPUT_FORMAT"),
             (("key_xy_size",), 4.0, "INPUT_FORMAT"))
    for where, bad, code_name in cases:
        doc = json.loads(Path(data_dir, "direct_extraction_n2.json").read_text())
        if len(where) == 2:
            doc[where[0]][where[1]][0] = bad
        else:
            doc[where[0]] = bad
        path = tmp_path / "protocol.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "simulate",
            "--input", f"{data_dir}/xy_pair_source.json",
            "--protocol", str(path))
        assert code == 2
        assert out == ""
        assert code_name in err


def test_out_of_range_protocol_entry_is_named_as_given(tmp_path, capsys,
                                                       data_dir):
    """An entry of 2**63 among small ones makes the table float64; the range
    is checked before the int64 cast, which would wrap it to -2**63 (with a
    RuntimeWarning, an error under the test settings). An entry of 2**64
    fits no numpy integer, so the table holds Python integers as objects;
    they are still integers. A declared key size past 2**63 does not let
    either entry through."""
    for entry, key_size in product((2 ** 63, 2 ** 64), (4, 2 ** 64)):
        doc = json.loads(Path(data_dir, "direct_extraction_n2.json").read_text())
        doc["key_xy"][0][0] = entry
        doc["key_xy_size"] = key_size
        path = tmp_path / "protocol.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "simulate",
            "--input", f"{data_dir}/xy_pair_source.json",
            "--protocol", str(path))
        assert (code, out) == (2, ""), (entry, key_size)
        assert "MALFORMED_TABLE" in err
        assert f"got [0, {entry}]" in err


def test_missing_input_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "compute", "--input",
                           str(tmp_path / "absent.json"))
    assert code == 2
    assert "INPUT_FORMAT" in err


def test_budget_exceeded_exits_3(tmp_path, capsys, data_dir):
    code, _, err = run_cli(
        capsys, "simulate",
        "--input", f"{data_dir}/xy_pair_source.json",
        "--protocol", f"{data_dir}/direct_extraction_n2.json",
        "--budget", "10")
    assert code == 3
    assert "BUDGET_EXCEEDED" in err


def test_huge_blocklength_exits_3_at_once(tmp_path, capsys, data_dir):
    doc = json.loads(Path(data_dir, "direct_extraction_n2.json").read_text())
    for n in (10 ** 5, 10 ** 6):
        doc["n"] = n
        path = tmp_path / "protocol.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "simulate",
            "--input", f"{data_dir}/xy_pair_source.json",
            "--protocol", str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (3, "")
        assert "BUDGET_EXCEEDED" in err


def write_protocol_with_key_size(tmp_path, data_dir, digits):
    """The direct-extraction protocol with a ``digits``-digit XY key size."""
    text = Path(data_dir, "direct_extraction_n2.json").read_text()
    doc = json.loads(text)
    text = text.replace(f'"key_xy_size": {doc["key_xy_size"]}',
                        f'"key_xy_size": {"9" * digits}')
    path = tmp_path / "protocol.json"
    path.write_text(text)
    return str(path)


def test_huge_key_size_exits_3(tmp_path, capsys, data_dir):
    # as many digits as Python turns into an int by default
    protocol = write_protocol_with_key_size(tmp_path, data_dir, 4300)
    code, out, err = run_cli(capsys, "simulate",
                             "--input", f"{data_dir}/xy_pair_source.json",
                             "--protocol", protocol)
    assert (code, out) == (3, "")
    assert "BUDGET_EXCEEDED" in err


def write_protocol_with_slots(tmp_path, data_dir, slots):
    """The direct-extraction protocol (n = 2 on a 4×2×2 source) with one
    slot per (alphabet size, column count) pair, each table all zeros."""
    doc = json.loads(Path(data_dir, "direct_extraction_n2.json").read_text())
    rows = (16, 4, 4)
    doc["rounds"] = len(slots) // 3
    doc["slots"] = [{"alphabet_size": size,
                     "table": [[0] * columns] * rows[t % 3]}
                    for t, (size, columns) in enumerate(slots)]
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_huge_slot_alphabets_exit_2_at_once(tmp_path, capsys, data_dir):
    """Table shapes are checked before the budget, the transcript count
    built up slot by slot: 300 slots of 4300-digit alphabets fail at slot 2
    without a product of their sizes, and a count past 4300 digits (slot 1
    of size 2, slot 2 of 4300 digits) is named without printing it."""
    huge = int("9" * 4300)
    for slots in ([(huge, 1)] * 300, [(2, 1), (huge, 2), (1, 1)]):
        protocol = write_protocol_with_slots(tmp_path, data_dir, slots)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate",
                                 "--input", f"{data_dir}/xy_pair_source.json",
                                 "--protocol", protocol)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        # the file, then the source's sizes that set the expected rows
        assert err.startswith(f"error: MALFORMED_TABLE: {protocol}: slot ")
        assert re.search(r"the source's [YZ] has 2 symbols and n = 2$", err)
        assert "digits" not in err


def test_unreadably_long_integer_exits_2(tmp_path, capsys, data_dir):
    protocol = write_protocol_with_key_size(tmp_path, data_dir, 4401)
    code, out, err = run_cli(capsys, "simulate",
                             "--input", f"{data_dir}/xy_pair_source.json",
                             "--protocol", protocol)
    assert (code, out) == (2, "")
    assert "INPUT_FORMAT" in err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "compute", "--input", str(bad))
    assert (code, out) == (2, "")
    assert "INPUT_FORMAT" in err


def test_bad_flag_value_exits_2(tmp_path, capsys):
    src = write_pmf(tmp_path, worked_pmf())
    code, _, err = run_cli(capsys, "compute", "--input", src,
                           "--tol-ci", "-1")
    assert code == 2 and "tol_ci" in err


def test_non_finite_option_exits_2_before_reading(tmp_path, capsys,
                                                 monkeypatch):
    """A non-finite tolerance is an option error, raised before the input is
    read: the input path here does not exist."""
    missing = str(tmp_path / "missing.json")
    for argv, name in ((("simulate", "--protocol", missing, "--eps", "nan"),
                        "eps"),
                       (("compute", "--tol-ci", "inf"), "tol_ci")):
        code, out, err = run_cli(capsys, *argv, "--input", missing)
        assert (code, out) == (2, "")
        assert name in err and "INPUT_FORMAT" not in err
    monkeypatch.setenv("PKREGION_EPS", "inf")
    code, out, err = run_cli(capsys, "simulate", "--input", missing,
                             "--protocol", missing)
    assert (code, out) == (2, "")
    assert "eps" in err and "INPUT_FORMAT" not in err


def test_check_diagnostics_match_compute(capsys, data_dir):
    """check's three lines are byte-identical to compute's on every source
    file, at the default tolerance and at one every source passes."""
    keys = ("mcf_components", "det_correlated", "ci_residual")

    def lines(text):
        rows = [row.rstrip(",") for row in text.splitlines()]
        return [row for row in rows
                if row.startswith(tuple(f'  "{key}": ' for key in keys))]

    sources = [path for path in sorted(Path(data_dir).glob("*.json"))
               if json.loads(path.read_text())["schema"] == "pkregion-pmf-v1"]
    assert len(sources) >= 4
    for path in sources:
        for tol in ((), ("--tol-ci", "1")):
            code, computed, _ = run_cli(capsys, "compute", "--input",
                                        str(path), *tol)
            assert code == 0
            code, checked, _ = run_cli(capsys, "check", "--input",
                                       str(path), *tol)
            assert code == 0
            assert len(lines(checked)) == len(keys)
            assert lines(checked) == lines(computed), path.name


# -- configuration merging ---------------------------------------------------------

def test_env_provides_defaults_and_flags_win(tmp_path, capsys, monkeypatch,
                                             data_dir):
    src = write_pmf(tmp_path, bsc_pmf())
    monkeypatch.setenv("PKREGION_TOL_CI", "1e-9")
    monkeypatch.setenv("PKREGION_TOL_SUM", "1e-6")
    code, out, _ = run_cli(capsys, "check", "--input", src, "--tol-ci", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["tol_ci"] == 1.0  # flag beats environment
    assert doc["config"]["tol_sum"] == 1e-6  # environment beats default
    # the noisy pair's residual, 0.2, is within the flag's tolerance
    assert doc["det_correlated"] is True
    monkeypatch.setenv("PKREGION_BUDGET", "123")
    monkeypatch.setenv("PKREGION_EPS", "0.5")
    code, out, _ = run_cli(
        capsys, "simulate", "--input", f"{data_dir}/xy_pair_source.json",
        "--protocol", f"{data_dir}/direct_extraction_n2.json",
        "--budget", "1000")
    assert code == 0
    cfg = json.loads(out)["config"]
    assert (cfg["budget"], cfg["eps"]) == (1000, 0.5)


def test_invalid_env_value_exits_2(tmp_path, capsys, monkeypatch, data_dir):
    monkeypatch.setenv("PKREGION_BUDGET", "many")
    code, _, err = run_cli(
        capsys, "simulate", "--input", f"{data_dir}/xy_pair_source.json",
        "--protocol", f"{data_dir}/direct_extraction_n2.json")
    assert code == 2
    assert "PKREGION_BUDGET" in err


def test_each_command_takes_only_its_own_flags(tmp_path, capsys, data_dir):
    """compute and check take no protocol options and simulate no
    tightness tolerance: each such flag is a usage error."""
    src = write_pmf(tmp_path, worked_pmf())
    for command in ("compute", "check"):
        for argv in (("--protocol", f"{data_dir}/direct_extraction_n2.json"),
                     ("--budget", "1"), ("--eps", "3")):
            code, out, err = run_cli(capsys, command, "--input", src, *argv)
            assert (code, out) == (2, ""), (command, argv)
            assert f"unrecognized arguments: {argv[0]}" in err
    code, out, err = run_cli(
        capsys, "simulate", "--input", f"{data_dir}/xy_pair_source.json",
        "--protocol", f"{data_dir}/direct_extraction_n2.json",
        "--tol-ci", "0.5")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol-ci" in err


def test_each_command_reads_only_its_own_variables(tmp_path, capsys,
                                                   monkeypatch, data_dir):
    """Invalid simulate-only variables leave compute and check unchanged,
    byte for byte, and still fail simulate."""
    src = write_pmf(tmp_path, worked_pmf())
    clean = {command: run_cli(capsys, command, "--input", src)
             for command in ("compute", "check")}
    for env, raw, message in (("PKREGION_BUDGET", "many", "not a valid int"),
                              ("PKREGION_EPS", "inf", "eps must be")):
        with monkeypatch.context() as env_patch:
            env_patch.setenv(env, raw)
            for command, want in clean.items():
                assert run_cli(capsys, command, "--input", src) == want
            code, out, err = run_cli(
                capsys, "simulate",
                "--input", f"{data_dir}/xy_pair_source.json",
                "--protocol", f"{data_dir}/direct_extraction_n2.json")
            assert (code, out) == (2, "") and message in err


def test_config_echo_lists_every_knob(tmp_path, capsys, data_dir):
    """Each report echoes the options of its command except --output."""
    src = write_pmf(tmp_path, worked_pmf())
    for command in ("compute", "check"):
        code, out, _ = run_cli(capsys, command, "--input", src)
        assert code == 0
        assert list(json.loads(out)["config"]) == ["input", "tol_sum",
                                                   "tol_ci"]
    code, out, _ = run_cli(
        capsys, "simulate", "--input", f"{data_dir}/xy_pair_source.json",
        "--protocol", f"{data_dir}/direct_extraction_n2.json")
    assert code == 0
    assert list(json.loads(out)["config"]) == ["input", "protocol", "tol_sum",
                                               "budget", "eps"]


def test_missing_file_option_exits_2(tmp_path, capsys, monkeypatch, data_dir):
    """A file option the command needs has no default: leaving it out is an
    error, and its variable can give it instead of the flag."""
    src = write_pmf(tmp_path, worked_pmf())
    for argv, flag in ((("compute",), "--input"),
                       (("simulate", "--input", src), "--protocol")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"{flag} or PKREGION_{flag[2:].upper()} is required" in err
    monkeypatch.setenv("PKREGION_INPUT", src)
    assert run_cli(capsys, "check")[0] == 0


def run_fresh_process(*argv):
    """Exit code, stdout and stderr of ``python -m pkregion`` run in a new
    process with this process's environment; the child imports the same
    package as this process, installed or not."""
    package_root = os.path.dirname(os.path.dirname(pkregion.__file__))
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pkregion", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_calls_match_fresh_processes(tmp_path, capsys, monkeypatch,
                                              data_dir):
    """One process serves a parser error, two calls whose configuration
    comes from the environment, and a call with explicit flags, each
    exactly as a fresh process would."""
    src = write_pmf(tmp_path, bsc_pmf())
    monkeypatch.setenv("COLUMNS", "80")  # the width of the usage message
    steps = [(None, ("simulate", "--input", src, "--budget", "many")),
             ("1", ("compute", "--input", src)),
             ("1e-9", ("compute", "--input", src)),
             (None, ("simulate", "--input", f"{data_dir}/xy_pair_source.json",
                     "--protocol", f"{data_dir}/direct_extraction_n2.json",
                     "--eps", "0.5", "--budget", "1000"))]
    results = []
    for tol_ci, argv in steps:
        if tol_ci is None:
            monkeypatch.delenv("PKREGION_TOL_CI", raising=False)
        else:
            monkeypatch.setenv("PKREGION_TOL_CI", tol_ci)
        got = run_cli(capsys, *argv)
        assert got == run_fresh_process(*argv), argv
        results.append(got)
    assert [code for code, _, _ in results] == [2, 0, 0, 0]
    # the environment is read on every call: the noisy pair is tight only
    # within the looser tolerance
    verdicts = [json.loads(out)["det_correlated"] for _, out, _ in results[1:3]]
    assert verdicts == [True, False]


# -- output handling -----------------------------------------------------------------

def test_output_flag_writes_file_and_quiets_stdout(tmp_path, capsys):
    src = write_pmf(tmp_path, worked_pmf())
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "compute", "--input", src,
                           "--output", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert_report_fields(doc, "pkregion-regions-v4")


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    src = write_pmf(tmp_path, bsc_pmf())
    out_path = tmp_path / "report.json"
    assert run_cli(capsys, "compute", "--input", src,
                   "--output", str(out_path))[0] == 0
    first = out_path.read_bytes()
    assert run_cli(capsys, "compute", "--input", src,
                   "--output", str(out_path))[0] == 0
    assert out_path.read_bytes() == first
    # and the stdout form agrees with itself as well
    runs = [run_cli(capsys, "compute", "--input", src) for _ in range(2)]
    assert runs[0] == runs[1]


def test_report_bytes_do_not_depend_on_the_destination(tmp_path, capsys,
                                                       data_dir):
    """No report echoes --output: each command's report is the same bytes on
    stdout and in two different files."""
    src = write_pmf(tmp_path, bsc_pmf())
    for command, argv in (
            ("compute", ("--input", src)),
            ("check", ("--input", src)),
            ("simulate", ("--input", f"{data_dir}/xy_pair_source.json",
                          "--protocol",
                          f"{data_dir}/direct_extraction_n2.json"))):
        code, out, _ = run_cli(capsys, command, *argv)
        assert code == 0
        for name in ("a.json", "b.json"):
            target = tmp_path / name
            assert run_cli(capsys, command, *argv,
                           "--output", str(target))[0] == 0
            assert target.read_bytes() == out.encode(), (command, name)


def test_failed_run_creates_no_output_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    out_path = tmp_path / "never.json"
    code, _, _ = run_cli(capsys, "compute", "--input", str(bad),
                         "--output", str(out_path))
    assert code == 2
    assert not out_path.exists()
    leftovers = [f for f in os.listdir(tmp_path) if f not in ("bad.json",)]
    assert leftovers == []


def test_unwritable_output_exits_2_and_leaves_no_file(tmp_path, capsys):
    source = write_pmf(tmp_path, bsc_pmf())
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "compute", "--input", source,
                             "--output", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert os.listdir(tmp_path) == ["source.json"]


def test_failed_write_names_the_output_path(tmp_path, capsys):
    """A missing directory and a directory as --output: the message names
    the given path, not the temp file's random name, so it is the same on
    every run."""
    source = write_pmf(tmp_path, bsc_pmf())
    (tmp_path / "adir").mkdir()
    for target in (tmp_path / "missing" / "r.json", tmp_path / "adir"):
        runs = [run_cli(capsys, "compute", "--input", source,
                        "--output", str(target)) for _ in range(2)]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert (code, out) == (2, "")
        assert f"'{target}'" in err and ".tmp" not in err
        assert sorted(os.listdir(tmp_path)) == ["adir", "source.json"]
        assert os.listdir(tmp_path / "adir") == []


# -- the installed entry point ---------------------------------------------------------

def test_console_script_runs():
    code, out, _ = run_fresh_process("version")
    assert code == 0
    assert out.strip() == f"pkregion {__version__}"


def test_layer_modules_load_with_the_package():
    """Importing the command line (``pkregion.cli``) loads every layer
    module, and every name in each one's ``__all__`` resolves; per-layer
    tracing of the CLI relies on both."""
    layers = ("cli", "ioformats", "dist", "structure", "auxsolver",
              "regions", "protocol")
    code = (
        "import sys, pkregion.cli\n"
        f"for layer in {layers!r}:\n"
        "    mod = sys.modules['pkregion.' + layer]\n"
        "    assert mod.__all__, layer\n"
        "    for name in mod.__all__:\n"
        "        getattr(mod, name)\n")
    package_root = os.path.dirname(os.path.dirname(pkregion.__file__))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": package_root})
    assert proc.returncode == 0, proc.stderr
