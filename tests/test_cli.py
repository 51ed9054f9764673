import json
import os
import subprocess
import sys

import pkregion
from pkregion import __version__
from pkregion.cli import main
from pkregion.ioformats import (
    dumps_deterministic, pmf_document, validate_report,
)

from conftest import bsc_pmf, worked_pmf


def write_pmf(tmp_path, p, name="source.json"):
    path = tmp_path / name
    path.write_text(dumps_deterministic(pmf_document(p)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
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
    assert validate_report(doc) == "pkregion-regions-v2"
    assert doc["regions"]["outer"]["vertices"] == [[0.0, 0.0], [1.0, 0.0],
                                                   [0.0, 1.0]]
    assert doc["det_correlated"] is True
    assert doc["separating_aux"]["feasible"] is True


def test_check_success(tmp_path, capsys):
    src = write_pmf(tmp_path, bsc_pmf())
    code, out, _ = run_cli(capsys, "check", "--input", src)
    assert code == 0
    doc = json.loads(out)
    assert validate_report(doc) == "pkregion-check-v2"
    assert doc["det_correlated"] is False
    assert doc["separating_aux"]["feasible"] is False
    assert doc["mcf_components"] == 1


def test_simulate_success(tmp_path, capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "simulate",
        "--input", f"{data_dir}/xy_pair_source.json",
        "--protocol", f"{data_dir}/direct_extraction_n2.json",
        "--eps", "0")
    assert code == 0
    doc = json.loads(out)
    assert validate_report(doc) == "pkregion-evaluation-v1"
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


def test_non_integer_protocol_entry_exits_2(tmp_path, capsys, data_dir):
    cases = ((("est_xy", 1), 0.7, "MALFORMED_TABLE"),
             (("est_xy", 1), True, "MALFORMED_TABLE"),
             (("key_xy_size",), True, "INPUT_FORMAT"),
             (("key_xy_size",), 4.0, "INPUT_FORMAT"))
    for where, bad, code_name in cases:
        doc = json.loads(open(f"{data_dir}/direct_extraction_n2.json").read())
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


def test_bad_flag_value_exits_2(tmp_path, capsys):
    src = write_pmf(tmp_path, worked_pmf())
    code, _, err = run_cli(capsys, "compute", "--input", src,
                           "--tol-feas", "-1")
    assert code == 2 and "feas_tol" in err


# -- configuration merging ---------------------------------------------------------

def test_env_provides_defaults_and_flags_win(tmp_path, capsys, monkeypatch):
    src = write_pmf(tmp_path, bsc_pmf())
    monkeypatch.setenv("PKREGION_TOL_FEAS", "1e-9")
    monkeypatch.setenv("PKREGION_BUDGET", "123")
    code, out, _ = run_cli(capsys, "check", "--input", src, "--tol-feas", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["tol_feas"] == 1.0  # flag beats environment
    assert doc["config"]["budget"] == 123    # environment beats default
    # I(Y;Z) of the noisy pair is about 0.53 bits, within the flag's tolerance
    assert doc["separating_aux"]["feasible"] is True


def test_invalid_env_value_exits_2(tmp_path, capsys, monkeypatch):
    src = write_pmf(tmp_path, worked_pmf())
    monkeypatch.setenv("PKREGION_BUDGET", "many")
    code, _, err = run_cli(capsys, "compute", "--input", src)
    assert code == 2
    assert "PKREGION_BUDGET" in err


def test_config_echo_lists_every_knob(tmp_path, capsys):
    src = write_pmf(tmp_path, worked_pmf())
    code, out, _ = run_cli(capsys, "compute", "--input", src)
    assert code == 0
    cfg = json.loads(out)["config"]
    assert set(cfg) == {"input", "output", "protocol", "tol_sum", "tol_ci",
                        "tol_feas", "budget", "eps"}


# -- output handling -----------------------------------------------------------------

def test_output_flag_writes_file_and_quiets_stdout(tmp_path, capsys):
    src = write_pmf(tmp_path, worked_pmf())
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "compute", "--input", src,
                           "--output", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert validate_report(doc) == "pkregion-regions-v2"


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    # the config echo contains the output path, so rerun onto the same file
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


# -- the installed entry point ---------------------------------------------------------

def test_console_script_runs():
    # the child imports the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(pkregion.__file__))
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pkregion", "version"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"pkregion {__version__}"
