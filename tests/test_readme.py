"""The README's examples print what the README says they print."""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

from pkregion import EvaluationReport, compute_report
from pkregion.cli import main
from pkregion.ioformats import check_document, evaluation_document, \
    regions_document

from conftest import worked_pmf

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(language, after):
    """The first ``language`` code block after the heading ``after``."""
    section = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_quick_start_simulate_report_matches_readme(capsys, monkeypatch):
    command = fenced_block("sh", "## Quick start (CLI)")
    argv = command.split("pkregion simulate ", 1)[1].replace("\\\n", " ")
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    assert main(["simulate", *argv.split()]) == 0
    report = json.loads(capsys.readouterr().out)
    shown = json.loads(fenced_block("json", "## Quick start (CLI)"))
    for key, value in shown.items():
        assert report[key] == value, key


def test_library_example_prints_what_its_comments_state():
    code = fenced_block("python", "## Quick start (library)")
    stated = [ast.literal_eval(line.split("#", 1)[1].strip())
              for line in code.splitlines() if line.startswith("print(")]
    printed = []
    exec(code, {"print": printed.append})
    assert len(printed) == len(stated) == 3
    assert printed == stated


def test_cli_reference_lists_each_commands_flags(capsys):
    """Each command's parser accepts exactly the flags the CLI reference
    table lists for it, and each flag's variable is named by the prefix
    rule (``--tol-sum`` reads ``PKREGION_TOL_SUM``)."""
    section = README[README.index("## CLI reference"):]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `--"):
            flag, env, commands = (re.findall(r"`([^`]*)`", cell)
                                   for cell in line.split("|")[1:4])
            rows[flag[0]] = (env, set(commands))
    assert len(rows) == 7
    for flag, (env, _) in rows.items():
        assert env == ["PKREGION_" + flag[2:].upper().replace("-", "_")]
    for command in ("compute", "check", "simulate", "version"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        accepted = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out,
                                  re.M))
        listed = {flag for flag, (_, commands) in rows.items()
                  if command in commands}
        assert accepted == listed, command


def test_reports_table_names_the_fields_the_builders_emit():
    """The field column of the "Reports" table names each top-level field of
    the three reports once, and no other."""
    section = README[README.index("### Reports"):
                     README.index("## CLI reference")]
    listed = re.findall(r"^\| `([a-z_]+)` \|", section, re.M)
    report = compute_report(worked_pmf())
    docs = (regions_document(report, {}), check_document(report, {}),
            evaluation_document(EvaluationReport(*[0.0] * 8), True,
                                {"eps": 0.0}))
    assert sorted(listed) == sorted(set().union(*docs))


def test_library_overview_names_what_each_module_exports():
    """Each module row of the "Library overview" table names, in backticks,
    exactly the functions and classes in that module's ``__all__``."""
    section = README[README.index("## Library overview"):]
    rows = dict(re.findall(r"^\| `pkregion\.([a-z]+)` \| (.*) \|$", section,
                           re.M))
    for name in ("dist", "structure", "auxsolver", "regions", "protocol",
                 "ioformats"):
        module = importlib.import_module(f"pkregion.{name}")
        exported = {export for export in module.__all__
                    if inspect.isfunction(obj := getattr(module, export))
                    or inspect.isclass(obj)}
        assert set(re.findall(r"`([^`]*)`", rows[name])) == exported, name
