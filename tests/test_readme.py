"""The README's examples print what the README says they print."""

import ast
import json
import re
from pathlib import Path

from pkregion.cli import main

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
