"""README's examples run as written: the library block, the CLI lines and the batches file."""

import re
import shlex
from pathlib import Path

import pytest

from graphrbm.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title):
    """The text of README's ``## title`` section, up to the next ``## `` heading."""
    return re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S).group(1)


def fenced(text, language):
    """The bodies of the ```language blocks in ``text``."""
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def cli_lines():
    """Each ``graphrbm solve|rbm|study`` command of the CLI section, continuation lines joined."""
    (block,) = fenced(section("CLI"), "bash")
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in commands if re.match(r"graphrbm (solve|rbm|study)\b", line)]


def test_library_block_runs(capsys):
    (block,) = fenced(section("Library"), "python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("ErrorSummary(error1=") == 2


@pytest.mark.parametrize("argv", cli_lines(), ids=lambda argv: argv[0])
def test_cli_line_exits_zero(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative --out lands under tmp_path
    assert main(argv) == 0


def test_cli_section_names_every_run_subcommand():
    assert sorted(argv[0] for argv in cli_lines()) == ["rbm", "solve", "study"]


def test_batches_file_passes_check(tmp_path):
    (batches,) = [block for block in fenced(section("File formats"), "json") if '"parts"' in block]
    path = tmp_path / "my_batches.json"
    path.write_text(batches, encoding="utf-8")
    assert main(["check", "--batches", str(path)]) == 0
