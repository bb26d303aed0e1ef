"""The README's examples run against the library as it is: its python block
executes, and its `verify` console line is what the command prints."""

import re
from pathlib import Path

from click.testing import CliRunner

from almostid.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_python_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    namespace = {}
    exec(block, namespace)
    assert namespace["report"].passed
    assert len(namespace["rows"]) == 4 * 28


def test_verify_console_line_matches_cli():
    command = "almostid verify --n 4 --digits 20"
    (line,) = re.findall(rf"^\$ {re.escape(command)}\n(.*)\n", README, re.M)
    result = CliRunner().invoke(main, command.split()[1:])
    assert result.exit_code == 0
    assert result.output == line + "\n"
