"""The README's examples run against the library as it is: its python block
executes, and its console examples show what the commands print."""

import importlib
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from almostid.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _shown(command):
    """The output lines the README prints under ``$ command``."""
    (block,) = re.findall(rf"^\$ {re.escape(command)}\n(.*?)\n```", README, re.M | re.S)
    return block.split("\n")


def _run(command):
    result = CliRunner().invoke(main, command.split()[1:])
    assert result.exit_code == 0
    return result.output


# every console line the README shows, without its trailing comment
COMMANDS = [line.split("  #")[0].rstrip()
            for line in re.findall(r"^\$ (almostid .*)$", README, re.M)]


@pytest.mark.parametrize("command", COMMANDS)
def test_console_line_exits_zero(command):
    _run(command)


def test_python_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    namespace = {}
    exec(block, namespace)
    assert namespace["report"].passed
    assert len(namespace["rows"]) == 4 * 28


def test_library_paragraph_names_exist():
    # each backticked name in the parentheses after `almostid.<module>`
    # is an attribute of that module
    (paragraph,) = re.findall(r"^The transform side lives in .*?\n\n", README, re.M | re.S)
    listed = re.findall(r"`(almostid\.\w+)` \(([^)]*)\)", paragraph)
    assert [module for module, _ in listed] == ["almostid.mellin", "almostid.gallery"]
    for module, names in listed:
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(importlib.import_module(module), name), (module, name)


def test_verify_console_line_matches_cli():
    command = "almostid verify --n 4 --digits 20"
    assert _run(command) == "\n".join(_shown(command)) + "\n"


@pytest.mark.parametrize("command", [
    "almostid scan --n 1..3 --bases 2,3 --digits 30 --format csv",
    "almostid gallery --item ramanujan163 --digits 50",
])
def test_elided_console_lines_match_cli(command):
    # each shown line is its output line with "..." standing for elided text
    shown = _shown(command)
    output = _run(command).splitlines()
    assert len(shown) <= len(output)
    for line, actual in zip(shown, output):
        pattern = ".*?".join(re.escape(fragment) for fragment in line.split("..."))
        assert re.fullmatch(pattern, actual), (line, actual)
