"""Golden reports: each subcommand's stdout and exit status, pinned byte for
byte.

``tests/data/reports/commands.json`` lists each invocation, the file holding
its stdout and its exit status.  A change that moves digits past the
requested precision regenerates the file it moves, with
``python -m almostid.cli <args> > tests/data/reports/<stdout>``, and says so.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from almostid.cli import main

REPORTS = Path(__file__).resolve().parent / "data" / "reports"
COMMANDS = json.loads((REPORTS / "commands.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", COMMANDS, ids=[case["stdout"] for case in COMMANDS])
def test_report_is_byte_identical(case):
    result = CliRunner().invoke(main, case["args"].split())
    assert result.exit_code == case["exit"], result.output
    assert result.stdout_bytes == (REPORTS / case["stdout"]).read_bytes()
