"""Golden CLI corpus: fixed invocations replayed byte for byte.

``tests/golden/cases.json`` lists each invocation with its exit code and
stderr; ``tests/golden/<name>.stdout`` holds its stdout. The corpus pins
every command's output, so a refactor or a deletion that changes any byte
of it shows up here.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from expflag.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_cli_output(case):
    res = CliRunner().invoke(main, case["args"])
    assert res.exit_code == case["exit_code"], res.output
    assert res.stdout == (GOLDEN / (case["name"] + ".stdout")).read_text()
    assert res.stderr == case["stderr"]
