"""The scripts under scripts/ run and verify even with assertions off."""

import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (["tensor_table.py", "--p", "5"], "all entries oracle-verified"),
        (
            ["rederive_classical.py", "--p", "5", "--max-dim", "6"],
            "29 partitions checked at p = 5; 0 disagreement(s)",
        ),
    ],
)
def test_script_runs_under_optimize(argv, last_line):
    proc = subprocess.run(
        [sys.executable, "-O", str(_SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line
