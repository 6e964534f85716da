"""The scripts under scripts/ and `a1u selfcheck` run and verify even
with assertions off."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_optimized(argv):
    proc = subprocess.run(
        [sys.executable, "-O", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (["tensor_table.py", "--p", "5"], "all entries oracle-verified"),
        (
            ["rederive_classical.py", "--p", "5", "--max-dim", "6"],
            "29 partitions checked at p = 5; 0 disagreement(s)",
        ),
        (
            ["rederive_classical.py", "--p", "11", "--max-dim", "16"],
            "1358 partitions checked at p = 11; 0 disagreement(s)",
        ),
    ],
)
def test_script_runs_under_optimize(argv, last_line):
    stdout = _run_optimized([str(_SCRIPTS / argv[0]), *argv[1:]])
    assert stdout.splitlines()[-1] == last_line


def test_rederive_stdout_is_pinned():
    stdout = _run_optimized(
        [str(_SCRIPTS / "rederive_classical.py"), "--p", "5", "--max-dim", "6"]
    )
    assert stdout.count("\n") == 31
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "a7f8f63dfc3f7fd45ce58b5c3b016207e1af8135441f38d69735698bddc64969"
    )


def test_selfcheck_verifies_under_optimize():
    stdout = _run_optimized(["-m", "a1unicity", "selfcheck", "--quick"])
    assert stdout == (
        "PASS  tensor-oracle-equivalence: exhaustive over p in (2, 3, 5, 7)\n"
        "PASS  two-factor-profiles: all pairs, p in (3, 5, 7, 11, 13)\n"
        "PASS  multi-factor-profiles: t in (3, 4), p in (3, 5, 7)\n"
        "PASS  module-facts: p in (5, 7), c <= 2p-2\n"
        "PASS  orthogonal-menu: p in (5, 7), dim <= 14\n"
        "PASS  distinct-sum-partition-menus: n in 4..7, p in (5, 7)\n"
        "PASS  classifier-vs-enumeration: 124 partition queries agree\n"
        "PASS  witness-soundness: 34 witness pairs verified\n"
        "PASS  exceptional-atlas: tables, counterexamples and nesting\n"
        "all checks passed\n"
    )
