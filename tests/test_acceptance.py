"""Acceptance suite: one test per criterion, each exact (zero tolerance).

Every expected value is either a definition-level fact, a value frozen
from an independent derivation (matrix oracle, exhaustive search), or a
hand-typed table this suite diffs the shipped data against.  Criteria
1-5 and 7-9 run the matching `a1u selfcheck` suite and pin its detail
line; criterion 6 keeps its own derivation against the frozen table in
`a1unicity.selfcheck`.  A PASS line is printed per criterion so
`pytest -s` doubles as a report.
"""

import io
import json
import subprocess
import sys

from a1unicity import selfcheck
from a1unicity.cli import run
from a1unicity.enumerator import partitions_bounded, enumerate_embeddings
from a1unicity.sl2modules import (
    FormType,
    ModuleDescriptor,
    Trivial,
    dimension,
    form_type,
    jordan_type,
)


def _report(name, detail):
    print(f"PASS  {name}: {detail}")


def _passes(name, check, detail):
    """The selfcheck suite passes with this frozen detail line."""
    assert check() == (True, detail)
    _report(name, detail)


def test_criterion_01_tensor_fast_path_equals_matrix_oracle():
    detail = "exhaustive over p in (2, 3, 5, 7, 11, 13)"
    _passes("criterion 1 (tensor fast path == oracle)", selfcheck.check_tensor_oracle, detail)


def test_criterion_02_two_factor_profile_trichotomy():
    detail = "all pairs, p in (3, 5, 7, 11, 13)"
    _passes("criterion 2 (two-factor profiles)", selfcheck.check_pair_profiles, detail)


def test_criterion_03_multi_factor_products_have_three_summands():
    detail = "t in (3, 4), p in (3, 5, 7)"
    _passes("criterion 3 (multi-factor products)", selfcheck.check_multi_profiles, detail)


def test_criterion_04_symmetric_power_and_tilting_block_structure():
    detail = "p in (5, 7), c <= 2p-2"
    _passes("criterion 4 (module block structures)", selfcheck.check_module_facts, detail)


def test_criterion_05_orthogonal_menu_matches_frozen_table():
    detail = "p in (5, 7), dim <= 14"
    _passes("criterion 5 (orthogonal menu)", selfcheck.check_orthogonal_menu, detail)
    # the trivial line is carried by the Trivial kind, not the menu
    for p in (5, 7):
        triv = ModuleDescriptor((Trivial(1),), p)
        assert dimension(triv) == 1
        assert jordan_type(triv).blocks == (1,)
        assert form_type(triv) is FormType.ORTHOGONAL


def test_criterion_06_distinct_orthogonal_sum_partition_menus():
    for (n, p), expected in selfcheck.DN_EXPECTED.items():
        achieved = set()
        for blocks in partitions_bounded(2 * n, p):
            res = enumerate_embeddings(
                FormType.ORTHOGONAL, 2 * n, blocks, p, 3, distinct_irr=True
            )
            nontrivial = [
                c
                for c in res.classes
                if not all(isinstance(s, Trivial) for s in c.descriptor.summands)
            ]
            if nontrivial:
                achieved.add(blocks)
        assert achieved == expected, (n, p)
    _report("criterion 6 (distinct-sum partition menus)", "n in 4..7, p in (5, 7)")


def test_criterion_07_classifier_matches_enumeration():
    check = selfcheck.check_classifier_vs_enumeration
    _passes("criterion 7 (classifier == enumeration)", check, "2340 partition queries agree")


def test_criterion_08_witness_pairs_are_sound():
    detail = "34 witness pairs verified"
    _passes("criterion 8 (witness soundness)", selfcheck.check_witness_soundness, detail)


def test_criterion_09_exceptional_atlas_fidelity():
    detail = "tables, counterexamples and nesting"
    _passes("criterion 9 (exceptional atlas)", selfcheck.check_atlas, detail)


_CLI_BATTERY = [
    ["tensor", "-p", "7", "2,5", "--json"],
    ["tensor", "-p", "11", "3,4,2", "--json"],
    ["module", "-p", "7", "L(2)*L(2)@1+2*triv", "--json"],
    ["classify", "classical", "--family", "C", "--dim", "10", "--p", "7",
     "--partition", "6,1,1,1,1", "--json"],
    ["classify", "classical", "--family", "A", "--p", "5",
     "--partition", "5,1", "--json"],
    ["classify", "exceptional", "--group", "E7", "--p", "7", "--label", "A6",
     "--json"],
    ["enumerate", "--form", "orthogonal", "--p", "5", "--dim", "8",
     "--partition", "5,3", "--max-twist", "3", "--json"],
    ["enumerate", "--form", "symplectic", "--p", "5",
     "--partition", "3,3,1,1", "--json"],
    ["witnesses", "--family", "Sp", "--p", "5", "--partition", "5,5", "--json"],
]


def _run_battery_subprocess():
    script = (
        "import sys\n"
        "from a1unicity.cli import run\n"
        "import json\n"
        "battery = json.loads(sys.argv[1])\n"
        "for argv in battery:\n"
        "    code = run(argv)\n"
        "    assert code == 0, (argv, code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(_CLI_BATTERY)],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def test_criterion_10_cli_output_is_deterministic():
    first = _run_battery_subprocess()
    second = _run_battery_subprocess()
    assert first == second
    assert first.count("\n") == len(_CLI_BATTERY)
    for line in first.splitlines():
        json.loads(line)  # every line is valid JSON
    # and in-process repetition agrees with the subprocess output
    buf = io.StringIO()
    for argv in _CLI_BATTERY:
        assert run(argv, out=buf) == 0
    assert buf.getvalue() == first
    _report(
        "criterion 10 (deterministic output)",
        f"{len(_CLI_BATTERY)} commands byte-identical across processes",
    )
