"""Acceptance suite: one test per criterion, each exact (zero tolerance).

Every expected value is either a definition-level fact, a value frozen
from an independent derivation (matrix oracle, exhaustive search), or a
hand-typed table this suite diffs the shipped data against.  Criteria
1-5, 7 and 8 run the matching `a1u selfcheck` suite and pin its detail
line; criteria 6 and 9 keep their own derivations against the frozen
tables in `a1unicity.selfcheck`.  A PASS line is printed per criterion
so `pytest -s` doubles as a report.
"""

import io
import json
import subprocess
import sys

from a1unicity import atlas, selfcheck
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


# Prime-dependent unique rows hand-typed for the diff against the
# shipped data file.
_EXCEPTIONAL_ROWS = {
    ("G2", ">=5"): {"Ã1"},
    ("F4", ">=5"): {"Ã2", "B2", "B3", "C3", "F4(a1)"},
    ("E6", ">=7"): {"A5", "D5", "E6(a1)"},
    ("E7", "=7"): {"(A5)''", "(A5)'"},
    ("E7", ">=11"): {"(A5)''", "(A5)'", "D5", "A6", "D6", "E6(a1)", "E6", "E7(a1)"},
    ("E8", "=7"): {"A5"},
    ("E8", ">=11"): {
        "A5", "D5", "E6(a1)", "D6", "E6", "A7", "D7", "E7(a1)", "E7",
        "E8(a4)", "E8(a2)", "E8(a1)",
    },
}

_ALWAYS_UNIQUE = {
    "G2": {"A1"},
    "F4": {"A1"},
    "E6": {"A1", "A3", "D4"},
    "E7": {"A1", "A3", "D4"},
    "E8": {"A1", "A3", "D4"},
}

_CURATED_NONUNIQUE = {
    ("E6", 5): {"A2", "A4", "D4(a1)"},
    ("E8", 7): {
        "A2", "A4", "D4(a1)", "D5(a1)", "A6", "E6(a3)", "D6(a2)",
        "E7(a5)", "E8(a7)",
    },
    ("E7", 7): {
        "A2", "A4", "D4(a1)", "D5(a1)", "D6(a2)", "E6(a3)", "E7(a5)", "A6",
    },
}


def _primes_matching(condition, g):
    out = []
    for p in (5, 7, 11, 13, 17):
        if not g.is_good(p):
            continue
        if condition.startswith(">=") and p >= int(condition[2:]):
            out.append(p)
        elif condition.startswith("=") and p == int(condition[1:]):
            out.append(p)
    return out


def test_criterion_09_exceptional_atlas_fidelity():
    checks = 0
    for (name, condition), labels in _EXCEPTIONAL_ROWS.items():
        g = atlas.group(name)
        for p in _primes_matching(condition, g):
            for label in labels:
                v = atlas.verdict(g, p, label)
                assert v.kind is atlas.AtlasVerdictKind.UNIQUE, (name, p, label)
                checks += 1
    for name, labels in _ALWAYS_UNIQUE.items():
        g = atlas.group(name)
        for p in (5, 7, 11, 13):
            if not g.is_good(p):
                continue
            for label in labels:
                assert atlas.verdict(g, p, label).kind is atlas.AtlasVerdictKind.UNIQUE
                checks += 1
    threshold = {"G2": 5, "F4": 5, "E6": 7, "E7": 11, "E8": 11}
    for (name, large), expected in selfcheck.PROP_LISTS.items():
        g = atlas.group(name)
        assert atlas.verdict(g, large, g.regular_label).kind is (
            atlas.AtlasVerdictKind.UNIQUE
        )
        for p in (threshold[name], large):
            assert atlas.list_unique(g, p) == expected, (name, p)
            checks += 1
    for (name, p), labels in _CURATED_NONUNIQUE.items():
        g = atlas.group(name)
        for label in labels:
            assert atlas.verdict(g, p, label).kind is (
                atlas.AtlasVerdictKind.NON_UNIQUE
            ), (name, p, label)
            checks += 1
    for name in threshold:
        g = atlas.group(name)
        goods = [p for p in (5, 7, 11, 13) if g.is_good(p)]
        for small, large in zip(goods, goods[1:]):
            assert atlas.list_unique(g, small) <= atlas.list_unique(g, large)
            checks += 1
    _report("criterion 9 (exceptional atlas)", f"{checks} table checks")


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
