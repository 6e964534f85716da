import io
import json
import subprocess
import sys
from pathlib import Path

from a1unicity import cli, sl2modules
from a1unicity.cli import run
from a1unicity.enumerator import canonicalize
from a1unicity.sl2modules import parse_descriptor


def capture(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def capture_json(argv):
    code, text = capture(argv + ["--json"])
    return code, json.loads(text)


def test_tensor_command():
    code, payload = capture_json(["tensor", "-p", "7", "2,5"])
    assert code == 0
    assert payload["result"]["blocks"] == [6, 4]
    code, text = capture(["tensor", "-p", "7", "2,5"])
    assert code == 0 and "J6+J4" in text


def test_classify_classical_command():
    code, payload = capture_json(
        ["classify", "classical", "--family", "C", "--dim", "10",
         "--p", "7", "--partition", "6,1,1,1,1"]
    )
    assert code == 0
    assert payload["result"]["verdict"] == "Unique"

    code, payload = capture_json(
        ["classify", "classical", "--family", "A", "--p", "5", "--partition", "5,1"]
    )
    assert code == 0
    assert payload["result"]["verdict"] == "NonUnique"
    assert payload["result"]["witnesses"] == ["L(4)+triv", "W(5)"]


def test_classify_exceptional_command():
    code, payload = capture_json(
        ["classify", "exceptional", "--group", "E7", "--p", "7", "--label", "A6"]
    )
    assert code == 0
    assert payload["result"]["verdict"] == "NonUnique"
    code, payload = capture_json(
        ["classify", "exceptional", "--group", "E8", "--p", "5", "--label", "A1"]
    )
    assert code == 1
    assert payload["result"]["verdict"] == "BadPrime"


def test_enumerate_command():
    code, payload = capture_json(
        ["enumerate", "--form", "orthogonal", "--p", "5", "--dim", "8",
         "--partition", "5,3", "--max-twist", "3"]
    )
    assert code == 0
    result = payload["result"]
    assert result["count"] >= 2
    assert {"L(4)+L(2)", "L(1)*L(3)@1"} <= set(result["classes"])
    # every printed class string reparses to the same canonical class
    for text in result["classes"]:
        assert str(canonicalize(parse_descriptor(text, 5))) == text


def test_module_command():
    code, payload = capture_json(["module", "-p", "7", "T(10)"])
    assert code == 0
    assert payload["result"]["dimension"] == 14
    assert payload["result"]["blocks"] == [7, 7]
    assert payload["result"]["realizable"] is False


def test_module_command_too_large_to_realize(capsys):
    code, payload = capture_json(["module", "-p", "5", "100000*triv"])
    assert code == 0
    assert payload["result"]["dimension"] == 100000
    assert payload["result"]["realizable"] is False
    assert "Traceback" not in capsys.readouterr().err


def test_module_command_decides_realizable_without_building(monkeypatch):
    cases = [
        ["module", "-p", "7", "L(2)*L(2)@1+2*triv"],
        ["module", "-p", "7", "T(10)"],
        ["module", "-p", "5", "2048*triv"],
        ["module", "-p", "5", "100000*triv"],
        ["module", "-p", "4294967311", "L(1)+triv"],
        ["module", "-p", "4294967311", "4*triv"],
    ]
    before = [capture(argv + ["--json"]) for argv in cases]
    assert [json.loads(text)["result"]["realizable"] for _, text in before] == [
        True, False, True, False, False, True,
    ]

    def no_matrix(d):
        raise AssertionError("a1u module must not build the matrix")

    monkeypatch.setattr(sl2modules, "realize", no_matrix)
    monkeypatch.setattr(cli, "realize", no_matrix, raising=False)
    assert [capture(argv + ["--json"]) for argv in cases] == before


def _run_cli_process(argv):
    return subprocess.run(
        [sys.executable, "-c", "from a1unicity.cli import main; main()", *argv],
        capture_output=True, text=True, timeout=60,
    )


def test_enumerate_search_budget_exits_one():
    proc = _run_cli_process(
        ["enumerate", "--form", "none", "--p", "7", "--partition", "7,7,7",
         "--max-twist", "1000000", "--json"]
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "InvalidQueryError" in proc.stderr


def test_enumerate_listing_budget_exits_one():
    # 140955 classes are counted at once but are too many to list
    proc = _run_cli_process(
        ["enumerate", "--form", "none", "--p", "3", "--partition",
         "3,3,3,3,3,3", "--max-twist", "8", "--json"]
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "140955 classes" in proc.stderr


def _assert_one_line_refusal(proc, error):
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and error in proc.stderr


def test_prime_beyond_exact_range_exits_one():
    proc = _run_cli_process(
        ["classify", "classical", "--family", "SL", "--p",
         "10000000000000000000000007", "--partition", "2,1"]
    )
    _assert_one_line_refusal(proc, "primality is decided only below")


def test_module_integer_too_long_exits_one():
    nines = "9" * 5000
    for descriptor in (f"{nines}*triv", f"L({nines})"):
        proc = _run_cli_process(["module", "-p", "5", descriptor, "--json"])
        _assert_one_line_refusal(proc, "DescriptorParseError")


def test_module_dimension_budget_exits_one():
    proc = _run_cli_process(["module", "-p", "5", "10000001*triv", "--json"])
    _assert_one_line_refusal(proc, "InvalidQueryError")
    proc = _run_cli_process(
        ["module", "-p", "5", "*".join(f"L(4)@{k}" for k in range(9)), "--json"]
    )
    _assert_one_line_refusal(proc, "module dimension 1953125")


_QUERIES_WITHOUT_MATRICES = [
    ["tensor", "-p", "7", "2,5"],
    ["module", "-p", "5", "L(1)*L(3)@1+2*triv"],
    ["classify", "classical", "--family", "C", "--dim", "10", "--p", "7",
     "--partition", "6,1,1,1,1"],
    ["classify", "exceptional", "--group", "E7", "--p", "7", "--label", "A6"],
    ["witnesses", "--family", "Sp", "--p", "5", "--partition", "5,5"],
    ["enumerate", "--form", "orthogonal", "--p", "5", "--dim", "8",
     "--partition", "5,3"],
]


def test_queries_do_not_load_numpy():
    """The closed-form queries answer without numpy; the package still
    loads ffmatrix and selfcheck, and the first matrix operation loads it."""
    script = f"""
import io, sys
from a1unicity import cli
assert "a1unicity.ffmatrix" in sys.modules and "a1unicity.selfcheck" in sys.modules
assert "numpy" not in sys.modules, "import"
for argv in {_QUERIES_WITHOUT_MATRICES!r}:
    assert cli.run(argv + ["--json"], out=io.StringIO()) == 0, argv
    assert "numpy" not in sys.modules, argv
from a1unicity import jordan
assert jordan.tensor_pair_oracle(3, 5, 7).blocks == (7, 5, 3)
assert "numpy" in sys.modules
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


_GOLDEN = Path(__file__).parent / "data" / "enumerate_golden.jsonl"


def test_enumerate_json_matches_golden_output():
    """a1u enumerate --json output, byte for byte, as the brute-force
    search that built and deduplicated every twist shift printed it."""
    cases = [json.loads(line) for line in _GOLDEN.read_text().splitlines()]
    assert len(cases) == 10
    for case in cases:
        assert capture(case["argv"]) == (0, case["stdout"]), case["argv"]


def test_witnesses_command():
    code, payload = capture_json(
        ["witnesses", "--family", "Sp", "--p", "5", "--partition", "5,5"]
    )
    assert code == 0
    assert set(payload["result"]["witnesses"]) == {"2*L(4)", "L(1)*L(4)@1"}


def test_domain_errors_exit_one():
    code, _ = capture(
        ["classify", "classical", "--family", "B", "--dim", "5", "--p", "7",
         "--partition", "5"]
    )
    assert code == 1  # small rank -> out of scope
    code, _ = capture(["witnesses", "--family", "A", "--p", "7", "--partition", "4,2"])
    assert code == 1  # no witness rule
    code, _ = capture(["module", "-p", "5", "L(9)"])
    assert code == 1  # weight not restricted


def test_usage_errors_exit_two():
    code, _ = capture(["classify", "classical", "--family", "Q", "--p", "5",
                       "--partition", "4"])
    assert code == 2
    code, _ = capture(["tensor", "-p", "5", "2,x"])
    assert code == 2
    code, _ = capture(["classify", "classical", "--family", "A", "--p", "5",
                       "--partition", "1,3"])
    assert code == 2  # not descending
    code, _ = capture(["nonsense"])
    assert code == 2


def test_exceptional_unknown_label_exits_one():
    code, payload = capture_json(
        ["classify", "exceptional", "--group", "G2", "--p", "5", "--label", "A3"]
    )
    assert code == 1
    assert payload["result"]["verdict"] == "UnknownLabel"


def test_selfcheck_quick():
    code, text = capture(["selfcheck", "--quick"])
    assert code == 0
    assert "all checks passed" in text
    assert text.count("PASS") == 9


def test_json_repeatability_in_process():
    battery = [
        ["tensor", "-p", "11", "3,4,2"],
        ["classify", "classical", "--family", "D", "--dim", "8", "--p", "5",
         "--partition", "3,3,1,1"],
        ["enumerate", "--form", "symplectic", "--p", "5", "--partition", "3,3,1,1"],
        ["classify", "exceptional", "--group", "F4", "--p", "13", "--label", "B3"],
    ]
    for argv in battery:
        _, first = capture(argv + ["--json"])
        _, second = capture(argv + ["--json"])
        assert first == second
