import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import a1unicity
from a1unicity import cli, selfcheck, sl2modules
from a1unicity.cli import run
from a1unicity.enumerator import canonicalize
from a1unicity.errors import InvalidQueryError
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


def test_module_entry_points_match_the_console_script():
    argv = ["tensor", "-p", "5", "2,3", "--json"]
    console = _run_cli_process(argv)
    assert console.returncode == 0 and console.stdout.startswith('{"command":"tensor"')
    for module in ("a1unicity", "a1unicity.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, module
        assert (proc.stdout, proc.stderr) == (console.stdout, ""), module


def test_enumerate_search_budget_exits_one():
    proc = _run_cli_process(
        ["enumerate", "--form", "none", "--p", "7", "--partition", "7,7,7",
         "--max-twist", "1000000", "--json"]
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "InvalidQueryError" in proc.stderr


def test_enumerate_count_only_answers_beyond_the_listing_budget():
    argv = ["enumerate", "--form", "none", "--p", "7", "--partition", "7,7,7",
            "--max-twist", "1000000", "--count-only"]
    code, doc = capture_json(argv)
    assert code == 0
    assert doc["result"] == {"count": 3500004500001, "growth_flag": True}
    assert doc["input"]["count_only"] is True
    code, text = capture(argv)
    assert code == 0
    assert text.splitlines() == [
        "none structures with type J7^3 on dim 21, p = 7, twists <= 1000000:",
        "count 3500004500001; count grows with the twist bound",
    ]
    # on a listable query: the full answer's count and flag, and its input
    listed = ["enumerate", "--form", "symplectic", "--p", "7", "--partition", "4,4,2"]
    _, full = capture_json(listed)
    _, counted = capture_json(listed + ["--count-only"])
    assert full["result"]["classes"]
    assert counted["result"] == {k: full["result"][k] for k in ("count", "growth_flag")}
    assert counted["input"] == dict(full["input"], count_only=True)


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


def test_adversarial_enumerations_are_answered_or_refused_quickly():
    """Each probe is answered, or refused on one stderr line, in under
    2 s: many blocks of p, huge twist bounds, and many small blocks."""
    probes = [
        ["--form", form, "--p", "7", "--partition", ",".join(["7"] * 300)]
        for form in ("none", "orthogonal")
    ] + [
        ["--form", "none", "--p", "7", "--partition", "7,7,7", "--max-twist", str(t)]
        for t in (10**6, 10**18)
    ] + [
        ["--form", form, "--p", "3", "--partition", ",".join(["2"] * 500)]
        for form in ("none", "symplectic")
    ] + [
        # few weight tuples, but each state branches on up to 3000 copies
        ["--form", "none", "--p", "5", "--partition", ",".join(["5"] * 3000),
         "--max-twist", "1"],
        # a block of p leaves the weight tuples unpruned: 10^5 of them
        # walked at dimensions up to 3000
        ["--form", "none", "--p", "31", "--partition", ",".join(["31"] + ["1"] * 2969),
         "--max-twist", "20"],
    ]
    for argv in probes:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stderr(err):
            code = run(["enumerate", *argv, "--json"], out=out)
        assert time.perf_counter() - start < 2, argv
        if code == 0:
            assert err.getvalue() == "" and json.loads(out.getvalue())["result"]
        else:
            assert code == 1 and out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("a1u:"), lines


def test_reader_closing_early_exits_one_without_traceback():
    """The read end of stdout is closed before the child writes, so its
    first flush meets a broken pipe."""
    proc = subprocess.Popen(
        [sys.executable, "-c", "from a1unicity.cli import main; main()",
         "tensor", "-p", "7", "2,5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


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


def test_tensor_dimension_budget_exits_one():
    proc = _run_cli_process(["tensor", "-p", "1000003", "10000,10000", "--json"])
    _assert_one_line_refusal(proc, "exceeds the answer budget 1000000")
    code, payload = capture_json(["tensor", "-p", "1000003", "1000,1000"])
    assert code == 0
    assert payload["result"]["dimension"] == 10**6
    assert payload["result"]["blocks"] == list(range(1999, 0, -2))


# each query, with the package modules it executes besides cli and errors
_QUERIES_WITHOUT_MATRICES = [
    (["tensor", "-p", "7", "2,5"], "ffmatrix jordan"),
    (["module", "-p", "5", "L(1)*L(3)@1+2*triv"], "ffmatrix jordan sl2modules"),
    (["classify", "classical", "--family", "C", "--dim", "10", "--p", "7",
      "--partition", "6,1,1,1,1"], "classical ffmatrix jordan sl2modules"),
    (["classify", "exceptional", "--group", "E7", "--p", "7", "--label", "A6"],
     "atlas ffmatrix"),
    (["witnesses", "--family", "Sp", "--p", "5", "--partition", "5,5"],
     "classical ffmatrix jordan sl2modules"),
    (["enumerate", "--form", "orthogonal", "--p", "5", "--dim", "8", "--partition", "5,3"],
     "classical enumerator ffmatrix jordan sl2modules"),
]
_QUERY_ARGVS = [argv for argv, _ in _QUERIES_WITHOUT_MATRICES]

_STDLIB_NOT_LOADED = (
    "importlib.resources", "pathlib", "tempfile", "shutil", "urllib", "dataclasses", "inspect",
)

# the package modules a child has executed: a lazily bound module is
# registered as a subclass of ModuleType until its body runs
_EXECUTED = """
import os, sys, types
import a1unicity
_names = [f[:-3] for f in os.listdir(os.path.dirname(a1unicity.__file__))
          if f.endswith(".py") and not f.startswith("__")]
def executed():
    return sorted(m for m in _names
                  if type(sys.modules.get("a1unicity." + m)) is types.ModuleType)
"""


def _run_script(script, *flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_queries_do_not_load_numpy():
    """The closed-form queries answer without numpy, and the first matrix
    operation loads it.  Without site (whose .pth files may import them
    anyway): the package loads none of its modules, atlas loads only what
    it needs, cli registers every module but executes only errors and
    itself, the package imports none of _STDLIB_NOT_LOADED (its value
    classes are plain classes, so neither dataclasses nor inspect loads),
    and the queries load none of them but shutil, which argparse's help
    formatter imports for the terminal width.  Each query, in a fresh
    process, executes exactly the modules listed with it, and
    a1u selfcheck executes them all."""
    _run_script(f"""
import io, sys
from a1unicity import cli
assert "numpy" not in sys.modules, "import"
for argv in {_QUERY_ARGVS!r}:
    assert cli.run(argv + ["--json"], out=io.StringIO()) == 0, argv
    assert "numpy" not in sys.modules, argv
from a1unicity import jordan
assert jordan.tensor_pair_oracle(3, 5, 7).blocks == (7, 5, 3)
assert "numpy" in sys.modules
""")
    _run_script(f"""
import sys
import a1unicity
assert [m for m in sys.modules if m.startswith("a1unicity.")] == [], "package"
import a1unicity.atlas
loaded = [m for m in ("classical", "enumerator", "jordan", "sl2modules", "selfcheck",
                      "numpy") if m in sys.modules or "a1unicity." + m in sys.modules]
assert not loaded, ("atlas", loaded)
""", "-S")
    _run_script(_EXECUTED + f"""
import io
from a1unicity import cli
assert all("a1unicity." + m in sys.modules for m in _names), "registered"
assert executed() == ["cli", "errors"], executed()
loaded = [m for m in {_STDLIB_NOT_LOADED!r} if m in sys.modules]
assert not loaded, ("import", loaded)
for argv in {_QUERY_ARGVS!r}:
    assert cli.run(argv + ["--json"], out=io.StringIO()) == 0, argv
loaded = [m for m in {_STDLIB_NOT_LOADED!r} if m in sys.modules]
assert loaded == ["shutil"], loaded
""", "-S")
    for argv, modules in _QUERIES_WITHOUT_MATRICES:
        got = _run_script(_EXECUTED + f"""
import io
from a1unicity import cli
assert cli.run({argv + ["--json"]!r}, out=io.StringIO()) == 0
assert "numpy" not in sys.modules
print(" ".join(executed()))
""", "-S")
        assert got.split() == sorted(["cli", "errors", *modules.split()]), argv
    _run_script(_EXECUTED + """
import io
from a1unicity import cli
assert cli.run(["selfcheck", "--quick"], out=io.StringIO()) == 0
assert executed() == sorted(_names), executed()
""")


def test_tracer_contract_holds_on_lazily_bound_modules():
    """An outside tracer that imports only a1unicity.cli finds every
    package module in sys.modules; vars() on a module executes it and
    shows the functions to wrap, and the command reads each function on
    its module at call time, so a wrapper set there counts the call."""
    _run_script(_EXECUTED + """
import io
from a1unicity import cli
wrapped = {
    "atlas": "verdict",
    "classical": "unicity_verdict witnesses",
    "sl2modules": "parse_descriptor format_descriptor realize IrreducibleDescriptor",
    "jordan": "tensor_pair tensor_multi tensor_pair_oracle",
    "ffmatrix": "jordan_block_sizes rank kronecker sym_power",
    "enumerator": "enumerate_embeddings dn_partition_list partitions_bounded jordan_menu "
                  "canonicalize",
    "selfcheck": "run_selfcheck check_tensor_oracle check_atlas",
}
for name in _names:
    module = sys.modules["a1unicity." + name]
    names = vars(module)
    assert type(module) is types.ModuleType, name
    assert all(callable(names[f]) for f in wrapped.get(name, "").split()), name
assert len(vars(sys.modules["a1unicity.selfcheck"])["SUITES"]) == 9
jordan = sys.modules["a1unicity.jordan"]
original, calls = jordan.tensor_multi, []
def counted(*args, **kwargs):
    calls.append(args)
    return original(*args, **kwargs)
jordan.tensor_multi = counted
assert cli.run(["tensor", "-p", "7", "2,5"], out=io.StringIO()) == 0
assert calls == [([2, 5], 7)], calls
""")


def test_package_names_resolve_in_their_modules(monkeypatch):
    """Each exported name is the object its module defines, looked up on
    every access; other names raise AttributeError."""
    assert len(a1unicity.__all__) == len(set(a1unicity.__all__)) == 50
    for name in a1unicity.__all__:
        module = sys.modules[getattr(a1unicity, name).__module__]
        assert getattr(a1unicity, name) is getattr(module, name), name
    with pytest.raises(AttributeError):
        a1unicity.no_such_name  # noqa: B018
    # nothing is cached, so a patch on the module shows through the package
    monkeypatch.setattr(sl2modules, "realize", tuple)
    assert a1unicity.realize is tuple


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
    code, _ = capture(["witnesses", "--family", "SO", "--p", "5", "--partition", "3,1,1,1"])
    assert code == 1  # small rank -> out of scope
    code, _ = capture(["witnesses", "--family", "A", "--p", "2", "--partition", "3,1"])
    assert code == 1  # element order is not p


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


def _raise_invalid_query():
    raise InvalidQueryError("search budget exceeded")


@pytest.mark.parametrize("suite, detail", [
    (lambda: (False, "x"), "x"),
    (_raise_invalid_query, "InvalidQueryError: search budget exceeded"),
], ids=["fails", "raises"])
def test_selfcheck_reports_a_failed_suite_and_exits_one(monkeypatch, suite, detail):
    """`a1u selfcheck` prints what run_selfcheck emits: one failing or
    raising suite gives its FAIL line, the other suites still run, and the
    exit is 1."""
    suites = list(selfcheck.SUITES)
    name, _, _ = suites[4]
    suites[4] = (name, suite, False)
    monkeypatch.setattr(selfcheck, "SUITES", suites)
    code, text = capture(["selfcheck", "--quick"])
    assert code == 1
    lines = text.splitlines()
    assert lines[4] == f"FAIL  {name}: {detail}"
    assert lines[-1] == "CHECKS FAILED"
    assert text.count("PASS") == 8


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
    # the parser is built once per process; a usage error, --help and a
    # run with flags leave nothing behind for the next run
    query = ["enumerate", "--form", "symplectic", "--p", "7", "--partition", "4,4,2",
             "--json"]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert capture(["enumerate", "--form", "symplectic"]) == (2, "")
        assert capture(["enumerate", "--help"]) == (0, "")
    code, _ = capture(query + ["--max-twist", "2", "--distinct-irr"])
    assert code == 0
    code, text = capture(query)
    assert code == 0 and text == _run_cli_process(query).stdout
    assert json.loads(text)["input"]["max_twist"] == 3
    assert json.loads(text)["input"]["distinct_irr"] is False


_PRIMES = st.sampled_from(
    ["2", "3", "5", "7", "11", "13", "0", "1", "4", "9", "-3", "x"]
)
_FAMILIES = st.sampled_from(["A", "B", "C", "D", "SL", "Sp", "SO", "sp", "Q"])
_DIMS = st.one_of(st.just([]), st.integers(-2, 12).map(lambda d: ["--dim", str(d)]))
_IRREDUCIBLES = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 3)), min_size=1, max_size=3
).map(lambda factors: "*".join(f"L({w})@{t}" for w, t in factors))
_SUMMANDS = st.one_of(
    _IRREDUCIBLES,
    _IRREDUCIBLES.map(lambda s: "2*" + s),
    st.integers(0, 20).map(lambda c: f"W({c})"),
    st.integers(0, 20).map(lambda c: f"T({c})"),
    st.integers(0, 12).map(lambda k: f"{k}*triv"),
)
_DESCRIPTORS = st.one_of(
    st.lists(_SUMMANDS, min_size=1, max_size=3).map("+".join),
    st.sampled_from(
        ["", "+", "L(", "L(1)@", "2*", "triv*3", "L(-1)", "L(1)**L(2)", "W(5)+"]
    ),
)
_GROUPS = st.sampled_from(["G2", "F4", "E6", "E7", "E8", "E9"])
_LABELS = st.sampled_from(
    ["A1", "~A1", "Ã1", "G2(a1)", "(A5)'", "E8(a7)", "A3", "", "zz"]
)
_FORMS = st.sampled_from(["none", "symplectic", "orthogonal", "both"])
_SIZES = st.one_of(
    st.lists(st.integers(0, 15), min_size=1, max_size=3).map(
        lambda sizes: ",".join(map(str, sizes))
    ),
    st.sampled_from(["", ",", "2,x", "-1", "2,,3"]),
)


@st.composite
def _partition_texts(draw):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(["", ",", "1,3", "0", "-2,1", "a", "3,,1"]))
    parts, room = [], draw(st.integers(1, 10))
    while room:
        parts.append(draw(st.integers(1, room)))
        room -= parts[-1]
    return ",".join(map(str, sorted(parts, reverse=True)))


@st.composite
def _query_argv(draw):
    command = draw(st.sampled_from(
        ["tensor", "module", "classical", "exceptional", "enumerate", "witnesses"]
    ))
    p = draw(_PRIMES)
    if command == "tensor":
        argv = ["tensor", "-p", p, draw(_SIZES)]
    elif command == "module":
        argv = ["module", "-p", p, draw(_DESCRIPTORS)]
    elif command == "classical":
        argv = ["classify", "classical", "--family", draw(_FAMILIES), *draw(_DIMS),
                "--p", p, "--partition", draw(_partition_texts())]
    elif command == "exceptional":
        argv = ["classify", "exceptional", "--group", draw(_GROUPS),
                "--p", p, "--label", draw(_LABELS)]
    elif command == "enumerate":
        argv = ["enumerate", "--form", draw(_FORMS), *draw(_DIMS),
                "--p", p, "--partition", draw(_partition_texts()),
                "--max-twist", str(draw(st.sampled_from([1, 2, 3, 10**6, 10**18])))]
        if draw(st.booleans()):
            argv.append("--distinct-irr")
    else:
        argv = ["witnesses", "--family", draw(_FAMILIES), *draw(_DIMS),
                "--p", p, "--partition", draw(_partition_texts())]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=250, deadline=None)
@given(_query_argv())
def test_every_query_is_answered_or_refused_in_one_line(argv):
    """Exit 0, 1 or 2 and never a traceback.  Exit 1 is either a refusal
    (no stdout, one `a1u:` line on stderr) or a classify verdict outside
    the tables (OutOfScope, BadPrime, UnknownLabel) printed as the answer."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = run(argv, out=out)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1 and not out.getvalue():
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("a1u:"), lines
    elif code == 1:
        assert argv[0] == "classify" and err.getvalue() == ""
        if "--json" in argv:
            verdict = json.loads(out.getvalue())["result"]["verdict"]
            assert verdict in ("OutOfScope", "BadPrime", "UnknownLabel")
