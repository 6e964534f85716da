"""Tests of the benchmark itself: checkers, measurement, tracing hygiene,
seeds.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from a1unicity import enumerator, selfcheck, sl2modules  # noqa: E402
from a1unicity.classical import VerdictKind  # noqa: E402


def _phase(workload, name, seed=1):
    phases = workloads.prepare(workload, workloads.generate(workload, seed))
    return next(p for p in phases if p.name == name)


# --- checkers flag corrupted answers -------------------------------------------


def test_oracle_checker_flags_wrong_blocks():
    phase = _phase("oracle-sweep", "oracle_sweep")
    case = phase.cases[0]
    answer = phase.op(case)
    assert checks.check_blocks(case, answer) is None
    wrong = (answer[0] - 1,) + tuple(answer[1:]) + (1,)
    assert checks.check_blocks(case, wrong) is not None


def test_rejection_checker_flags_a_returning_case():
    phase = _phase("oracle-sweep", "oracle_reject")
    case = min(phase.cases, key=lambda c: len(c["perm"]))
    assert phase.op(case) == checks.REJECTED
    assert checks.check_rejection(case, checks.REJECTED) is None
    assert checks.check_rejection(case, (3, 2, 1)) is not None


def test_verdict_checker_flags_flipped_verdict_and_wrong_count():
    phase = _phase("enumeration-sweep", "verdict_sweep")
    case = next(c for c in phase.cases if c["count"] == 1 and not c["growth"])
    kind, count, growth = phase.op(case)
    assert checks.check_verdict(case, (kind, count, growth)) is None
    flipped = VerdictKind.NON_UNIQUE.value if kind == VerdictKind.UNIQUE.value \
        else VerdictKind.UNIQUE.value
    assert checks.check_verdict(case, (flipped, count, growth)) is not None
    assert checks.check_verdict(case, (kind, count, True)) is not None
    busy = next(c for c in phase.cases if c["count"] > 3)
    kind, count, growth = phase.op(busy)
    assert checks.check_verdict(busy, (kind, count + 1, growth)) is not None


def test_listing_checker_flags_dropped_duplicate_and_shifted_classes():
    phase = _phase("enumeration-sweep", "listing_sweep")
    case = next(c for c in phase.cases if c["max_twist"] == 3)
    count, strings = phase.op(case)
    assert checks.check_listing(case, (count, strings)) is None
    assert checks.check_listing(case, (count, strings[1:])) is not None
    assert checks.check_listing(case, (count - 1, strings[1:])) is not None
    assert checks.check_listing(case, (count, strings[1:] + strings[:1])) is None
    assert checks.check_listing(case, (count, strings[:-1] + strings[:1])) is not None
    d = sl2modules.parse_descriptor(strings[-1], case["p"])
    shifted = sl2modules.ModuleDescriptor(
        tuple(type(s)(s.module.shifted(1)) if hasattr(s, "module") else s
              for s in d.summands), d.p)
    shifted_text = sl2modules.format_descriptor(shifted)
    assert checks.check_listing(case, (count, strings[:-1] + [shifted_text])) is not None


def test_dn_checker_flags_wrong_menus():
    case = {"n": 5, "p": 7, "key": "D5 p7"}
    expected = selfcheck.DN_EXPECTED[(5, 7)]
    assert checks.check_dn(case, expected) is None
    assert checks.check_dn(case, set(list(expected)[1:])) is not None
    big = {"n": 8, "p": 5, "key": "D8 p5"}
    menu = enumerator.dn_partition_list(8, 5)
    assert checks.check_dn(big, menu) is None
    assert checks.check_dn(big, menu | {(4, 4, 4, 4)}) is not None
    assert checks.check_dn(big, set()) is not None


def test_cli_checker_flags_changed_stdout_and_exit_code():
    passes = workloads.prepare("cli-cold", workloads.generate("cli-cold", 1))
    q = next(q for q in passes[0] if q["kind"] == "tensor")
    out = q["ref_out"].encode()
    assert checks.check_cli(q, 0, out) is None
    assert checks.check_cli(q, 0, out.replace(b"]", b",1]", 1)) is not None
    assert checks.check_cli(q, 1, out) is not None
    bad = next(q for q in passes[0] if q["kind"] == "classical-usage")
    assert checks.check_cli(bad, 2, b"") is None
    assert checks.check_cli(dict(bad, ref_rc=0), 0, b"") is not None


def test_selfcheck_checker_flags_a_failed_suite():
    good = "".join(f"PASS  {name}: ok\n" for name, _, _ in selfcheck.SUITES)
    good += "all checks passed\n"
    assert checks.check_selfcheck(0, good.encode()) is None
    assert checks.check_selfcheck(1, good.encode()) is not None
    bad = good.replace("PASS  module-facts", "FAIL  module-facts")
    bad = bad.replace("all checks passed", "CHECKS FAILED")
    assert checks.check_selfcheck(1, bad.encode()) is not None


# --- measurement ----------------------------------------------------------------


def test_fastest_per_case_keeps_each_cases_fastest_run():
    import run

    # [phase, raw seconds, factor, feeds op_ms.*, case index]; phase "a"
    # runs twice a pass, so case ("a", 0) has four runs over two passes
    first = [["a", 3.0, 1.0, True, 0], ["a", 1.0, 1.0, True, 1],
             ["b", 2.0, 1.0, False, 0], ["a", 2.0, 1.0, True, 0]]
    second = [["a", 2.5, 1.0, True, 0], ["a", 4.0, 1.0, True, 1],
              ["b", 1.5, 1.0, False, 0], ["a", 3.5, 1.0, True, 0]]
    best = run.fastest_per_case([first, second])
    assert sorted((s[0], s[4], s[1]) for s in best) == [("a", 0, 2.0), ("a", 1, 1.0),
                                                         ("b", 0, 1.5)]


def test_percentiles_are_harrell_davis_estimates():
    import run

    values = list(range(1, 102))
    assert run.pctl(values, 50) == pytest.approx(51)
    assert 90 < run.pctl(values, 90) < 92
    # a single extreme value barely moves the estimate
    assert run.pctl(values[:-1] + [10 ** 6], 90) == pytest.approx(run.pctl(values, 90), rel=1e-3)


def test_timed_child_times_every_selfcheck_suite(tmp_path):
    out = tmp_path / "suites.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "timed_child.py"), str(out), "selfcheck", "--quick"],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert checks.check_selfcheck(done.returncode, done.stdout) is None
    seconds = json.loads(out.read_text())
    assert len(seconds) == len(selfcheck.SUITES)
    assert all(s >= 0 for s in seconds)


# --- tracing hygiene ------------------------------------------------------------


def _attribute_snapshot():
    snap = {}
    for mod_name, module in tracing.package_modules().items():
        snap[mod_name] = dict(vars(module))
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                snap[f"{mod_name}.{name}"] = dict(vars(value))
    return snap


def _assert_identical(before, after):
    assert before.keys() == after.keys()
    for owner, attrs in before.items():
        assert attrs.keys() == after[owner].keys(), owner
        for attr, value in attrs.items():
            assert after[owner][attr] is value, f"{owner}.{attr}"


def test_untraced_pass_installs_no_wrapper():
    import run

    phases = workloads.prepare("oracle-sweep", workloads.generate("oracle-sweep", 1))
    small = [workloads.Phase(p.name, p.cases[:2], p.op, p.check, p.latencies) for p in phases]
    before = _attribute_snapshot()
    tally = run.Tally()
    run.run_sweep_pass(workloads, small, tally)
    assert tally.failures == []
    assert tracing.installed_wrappers() == []
    _assert_identical(before, _attribute_snapshot())


def test_uninstall_restores_every_patched_attribute():
    before = _attribute_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        names = set(tracing.installed_wrappers())
        assert "enumerator.tensor_multi" not in names  # named after the defining module
        assert {"jordan.tensor_multi", "ffmatrix.rank", "selfcheck.module-facts",
                "sl2modules.IrreducibleDescriptor.sort_key"} <= names
        assert enumerator.tensor_multi is not before["enumerator"]["tensor_multi"]
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    _assert_identical(before, _attribute_snapshot())


def test_traced_pass_records_spans_with_self_time():
    import run

    phase = _phase("enumeration-sweep", "dn_menu")
    small = [workloads.Phase(phase.name, phase.cases[:3], phase.op, phase.check)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_sweep_pass(workloads, small, run.Tally(), tracer)
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    assert agg["calls"]["enumerator.dn_partition_list"] == 3
    for name, self_s in agg["self_s"].items():
        assert 0 <= self_s <= agg["total_s"][name] + 1e-9
    assert {item for *_, item in tracer.spans} == {c["key"] for c in small[0].cases}


# --- seeds ------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.canonical_bytes(workloads.generate(workload, 7))
    assert first == workloads.canonical_bytes(workloads.generate(workload, 7))
    assert first != workloads.canonical_bytes(workloads.generate(workload, 1007))


def test_fresh_process_generates_the_same_inputs():
    import hashlib

    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "oracle-sweep",
           "--seed", "3", "--seconds", "1", "--setup-only"]
    outs = [subprocess.run(cmd, cwd=ROOT, capture_output=True, check=True).stdout
            for _ in range(2)]
    digests = {line.split(b'"digest": "')[1][:64] for line in outs}
    want = hashlib.sha256(
        workloads.canonical_bytes(workloads.generate("oracle-sweep", 3))).hexdigest()
    assert digests == {want.encode()}


def test_no_result_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == b""
