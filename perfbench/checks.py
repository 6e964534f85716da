"""Answer checkers.  Each returns None for a correct answer, or a one-line
description of what is wrong.  They never raise on a wrong answer, so a
run counts failures and keeps going.
"""

from __future__ import annotations

from collections import Counter

from a1unicity import classical, enumerator, jordan, sl2modules
from a1unicity.selfcheck import DN_EXPECTED, SUITES
from a1unicity.sl2modules import Doubled, FormType, Irr, Trivial

FORMS = {"SL": FormType.NONE, "Sp": FormType.SYMPLECTIC, "SO": FormType.ORTHOGONAL}
REJECTED = "NotOrderPError"


def check_cli(query: dict, rc: int, stdout: bytes) -> str | None:
    """Exit code as intended and as in-process; stdout byte-identical to
    the in-process reference."""
    if query["ref_rc"] != query["expect_rc"]:
        return (f"{query['argv']}: in-process exit {query['ref_rc']}, "
                f"intended {query['expect_rc']}")
    if rc != query["ref_rc"]:
        return f"{query['argv']}: exit {rc}, reference {query['ref_rc']}"
    if stdout != query["ref_out"].encode("utf-8"):
        return f"{query['argv']}: stdout differs from the in-process reference"
    return None


def check_selfcheck(rc: int, stdout: bytes) -> str | None:
    lines = stdout.decode("utf-8", "replace").splitlines()
    passed = [line for line in lines if line.startswith("PASS  ")]
    if rc != 0 or not lines or lines[-1] != "all checks passed":
        return f"selfcheck exit {rc}, last line {lines[-1:]!r}"
    if len(passed) != len(SUITES):
        return f"selfcheck printed {len(passed)} PASS lines for {len(SUITES)} suites"
    return None


def check_blocks(case: dict, blocks) -> str | None:
    """Oracle answer equals the closed-form Jordan type."""
    if tuple(blocks) != tuple(case["expected"]):
        return f"{case['key']}: oracle {tuple(blocks)} vs closed form {tuple(case['expected'])}"
    return None


def check_rejection(case: dict, outcome) -> str | None:
    """The oracle must raise NotOrderPError; `outcome` is the exception
    class name, or the blocks it returned."""
    if outcome != REJECTED:
        return f"{case['key']}: expected {REJECTED}, got {outcome!r}"
    return None


def check_verdict(case: dict, answer) -> str | None:
    """Classifier Unique iff one stable class; count and growth as frozen."""
    kind, count, growth = answer
    unique = count == 1 and not growth
    if (kind == classical.VerdictKind.UNIQUE.value) != unique:
        return (f"{case['key']}: classifier {kind}, enumeration count {count} "
                f"growth {growth}")
    if (count, growth) != (case["count"], case["growth"]):
        return (f"{case['key']}: count {count} growth {growth}, frozen "
                f"{case['count']} {case['growth']}")
    return None


def _summand_blocks(cls, p: int) -> Counter:
    blocks: Counter = Counter()
    for s in cls.descriptor.summands:
        if isinstance(s, (Irr, Doubled)):
            t = jordan.tensor_multi([f.weight + 1 for f in s.module.factors], p)
            copies = 2 if isinstance(s, Doubled) else 1
            for b in t.blocks:
                blocks[b] += copies
        elif isinstance(s, Trivial):
            blocks[1] += s.multiplicity
    return blocks


def check_dn(case: dict, partitions) -> str | None:
    """n <= 7: the frozen selfcheck menu.  n = 8: every partition has a
    distinct-irreducible class whose summand types add up to it."""
    n, p = case["n"], case["p"]
    got = {tuple(b) for b in partitions}
    if (n, p) in DN_EXPECTED:
        if got != DN_EXPECTED[(n, p)]:
            return f"{case['key']}: {sorted(got)} vs frozen {sorted(DN_EXPECTED[(n, p)])}"
        return None
    if not got:
        return f"{case['key']}: empty menu"
    for blocks in sorted(got):
        res = enumerator.enumerate_embeddings(
            FormType.ORTHOGONAL, 2 * n, blocks, p, 3, distinct_irr=True
        )
        if not any(
            _summand_blocks(c, p) == Counter(blocks)
            and any(not isinstance(s, Trivial) for s in c.descriptor.summands)
            for c in res.classes
        ):
            return f"{case['key']}: no class realizes {blocks}"
    return None


def check_listing(case: dict, answer) -> str | None:
    """Listed classes: count matches, each re-parses to a canonical
    structure of the right dimension, Jordan type and form, and no two
    coincide."""
    count, strings = answer
    p, blocks, form = case["p"], tuple(case["blocks"]), FORMS[case["family"]]
    if count != len(strings):
        return f"{case['key']}: count {count} but {len(strings)} classes listed"
    if case["max_twist"] == 3 and count != case["count"]:
        return f"{case['key']}: count {count}, frozen {case['count']}"
    seen = set()
    for text in strings:
        d = sl2modules.parse_descriptor(text, p)
        if sl2modules.dimension(d) != case["dim"]:
            return f"{case['key']}: {text} has dimension {sl2modules.dimension(d)}"
        if sl2modules.jordan_type(d).blocks != blocks:
            return f"{case['key']}: {text} has type {sl2modules.jordan_type(d).blocks}"
        if not sl2modules.admits_form(d, form):
            return f"{case['key']}: {text} carries no {form.value} form"
        canon = enumerator.canonicalize(d).descriptor
        if canon != d:
            return f"{case['key']}: {text} is not canonical"
        seen.add(canon)
    if len(seen) != len(strings):
        return f"{case['key']}: {len(strings) - len(seen)} duplicate classes"
    return None
