"""Each selfcheck suite whose layer gives a wrong answer prints its FAIL
line: the layer function the suite reads is patched, and the exact
detail line is pinned."""

import pytest

from a1unicity import selfcheck
from a1unicity.enumerator import EnumerationResult


def _return(value):
    return lambda *args, **kwargs: value


@pytest.mark.parametrize("name, attr, wrong, detail", [
    ("module-facts", "kronecker", lambda a, b, field: a,
     "T(5) mod 5: L(4)xL(1) has (5,)"),
    ("orthogonal-menu", "jordan_menu", _return([]), "menu mismatch at p = 5: []"),
    ("distinct-sum-partition-menus", "dn_partition_list", _return(set()), "D4, p = 5: []"),
    ("classifier-vs-enumeration", "enumerate_embeddings",
     _return(EnumerationResult(2, 3, False, tuple)),
     "SL(2) blocks (2) p = 5: classifier Unique, enumeration count 2 growth False"),
    ("witness-soundness", "admits_form", _return(False), "form violation for SL(6) (5,1)"),
], ids=["module-facts", "orthogonal-menu", "dn-lists", "classifier-vs-enumeration",
        "witness-soundness"])
def test_suite_fails_on_a_wrong_layer_answer(monkeypatch, name, attr, wrong, detail):
    monkeypatch.setattr(selfcheck, attr, wrong)
    monkeypatch.setattr(selfcheck, "SUITES", [s for s in selfcheck.SUITES if s[0] == name])
    lines = []
    assert not selfcheck.run_selfcheck(quick=True, emit=lines.append)
    assert lines == [f"FAIL  {name}: {detail}", "CHECKS FAILED"]
