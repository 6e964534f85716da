"""Each selfcheck suite whose layer gives a wrong answer prints its FAIL
line: the layer function the suite reads is patched, and the exact
detail line is pinned."""

import pytest

from a1unicity import atlas, selfcheck
from a1unicity.enumerator import EnumerationResult
from a1unicity.jordan import JordanType


def _return(value):
    return lambda *args, **kwargs: value


@pytest.mark.parametrize("name, owner, attr, wrong, detail", [
    ("tensor-oracle-equivalence", selfcheck, "tensor_pair_oracle",
     lambda m, n, p: JordanType((1,) * (m * n), p), "J(1)xJ(2) mod 2: (2,) vs (1, 1)"),
    ("two-factor-profiles", selfcheck, "summand_profile", _return((0, set())),
     "profile failure at J(3)xJ(3) mod 3"),
    ("multi-factor-profiles", selfcheck, "tensor_multi",
     lambda sizes, p: JordanType((1,), p), "(2, 2, 2) mod 3"),
    ("module-facts", selfcheck, "kronecker", lambda a, b, field: a,
     "T(5) mod 5: L(4)xL(1) has (5,)"),
    ("orthogonal-menu", selfcheck, "jordan_menu", _return([]), "menu mismatch at p = 5: []"),
    ("distinct-sum-partition-menus", selfcheck, "dn_partition_list", _return(set()),
     "D4, p = 5: []"),
    ("classifier-vs-enumeration", selfcheck, "enumerate_embeddings",
     _return(EnumerationResult(2, 3, False, tuple)),
     "SL(2) blocks (2) p = 5: classifier Unique, enumeration count 2 growth False"),
    ("witness-soundness", selfcheck, "admits_form", _return(False),
     "form violation for SL(6) (5,1)"),
    ("exceptional-atlas", atlas, "list_unique", _return(set()), "G2 at p = 5: []"),
], ids=["tensor-oracle", "two-factor-profiles", "multi-factor-profiles", "module-facts",
        "orthogonal-menu", "dn-lists", "classifier-vs-enumeration", "witness-soundness",
        "exceptional-atlas"])
def test_suite_fails_on_a_wrong_layer_answer(monkeypatch, name, owner, attr, wrong, detail):
    monkeypatch.setattr(owner, attr, wrong)
    monkeypatch.setattr(selfcheck, "SUITES", [s for s in selfcheck.SUITES if s[0] == name])
    lines = []
    assert not selfcheck.run_selfcheck(quick=True, emit=lines.append)
    assert lines == [f"FAIL  {name}: {detail}", "CHECKS FAILED"]
