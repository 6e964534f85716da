"""Cross-validation suites runnable from the command line.

Each suite re-derives a family of results two independent ways (closed
form vs. matrix oracle, classifier vs. enumeration, table vs. frozen
expectations) and returns (ok, detail).  `a1u selfcheck` runs them all
(a suite that raises a DomainError fails, and the rest still run), the
acceptance tests call them, and the frozen tables here are the only
copies.  The classifier-vs-enumeration suite enumerates each partition
once, at the least listed prime above its blocks, and asks the
classifier at every listed prime above them: below block p the
enumeration does not depend on p (see the enumerator docstring).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import atlas
from .classical import (
    FAMILY_FORM,
    Partition,
    SL,
    SO,
    Sp,
    VerdictKind,
    unicity_verdict,
    validate,
    witnesses,
)
from .enumerator import (
    partitions_bounded,
    dn_partition_list,
    enumerate_embeddings,
    jordan_menu,
)
from .errors import DomainError, NoWitnessRuleError, ValidationError
from .ffmatrix import PrimeField, kronecker, sym_power
from .jordan import (
    jordan_type_of_unipotent,
    summand_profile,
    tensor_multi,
    tensor_pair,
    tensor_pair_oracle,
)
from .sl2modules import (
    FormType,
    admits_form,
    dimension,
    jordan_type,
    realize,
)

# The irreducible orthogonal menu up to dimension 14, frozen by hand:
# weights -> (dimension, blocks).  A menu at p holds the rows whose
# weights are all below p, so the p = 5 menu omits the last two.
ORTHOGONAL_MENU_EXPECTED = {
    (2,): (3, (3,)),
    (1, 1): (4, (3, 1)),
    (4,): (5, (5,)),
    (1, 3): (8, (5, 3)),
    (2, 2): (9, (5, 3, 1)),
    (1, 1, 2): (12, (5, 3, 3, 1)),
    (6,): (7, (7,)),
    (1, 5): (12, (7, 5)),
}

# Criterion 7's primes and dimensions, by the quick flag.
ENUMERATION_RANGES = {
    False: ((5, 7, 11, 13), {SL: range(2, 13), Sp: range(4, 17, 2), SO: range(7, 16)}),
    True: ((5, 7), {SL: range(2, 7), Sp: range(4, 9, 2), SO: range(7, 10)}),
}

# Partition menus for sums of pairwise inequivalent orthogonal
# irreducibles on the natural module of SO(2n), frozen by hand.
DN_EXPECTED = {
    (4, 5): {(5, 3), (3, 3, 1, 1)},
    (4, 7): {(7, 1), (5, 3), (3, 3, 1, 1)},
    (5, 5): {(5, 5), (5, 3, 1, 1), (3, 3, 3, 1)},
    (5, 7): {(7, 3), (5, 5), (5, 3, 1, 1), (3, 3, 3, 1)},
    (6, 5): {(5, 3, 3, 1), (3, 3, 3, 1, 1, 1), (3, 3, 3, 3)},
    (6, 7): {(7, 5), (7, 3, 1, 1), (5, 3, 3, 1), (3, 3, 3, 1, 1, 1), (3, 3, 3, 3)},
    (7, 5): {(5, 5, 3, 1), (5, 3, 3, 3), (5, 3, 3, 1, 1, 1), (3, 3, 3, 3, 1, 1)},
    (7, 7): {
        (7, 7),
        (7, 3, 3, 1),
        (5, 5, 3, 1),
        (5, 3, 3, 3),
        (5, 3, 3, 1, 1, 1),
        (3, 3, 3, 3, 1, 1),
    },
}

# The exceptional atlas, hand-typed for the diff against the shipped
# rule file: each class it calls Unique at p = 13, with the least good
# prime from which it is Unique at every good prime up to 17.
ATLAS_UNIQUE_FROM = {
    "G2": {"A1": 5, "G2": 5, "Ã1": 5},
    "F4": {"A1": 5, "F4": 5, "Ã2": 5, "B2": 5, "B3": 5, "C3": 5, "F4(a1)": 5},
    "E6": {"A1": 5, "A3": 5, "D4": 5, "E6": 5, "A5": 7, "D5": 7, "E6(a1)": 7},
    "E7": {
        "A1": 5, "A3": 5, "D4": 5, "E7": 5, "(A5)''": 7, "(A5)'": 7,
        "D5": 11, "A6": 11, "D6": 11, "E6(a1)": 11, "E6": 11, "E7(a1)": 11,
    },
    "E8": {
        "A1": 7, "A3": 7, "D4": 7, "E8": 7, "A5": 7, "D5": 11, "E6(a1)": 11,
        "D6": 11, "E6": 11, "A7": 11, "D7": 11, "E7(a1)": 11, "E7": 11,
        "E8(a4)": 11, "E8(a2)": 11, "E8(a1)": 11,
    },
}

# Recorded counterexamples: NonUnique, and among the recorded rows.
ATLAS_NONUNIQUE = {
    ("E6", 5): {"A2", "A4", "D4(a1)"},
    ("E7", 5): {"A2", "A4", "D4(a1)"},
    ("E7", 7): {"A2", "A4", "D4(a1)", "D5(a1)", "D6(a2)", "E6(a3)", "E7(a5)", "A6"},
    ("E8", 7): {
        "A2", "A4", "D4(a1)", "D5(a1)", "A6", "E6(a3)", "D6(a2)",
        "E7(a5)", "E8(a7)",
    },
}


def check_tensor_oracle(quick: bool = False):
    """Closed-form tensor decomposition equals the matrix oracle."""
    primes = (2, 3, 5, 7) if quick else (2, 3, 5, 7, 11, 13)
    for p in primes:
        for m in range(1, p + 1):
            for n in range(m, p + 1):
                fast = tensor_pair(m, n, p)
                slow = tensor_pair_oracle(m, n, p)
                if fast != slow:
                    return False, f"J({m})xJ({n}) mod {p}: {fast.blocks} vs {slow.blocks}"
                if fast.dimension != m * n:
                    return False, f"dimension drift at J({m})xJ({n}) mod {p}"
                if tensor_pair(n, m, p) != fast:
                    return False, f"asymmetry at J({m})xJ({n}) mod {p}"
    return True, f"exhaustive over p in {primes}"


def check_pair_profiles():
    """Two-factor products have >= 3 nontrivial blocks or two of distinct
    sizes, apart from the (2,2) and (2,p) exceptions."""
    for p in (3, 5, 7, 11, 13):
        for m in range(2, p + 1):
            for n in range(m, p + 1):
                t = tensor_pair(m, n, p)
                count, sizes = summand_profile(t)
                if (m, n) == (2, 2):
                    if t.blocks != (3, 1):
                        return False, f"J(2)xJ(2) mod {p} gave {t.blocks}"
                    continue
                if (m, n) == (2, p):
                    if t.blocks != (p, p):
                        return False, f"J(2)xJ({p}) mod {p} gave {t.blocks}"
                    continue
                if not (count >= 3 or (count == 2 and len(sizes) == 2)):
                    return False, f"profile failure at J({m})xJ({n}) mod {p}"
    return True, "all pairs, p in (3, 5, 7, 11, 13)"


def check_multi_profiles():
    """Products of >= 3 blocks always have >= 3 nontrivial summands."""
    for p in (3, 5, 7):
        for t_len in (3, 4):
            for sizes in combinations_with_replacement(range(2, p + 1), t_len):
                count, _ = summand_profile(tensor_multi(sizes, p))
                if count < 3:
                    return False, f"{sizes} mod {p}"
    known = {2: (2, 2, 2, 2), 3: (3, 3, 2), 5: (4, 2, 2), 7: (4, 2, 2)}
    for p, want in known.items():
        got = tensor_multi([2, 2, 2], p).blocks
        if got != want:
            return False, f"J(2)^x3 mod {p}: {got}"
    return True, "t in (3, 4), p in (3, 5, 7)"


def check_module_facts():
    """Symmetric-power realizations match the stated block structures,
    and so does T(c) for p <= c <= 2p-2: with s = c - p + 1 it is a
    summand of L(p-1) x L(s) (Jantzen, Representations of Algebraic
    Groups, II.E), on which u acts as (s+1).J(p), so its 2p dimensions
    make the blocks (p, p)."""
    for p in (5, 7):
        field = PrimeField(p)
        for c in range(0, 2 * p - 1):
            got = jordan_type_of_unipotent(sym_power(c, field), field).blocks
            want = (c + 1,) if c <= p - 1 else tuple(sorted((p, c - p + 1), reverse=True))
            if got != want:
                return False, f"Sym^{c} mod {p}: {got} vs {want}"
        for s in range(1, p):
            product = kronecker(sym_power(p - 1, field), sym_power(s, field), field)
            got = jordan_type_of_unipotent(product, field).blocks
            if got != (p,) * (s + 1):
                return False, f"T({s + p - 1}) mod {p}: L({p - 1})xL({s}) has {got}"
    return True, "p in (5, 7), c <= 2p-2"


def check_orthogonal_menu():
    """The orthogonal irreducible menu matches the frozen table."""
    for p in (5, 7):
        expected = {w: row for w, row in ORTHOGONAL_MENU_EXPECTED.items() if max(w) < p}
        menu = jordan_menu(FormType.ORTHOGONAL, p, 14)
        got = {
            tuple(f.weight for f in desc.factors): (desc.dimension, jt.blocks)
            for desc, jt in menu
        }
        if got != expected:
            return False, f"menu mismatch at p = {p}: {sorted(got)}"
    return True, "p in (5, 7), dim <= 14"


def check_dn_lists():
    """Distinct-irreducible orthogonal sums on SO(2n) reproduce the frozen
    partition menus."""
    for (n, p), expected in DN_EXPECTED.items():
        got = dn_partition_list(n, p)
        if got != expected:
            return False, f"D{n}, p = {p}: {sorted(got)}"
    return True, "n in 4..7, p in (5, 7)"


def classifier_vs_enumeration(primes, dims, max_twist: int = 3):
    """Yield (group, partition, p, verdict, enumeration result) for every
    prime p of primes and every valid partition with all blocks below p.
    dims maps a group constructor (SL, Sp or SO) to the dimensions to
    visit, in its order; the primes are visited in their order.  Below
    block p the enumeration does not depend on p (see the enumerator
    docstring), so each partition is enumerated once, at the first prime
    where it is valid, and that result comes with the classifier's
    verdict at every prime.  Each result holds its search memo, so only
    the current partition's is kept."""
    for make, family_dims in dims.items():
        for dim in family_dims:
            g = make(dim)
            form = FAMILY_FORM[g.family]
            for blocks in partitions_bounded(dim, max(primes) - 1):
                if blocks[0] < 2:
                    continue
                part = Partition(blocks)
                result = None
                for p in primes:
                    if p <= blocks[0]:
                        continue
                    try:
                        validate(g, part, p)
                    except ValidationError:
                        continue
                    if result is None:
                        result = enumerate_embeddings(form, dim, part, p, max_twist)
                    yield g, part, p, unicity_verdict(g, part, p), result


def agrees(verdict, result) -> bool:
    """The classifier says Unique when the enumeration finds exactly one
    stable class, and NonUnique otherwise."""
    stable_unique = result.count == 1 and not result.growth_flag
    return verdict.kind is (VerdictKind.UNIQUE if stable_unique else VerdictKind.NON_UNIQUE)


def check_classifier_vs_enumeration(quick: bool = False):
    """Classifier verdict Unique iff exactly one stable enumeration class,
    and NonUnique otherwise, for every valid partition with all blocks
    below p."""
    cases = 0
    for g, part, p, verdict, res in classifier_vs_enumeration(*ENUMERATION_RANGES[quick]):
        if not agrees(verdict, res):
            return False, (
                f"{g} blocks ({part}) p = {p}: classifier "
                f"{verdict.kind.value}, enumeration count {res.count} "
                f"growth {res.growth_flag}"
            )
        cases += 1
    return True, f"{cases} partition queries agree"


def check_witness_soundness():
    """Witness pairs share dimension and Jordan type, respect the ambient
    form and survive the matrix oracle."""
    cases = []
    for p in (5, 7):
        for r in (1, 2, 3, 4, 5):
            cases.append((SL(p + r), Partition((p,) + (1,) * r), p))
            cases.append((SL(3 + r), Partition((3,) + (1,) * r), p))
            if 3 + r >= 7:
                cases.append((SO(3 + r), Partition((3,) + (1,) * r), p))
        for r in (0, 2, 4):
            cases.append((Sp(2 * p + r), Partition((p, p) + (1,) * r), p))
            if r:
                cases.append((Sp(6 + r), Partition((3, 3) + (1,) * r), p))
    checked = 0
    for g, part, p in cases:
        verdict = unicity_verdict(g, part, p)
        if verdict.kind is not VerdictKind.NON_UNIQUE:
            return False, f"{g} ({part}) p = {p} is {verdict.kind.value}"
        try:
            first, second = witnesses(g, part, p)
        except NoWitnessRuleError:
            return False, f"missing witnesses for {g} ({part}) p = {p}"
        if first == second:
            return False, f"degenerate witness pair for {g} ({part})"
        form = FAMILY_FORM[g.family]
        for d in (first, second):
            if dimension(d) != g.dimension:
                return False, f"dimension off for {g} ({part})"
            if jordan_type(d).blocks != part.parts:
                return False, f"type off for {g} ({part})"
            if not admits_form(d, form):
                return False, f"form violation for {g} ({part})"
            field = PrimeField(p)
            if jordan_type_of_unipotent(realize(d), field).blocks != part.parts:
                return False, f"oracle mismatch for {g} ({part})"
        checked += 1
    return True, f"{checked} witness pairs verified"


def check_atlas():
    """Atlas Unique lists equal the frozen table at every good prime up
    to 17 and nest across them; the frozen counterexamples are recorded
    and NonUnique."""
    for gname, unique_from in ATLAS_UNIQUE_FROM.items():
        g = atlas.group(gname)
        goods = [p for p in (5, 7, 11, 13, 17) if g.is_good(p)]
        lists = {p: atlas.list_unique(g, p) for p in goods}
        for p, got in lists.items():
            if got != {label for label, least in unique_from.items() if p >= least}:
                return False, f"{gname} at p = {p}: {sorted(got)}"
        for small, large in zip(goods, goods[1:]):
            if not lists[small] <= lists[large]:
                return False, f"nesting fails for {gname}: {small} vs {large}"
    for (gname, p), labels in ATLAS_NONUNIQUE.items():
        g = atlas.group(gname)
        recorded = atlas.recorded_nonunique(g, p)
        if not labels <= recorded:
            return False, f"{gname} p = {p} records only {sorted(recorded)}"
        for label in recorded:
            v = atlas.verdict(g, p, label)
            if v.kind is not VerdictKind.NON_UNIQUE:
                return False, f"{gname} p = {p} {label}: {v.kind.value}"
    return True, "tables, counterexamples and nesting"


SUITES = [
    ("tensor-oracle-equivalence", check_tensor_oracle, True),
    ("two-factor-profiles", check_pair_profiles, False),
    ("multi-factor-profiles", check_multi_profiles, False),
    ("module-facts", check_module_facts, False),
    ("orthogonal-menu", check_orthogonal_menu, False),
    ("distinct-sum-partition-menus", check_dn_lists, False),
    ("classifier-vs-enumeration", check_classifier_vs_enumeration, True),
    ("witness-soundness", check_witness_soundness, False),
    ("exceptional-atlas", check_atlas, False),
]


def run_selfcheck(quick: bool = False, emit=print) -> bool:
    ok_all = True
    for name, fn, takes_quick in SUITES:
        try:
            ok, detail = fn(quick) if takes_quick else fn()
        except DomainError as err:
            ok, detail = False, f"{type(err).__name__}: {err}"
        ok_all &= ok
        emit(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    emit(("all checks passed" if ok_all else "CHECKS FAILED"))
    return ok_all
