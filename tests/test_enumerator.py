import gc
import hashlib
import tracemalloc
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations, product
from math import prod

import pytest

from a1unicity.classical import FAMILY_FORM, SL, SO, Partition, Sp, unicity_verdict, validate
from a1unicity import enumerator, selfcheck
from a1unicity.enumerator import (
    _branch_weights,
    _group_key,
    _group_table,
    _table_prime,
    _tuples,
    canonicalize,
    count_table,
    dn_partition_list,
    enumerate_embeddings,
    jordan_menu,
    partitions_bounded,
)
from a1unicity.errors import (
    DomainError,
    InvalidQueryError,
    NotCompletelyReducibleError,
    ValidationError,
    VerdictKind,
)
from a1unicity.ffmatrix import PrimeField, is_prime
from a1unicity.jordan import jordan_type_of_unipotent, tensor_multi
from a1unicity.sl2modules import (
    Doubled,
    FormType,
    Irr,
    IrreducibleDescriptor,
    IrreducibleFactor,
    admits_form,
    Trivial,
    Weyl,
    ModuleDescriptor,
    dimension,
    format_descriptor,
    jordan_type,
    lone_copy_admits,
    parse_descriptor,
    realize,
)


def _class_strings(result):
    return {str(c) for c in result.classes}


def test_symplectic_regular_block_is_rigid():
    res = enumerate_embeddings(FormType.SYMPLECTIC, 4, (4,), 5, 3)
    assert _class_strings(res) == {"L(3)"}
    assert res.count == 1
    assert not res.growth_flag


def test_orthogonal_five_three_contains_both_structures():
    res = enumerate_embeddings(FormType.ORTHOGONAL, 8, (5, 3), 5, 3)
    assert res.count >= 2
    assert {"L(4)+L(2)", "L(1)*L(3)@1"} <= _class_strings(res)


def test_twisted_square_family_grows():
    res = enumerate_embeddings(FormType.NONE, 4, (3, 1), 5, 3)
    assert res.count >= 2
    assert {"L(2)+triv", "L(1)*L(1)@1"} <= _class_strings(res)
    assert res.growth_flag


def test_doubled_block_is_unique_structure():
    res = enumerate_embeddings(FormType.SYMPLECTIC, 10, (5, 5), 7, 3)
    assert _class_strings(res) == {"2*L(4)"}
    assert res.count == 1
    assert not res.growth_flag


def test_doubled_full_block_finds_both_witness_structures():
    # blocks equal to p are admitted; both named structures turn up
    res = enumerate_embeddings(FormType.SYMPLECTIC, 10, (5, 5), 5, 3)
    assert {"2*L(4)", "L(1)*L(4)@1"} <= _class_strings(res)
    assert res.growth_flag


def test_orthogonal_hook_finds_both_witness_structures():
    res = enumerate_embeddings(FormType.ORTHOGONAL, 7, (3, 1, 1, 1, 1), 5, 3)
    assert {"L(2)+4*triv", "L(1)*L(1)@1+3*triv"} <= _class_strings(res)
    assert res.growth_flag


def test_doubled_twisted_square_intrudes_in_sp():
    res = enumerate_embeddings(FormType.SYMPLECTIC, 8, (3, 3, 1, 1), 5, 3)
    assert {"2*L(2)+2*triv", "2*L(1)*L(1)@1"} <= _class_strings(res)
    assert res.count > 1 and res.growth_flag


def test_canonicalize_examples():
    d = parse_descriptor("L(1)@2*L(3)@4", 5)
    assert format_descriptor(canonicalize(d).descriptor) == "L(1)*L(3)@2"
    d = parse_descriptor("L(2)+triv", 5)
    assert format_descriptor(canonicalize(d).descriptor) == "L(2)+triv"
    d = parse_descriptor("2*L(4)@1", 5)
    assert format_descriptor(canonicalize(d).descriptor) == "2*L(4)"


def test_canonicalize_merges_isomorphic_pairs():
    d = parse_descriptor("L(2)+L(2)", 5)
    assert format_descriptor(canonicalize(d).descriptor) == "2*L(2)"
    d = parse_descriptor("L(2)+L(2)+L(2)", 5)
    assert format_descriptor(canonicalize(d).descriptor) == "2*L(2)+L(2)"


def test_canonicalize_rejects_nonsemisimple():
    with pytest.raises(NotCompletelyReducibleError):
        canonicalize(ModuleDescriptor((Weyl(5), Trivial(1)), 5))


def test_menu_sizes_and_contents():
    menu5 = jordan_menu(FormType.ORTHOGONAL, 5, 14)
    assert len(menu5) == 6
    menu7 = jordan_menu(FormType.ORTHOGONAL, 7, 14)
    assert len(menu7) == 8
    weights7 = {tuple(f.weight for f in desc.factors) for desc, _ in menu7}
    assert (6,) in weights7 and (1, 5) in weights7
    sympl = jordan_menu(FormType.SYMPLECTIC, 5, 2)
    assert len(sympl) == 1
    assert sympl[0][0].factors[0].weight == 1


def test_menu_jordan_types_are_consistent():
    for p in (5, 7):
        for desc, jt in jordan_menu(FormType.NONE, p, 14):
            assert jt.dimension == desc.dimension
            assert desc.jordan_type(p) == jt


def test_count_monotone_in_twist_bound():
    for bound in (1, 2, 3):
        counts = [
            enumerate_embeddings(FormType.NONE, 6, (3, 2, 1), 5, b).count
            for b in range(1, bound + 1)
        ]
        assert counts == sorted(counts)


def test_every_class_matches_the_query():
    for form, dim, blocks, p in [
        (FormType.ORTHOGONAL, 9, (3, 3, 1, 1, 1), 5),
        (FormType.SYMPLECTIC, 8, (4, 2, 1, 1), 5),
        (FormType.NONE, 7, (4, 2, 1), 7),
    ]:
        res = enumerate_embeddings(form, dim, blocks, p, 3)
        field = PrimeField(p)
        for cls in res.classes:
            d = cls.descriptor
            assert dimension(d) == dim
            assert jordan_type(d).blocks == blocks
            assert jordan_type_of_unipotent(realize(d), field).blocks == blocks


def test_classes_reparse_to_themselves():
    res = enumerate_embeddings(FormType.ORTHOGONAL, 8, (5, 3), 5, 3)
    for cls in res.classes:
        again = parse_descriptor(str(cls), 5)
        assert canonicalize(again).descriptor == cls.descriptor


def test_single_irreducible_hooks_are_regular_only():
    """The only irreducible with hook type (l, 1^r), l not in {3, p}, is
    the full single block; twisted squares only produce l = 3."""
    for p in (5, 7):
        for dim in range(2, 9):
            res = enumerate_embeddings(FormType.NONE, dim, (dim,), p, 3) \
                if dim <= p else None
            hooks = []
            for desc, jt in jordan_menu(FormType.NONE, p, dim):
                if desc.dimension != dim:
                    continue
                blocks = jt.blocks
                head, rest = blocks[0], blocks[1:]
                if head >= 2 and all(b == 1 for b in rest) and head not in (3, p):
                    hooks.append((desc, blocks))
            if dim <= p and dim not in (3, p):
                assert [b for _, b in hooks] == [(dim,)]
                assert {str(c) for c in res.classes} >= {f"L({dim - 1})"}
            else:
                assert hooks == []


def test_dn_partition_list_d4():
    assert dn_partition_list(4, 5) == {(5, 3), (3, 3, 1, 1)}
    assert dn_partition_list(4, 7) == {(7, 1), (5, 3), (3, 3, 1, 1)}


@pytest.mark.parametrize("p, max_twist", [(3, 3), (5, 3), (7, 3), (5, 1), (5, 2)])
def test_count_table_equals_the_search(p, max_twist):
    """The table holds exactly the partitions of SL <= 12, Sp <= 14 and
    SO <= 13 with blocks <= p that the search counts, with its count and
    growth flag, with and without distinct_irr."""
    for form, max_dim in (
        (FormType.NONE, 12), (FormType.SYMPLECTIC, 14), (FormType.ORTHOGONAL, 13)
    ):
        for distinct_irr in (False, True):
            table = count_table(form, max_dim, p, max_twist, distinct_irr)
            for dim in range(1, max_dim + 1):
                for blocks in partitions_bounded(dim, p):
                    res = enumerate_embeddings(form, dim, blocks, p, max_twist, distinct_irr)
                    got = table.pop(blocks, (0, False))
                    assert got == (res.count, res.growth_flag), (form, distinct_irr, blocks)
            assert not table


def test_dn_partition_list_is_the_partitions_the_search_counts():
    # n = 0 has only the empty partition, which the search refuses;
    # test_dn_partition_list_refuses_what_the_search_refuses pins its empty list
    for p in (5, 7):
        for n in range(1, 11):
            want = {
                blocks
                for blocks in partitions_bounded(2 * n, p)
                if enumerate_embeddings(
                    FormType.ORTHOGONAL, 2 * n, blocks, p, distinct_irr=True
                ).count
            }
            assert dn_partition_list(n, p) == want, (n, p)


def test_dn_partition_list_refuses_what_the_search_refuses():
    for args, message in (
        ((4, 1), "1 is not prime"),
        ((4, 9), "9 is not prime"),
        ((4, 2), "forms need odd characteristic"),
        ((4, 5, 0), "max_twist must be >= 1"),
    ):
        with pytest.raises(InvalidQueryError) as err:
            dn_partition_list(*args)
        assert str(err.value) == message
    with pytest.raises(InvalidQueryError) as err:
        count_table(FormType.EITHER, 4, 5)
    assert str(err.value) == "enumerate by a concrete form, or FormType.NONE"
    assert dn_partition_list(0, 5) == dn_partition_list(-1, 5) == set()


def test_count_table_refuses_past_the_budget():
    """Each bound refuses with one line: the weight tuples, the product's
    steps (many multisets for D60, few multisets taking many copies each
    at p = 2) and the partitions read out (few multisets, each with many
    trivial remainders)."""
    for call, what in (
        (lambda: count_table(FormType.NONE, 10**6, 1000003), "weight tuples"),
        (lambda: dn_partition_list(60, 31), "steps"),
        (lambda: count_table(FormType.NONE, 2000, 2), "steps"),
        (lambda: count_table(FormType.NONE, 640, 2, 1), "partitions"),
    ):
        with pytest.raises(InvalidQueryError) as err:
            call()
        message = str(err.value)
        assert message.startswith("table too large") and what in message
        assert "\n" not in message


def test_refused_count_table_leaves_the_weight_cache_bounded():
    """A table refused after asking for 100,001 copies counts keeps no
    more weight entries than the cache's bound."""
    _branch_weights.cache_clear()
    with pytest.raises(InvalidQueryError):
        count_table(FormType.NONE, 10**6, 2)
    info = _branch_weights.cache_info()
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize


def test_distinct_mode_forbids_repeats():
    res = enumerate_embeddings(
        FormType.ORTHOGONAL, 8, (3, 3, 1, 1), 5, 3, distinct_irr=True
    )
    # the doubled structure is excluded; distinct twists or the
    # 3+4+1 mixed sum remain
    for cls in res.classes:
        text = str(cls)
        assert "2*" not in text or text.count("triv") <= 1
    assert res.count >= 1


def test_invalid_queries_raise():
    with pytest.raises(InvalidQueryError):
        enumerate_embeddings(FormType.SYMPLECTIC, 4, (4,), 4, 3)  # not prime
    with pytest.raises(InvalidQueryError):
        enumerate_embeddings(FormType.SYMPLECTIC, 5, (4,), 5, 3)  # bad dim
    with pytest.raises(InvalidQueryError):
        enumerate_embeddings(FormType.NONE, 6, (6,), 5, 3)  # block > p
    with pytest.raises(InvalidQueryError):
        enumerate_embeddings(FormType.NONE, 4, (4,), 5, 0)  # bad bound
    with pytest.raises(InvalidQueryError):
        enumerate_embeddings(FormType.SYMPLECTIC, 4, (2, 2), 2, 3)  # p = 2 form
    with pytest.raises(InvalidQueryError) as err:
        jordan_menu(FormType.NONE, 5, 0)
    assert (type(err.value), str(err.value)) == (InvalidQueryError, "max_dim must be >= 1")


def test_raw_blocks_are_refused_as_partitions_are():
    """A raw block tuple that Partition would refuse, empty or with a
    block <= 0, is refused with Partition's text, not counted as 0."""
    for dim, blocks, message in (
        (0, (), "empty partition"),
        (3, (3, 0), "nonpositive part in (3, 0)"),
        (3, (4, -1), "nonpositive part in (4, -1)"),
    ):
        with pytest.raises(InvalidQueryError) as err:
            enumerate_embeddings(FormType.NONE, dim, blocks, 5)
        assert (type(err.value), str(err.value)) == (InvalidQueryError, message)


def test_menu_past_the_budget_is_refused():
    """jordan_menu walks at most MAX_SEARCH weight tuples: at p = 31,
    dimension 3000 (218,548 tuples) is refused while dimension 1000 is
    answered."""
    with pytest.raises(InvalidQueryError) as err:
        jordan_menu(FormType.NONE, 31, 3000)
    assert (type(err.value), str(err.value)) == (
        InvalidQueryError,
        "menu too large: more than 100000 weight tuples of dimension <= 3000",
    )
    assert len(jordan_menu(FormType.NONE, 31, 1000)) == 2946


def _valid_queries():
    """Every valid partition with blocks <= p at SL <= 8, Sp <= 10,
    SO <= 10, p in (5, 7)."""
    for make, dims, form in (
        (SL, range(2, 9), FormType.NONE),
        (Sp, range(4, 11, 2), FormType.SYMPLECTIC),
        (SO, range(7, 11), FormType.ORTHOGONAL),
    ):
        for dim in dims:
            for p in (5, 7):
                for blocks in partitions_bounded(dim, p):
                    try:
                        validate(make(dim), Partition(blocks), p)
                    except ValidationError:
                        continue
                    yield form, dim, blocks, p


def test_listing_agrees_with_count_and_growth():
    """The lazily built listing has count classes, pairwise distinct and
    canonical, and the growth flag says whether one reaches the twist
    bound."""
    queries = 0
    for form, dim, blocks, p in _valid_queries():
        for max_twist in (1, 2, 3, 4):
            for distinct_irr in (False, True):
                res = enumerate_embeddings(form, dim, blocks, p, max_twist, distinct_irr)
                classes = res.classes
                assert res.count == len(classes)
                assert res.growth_flag == any(
                    c.max_twist == max_twist for c in classes
                )
                assert len({c.descriptor for c in classes}) == len(classes)
                for c in classes:
                    assert canonicalize(c.descriptor) == c
                    assert jordan_type(c.descriptor).blocks == blocks
                    if form is not FormType.NONE:
                        assert admits_form(c.descriptor, form)
                queries += 1
    assert queries > 1000


def _reference_order_key(text, p):
    """The listing order, computed from a freshly parsed descriptor:
    negated summand dimensions, then all weights, then all twists, then
    the text."""
    d = parse_descriptor(text, p)
    dims, weights, twists = [], [], []
    for s in d.summands:
        if isinstance(s, (Irr, Doubled)):
            dims.append(-s.module.dimension * (2 if isinstance(s, Doubled) else 1))
            weights.extend(f.weight for f in s.module.factors)
            twists.extend(f.twist for f in s.module.factors)
        else:
            dims.append(-s.multiplicity)
    return tuple(dims), tuple(weights), tuple(twists), format_descriptor(d)


def test_listing_order_matches_an_independent_key():
    queries = 0
    for p in (3, 5, 7):
        for dim in range(1, 9):
            for blocks in partitions_bounded(dim, p):
                for form in (FormType.NONE, FormType.SYMPLECTIC, FormType.ORTHOGONAL):
                    for max_twist in (1, 2, 3):
                        res = enumerate_embeddings(form, dim, blocks, p, max_twist)
                        texts = [str(c) for c in res.classes]
                        assert texts == sorted(
                            texts, key=lambda t: _reference_order_key(t, p)
                        ), (form, blocks, p, max_twist)
                        queries += 1
    assert queries == 1476


def test_listing_shares_one_summand_object_per_atom():
    """Every class of one listing that holds an irreducible as Irr (or as
    Doubled) holds the same Irr (or Doubled) object."""
    res = enumerate_embeddings(FormType.NONE, 12, (3, 3, 2, 2, 1, 1), 5, 4)
    assert len(res.classes) == 1250
    objects = defaultdict(set)
    for c in res.classes:
        for s in c.descriptor.summands:
            if isinstance(s, (Irr, Doubled)):
                objects[type(s), s.module].add(id(s))
    assert {kind for kind, _ in objects} == {Irr, Doubled}
    assert all(len(ids) == 1 for ids in objects.values())


def test_group_atom_counts_match_built_atoms():
    """Each group's closed-form atoms at twist bound max_twist - b, for
    b = 0, 1, 2, equal the counts over its atoms built one by one whose
    twists lie in 0..max_twist - b, and each weight tuple has the group's
    Jordan type and lone-copy flags."""
    groups = 0
    for p in (2, 3, 5, 7, 11, 13):
        for max_twist, max_dim in product(range(1, 7), range(1, 27)):
            table = _group_table(p, max_twist, max_dim, max_dim)
            for blocks, lone, tuples, atoms in table:
                built = [0] * 3
                for weights in tuples:
                    jordan = tensor_multi([w + 1 for w in weights], p).blocks
                    assert tuple(Counter(jordan).items()) == blocks
                    for twists in combinations(range(max_twist + 1), len(weights)):
                        atom = IrreducibleDescriptor(
                            tuple(map(IrreducibleFactor, weights, twists))
                        )
                        assert lone == tuple(
                            lone_copy_admits(atom.form_type(), a) for a in enumerator._AMBIENT
                        )
                        for b in range(3):
                            built[b] += atom.max_twist <= max_twist - b
                assert tuple(built) == atoms, (p, max_twist, tuples)
                groups += 1
    assert groups == 11673


def test_listing_builds_only_the_atoms_its_classes_use(monkeypatch):
    """At max_twist 10**6 the group of L(1) holds 1,000,001 atoms; each
    listing below builds the one atom its class uses."""
    built = []

    def counted(factors):
        built.append(factors)
        return IrreducibleDescriptor(factors)

    monkeypatch.setattr(enumerator, "IrreducibleDescriptor", counted)
    for blocks, classes in (
        ((2, 1), ("L(1)+triv",)), ((4, 1, 1), ("L(3)+2*triv",)), ((3,), ("L(2)",)),
    ):
        built.clear()
        res = enumerate_embeddings(FormType.NONE, sum(blocks), blocks, 5, 10**6)
        assert tuple(map(str, res.classes)) == classes
        assert len(built) == 1, blocks


def test_sp26_and_sp28_at_p13_are_answered_and_agree():
    """Every valid Sp(26) and Sp(28) partition at p = 13 with blocks
    below p fits the search budget, and the classifier agrees with the
    enumeration on it; so does one of Sp(36) near the budget."""
    queries = 0
    for g, part, _, verdict, res in selfcheck.classifier_vs_enumeration(
        (13,), {Sp: (26, 28)}
    ):
        assert selfcheck.agrees(verdict, res), (g, part)
        queries += 1
    assert queries == 1513
    # 136 weight tuples of dimension <= 36 times 810 block states exceed
    # the budget; the few whose weights add up to less than the largest
    # block, 6, do not
    blocks = (6, 4, 4, 3, 3, 2, 2, 2, 2) + (1,) * 8
    res = enumerate_embeddings(FormType.SYMPLECTIC, 36, blocks, 13, 3)
    assert selfcheck.agrees(unicity_verdict(Sp(36), Partition(blocks), 13), res)


def test_classifier_agrees_with_the_search_up_to_p23():
    """The classifier agrees with the enumeration on every valid
    partition with blocks below p at p in {5, 7, 11, 13, 17, 19, 23}, for
    SL 2-18, Sp 4-24 and SO 7-22: wider than the selfcheck's ranges."""
    queries = 0
    for g, part, p, verdict, res in selfcheck.classifier_vs_enumeration(
        (5, 7, 11, 13, 17, 19, 23), {SL: range(2, 19), Sp: range(4, 25, 2), SO: range(7, 23)}
    ):
        assert selfcheck.agrees(verdict, res), (g, part, p)
        queries += 1
    assert queries == 24141


def test_one_jordan_type_of_both_forms():
    """At p = 5, L(3)*L(4) (symplectic) and L(1)*L(1)*L(4) (orthogonal)
    both have Jordan type (5, 5, 5, 5); each lone summand is admitted
    under its own form only."""
    lone = {"L(3)*L(4)@1", "L(3)*L(4)@2", "L(4)*L(3)@1", "L(4)*L(3)@2"}
    sp = enumerate_embeddings(FormType.SYMPLECTIC, 20, (5, 5, 5, 5), 5, 2)
    assert (sp.count, sp.growth_flag) == (39, True)
    assert lone <= _class_strings(sp)
    so = enumerate_embeddings(FormType.ORTHOGONAL, 20, (5, 5, 5, 5), 5, 2)
    assert (so.count, so.growth_flag) == (31, True)
    assert not lone & _class_strings(so)
    assert "L(1)*L(1)@1*L(4)@2" in _class_strings(so)
    assert "L(1)*L(1)@1*L(4)@2" not in _class_strings(sp)


# (blocks, primes, message): the first budget bounds the weight tuples
# walked times the block states, the second the memo's tallies at 3 twist
# bounds times the copies that fit; at p = 13 and p = 7 the tables are read at the
# smaller canonical prime (11 and 5)
_SEARCH_REFUSALS = [
    (tuple(range(10, 0, -1)), (11, 13),
     "search too large: 161 or more weight tuples times 1024 block states "
     "exceeds the budget 100000"),
    ((3,) * 20 + (2,) * 20 + (1,) * 20, (5, 7),
     "search too large: 9261 block states times 3 twist bounds times 60 copies "
     "of 3 groups exceeds the budget 100000"),
]


def test_search_budget_refusals():
    """SL(55) (10, 9, ..., 1) and SL(120) (3^20, 2^20, 1^20) each reach one
    search budget and are refused with its exact message."""
    for blocks, primes, message in _SEARCH_REFUSALS:
        for p in primes:
            with pytest.raises(InvalidQueryError) as err:
                enumerate_embeddings(FormType.NONE, sum(blocks), blocks, p)
            assert str(err.value) == message, p


def test_copies_refusal_fetches_no_branch_weights():
    """SL(15000) 5^3000 at p = 5 passes 6,850 copies to the budget check,
    which refuses before any group's ways are fetched."""
    _branch_weights.cache_clear()
    with pytest.raises(InvalidQueryError) as err:
        enumerate_embeddings(FormType.NONE, 15000, (5,) * 3000, 5, 1)
    assert str(err.value) == (
        "search too large: 3001 block states times 3 twist bounds times 6850 copies "
        "of 5 groups exceeds the budget 100000"
    )
    assert _branch_weights.cache_info().misses == 0


def test_refused_walk_is_not_kept():
    """A walk of more than MAX_SEARCH weight tuples (about 9 MB) is
    refused, and only its length is kept: after SL(3000) (31, 1^2969) at
    p = 31 less than 1 MB stays allocated."""
    _tuples.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(InvalidQueryError) as err:
            enumerate_embeddings(FormType.NONE, 3000, (31,) + (1,) * 2969, 31, 20)
        gc.collect()  # also empties the interpreter's tuple free lists
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "search too large: 100001 or more weight tuples times 5940 block states "
        "exceeds the budget 100000"
    )
    assert retained < 2**20


def test_tables_below_block_p_do_not_depend_on_p():
    """The premise of reading every table below block p at one canonical
    prime, checked on the tables themselves: for T in 1..4, D <= 20 and
    S <= D, the weight tuples and the atom groups at each of the three
    primes after the least prime c >= S + 2 equal those at c, and each
    of those primes reads its tables at c."""
    primes = [q for q in range(2, 60) if is_prime(q)]
    compared = 0
    for max_twist, max_dim in product(range(1, 5), range(1, 21)):
        for max_sum in range(max_dim + 1):
            c, *above = [q for q in primes if q >= max_sum + 2][:4]
            want = (
                _group_table(c, max_twist, max_dim, max_sum),
                len(_tuples(c, max_twist, max_dim, max_sum)),
            )
            for q in above:
                assert _table_prime(q, max_sum) == c
                got = (
                    _group_table(q, max_twist, max_dim, max_sum),
                    len(_tuples(q, max_twist, max_dim, max_sum)),
                )
                assert got == want, (q, max_twist, max_dim, max_sum)
                compared += 1
    assert compared == 3 * 4 * sum(d + 1 for d in range(1, 21))


def test_table_caches_do_not_grow_with_the_prime():
    """One query at each of the 74 primes 11 <= q < 400 reads the tables
    of q = 11 only: the caches keep one weight-tuple walk, 50 group keys
    and one group table, not one per prime."""
    caches = (_tuples, _group_key, _group_table)
    for cache in caches:
        cache.cache_clear()
    primes = [q for q in range(11, 400) if is_prime(q)]
    assert len(primes) == 74
    for q in primes:
        enumerate_embeddings(FormType.NONE, 22, (10, 6, 3, 2, 1), q)
    assert [cache.cache_info().currsize for cache in caches] == [1, 50, 1]


def test_module_caches_are_bounded():
    """No lru_cache of the enumerator or of the tensor closed form grows
    without bound across calls."""
    from functools import _lru_cache_wrapper

    from a1unicity import jordan

    caches = [
        value for module in (enumerator, jordan) for value in vars(module).values()
        if isinstance(value, _lru_cache_wrapper)
    ]
    assert {cache.__name__ for cache in caches} >= {
        "_trivial", "_tensor_pair_blocks",
        "_tuples", "_group_key", "_group_table",
    }
    assert all(cache.cache_info().maxsize is not None for cache in caches)


def test_largest_benchmark_input_fits_the_search_budget():
    # dim 16 at p = 7 with twists <= 4; the CLI tests cover the refusals
    res = enumerate_embeddings(FormType.SYMPLECTIC, 16, (3, 3, 2, 2, 1, 1, 1, 1, 1, 1), 7, 4)
    assert res.count == len(res.classes)


def _brute_irreducibles(p, max_twist, max_dim):
    """Every twisted tensor-product irreducible of dimension <= max_dim
    with twists in 0..max_twist: one restricted weight per twist of a
    nonempty twist set."""
    out = []
    for size in range(1, max_twist + 2):
        for twists in combinations(range(max_twist + 1), size):
            for weights in product(range(1, p), repeat=size):
                if prod(w + 1 for w in weights) <= max_dim:
                    out.append(IrreducibleDescriptor(
                        tuple(map(IrreducibleFactor, weights, twists))
                    ))
    return out


@lru_cache(maxsize=None)
def _brute_structures(p, max_twist, blocks):
    """(irreducible multiset, trivial lines) for every multiset of
    irreducibles whose Jordan types, plus trivial lines, make up blocks."""
    atoms = []
    for m in _brute_irreducibles(p, max_twist, sum(blocks)):
        atoms.append((m, Counter(m.jordan_type(p).blocks)))
    out = []

    def grow(i, chosen, rem):
        if not +Counter({b: n for b, n in rem.items() if b != 1}):
            out.append((tuple(chosen), rem[1]))
        for j in range(i, len(atoms)):
            m, need = atoms[j]
            if not need - rem:
                chosen.append(m)
                grow(j, chosen, rem - need)
                chosen.pop()

    grow(0, [], Counter(blocks))
    return out


def _brute_classes(form, p, max_twist, blocks, distinct_irr):
    """The canonical classes of the admissible structures, as strings."""
    classes = set()
    for chosen, ones in _brute_structures(p, max_twist, blocks):
        summands = tuple(Irr(m) for m in chosen) + ((Trivial(ones),) if ones else ())
        cls = canonicalize(ModuleDescriptor(summands, p))
        if not admits_form(cls.descriptor, form):
            continue
        if distinct_irr and (len(set(chosen)) < len(chosen) or ones > 1):
            continue
        classes.add(str(cls))
    return classes


def test_count_and_listing_match_a_brute_force_enumeration():
    """Against an independent search over all irreducible multisets,
    deduplicated by canonicalize: equal classes, count and growth flag
    (the count at max_twist exceeds the count at max_twist - 1)."""
    queries = 0
    for p in (3, 5, 7):
        for dim in range(1, 8):
            for blocks in partitions_bounded(dim, p):
                for form in (FormType.NONE, FormType.SYMPLECTIC, FormType.ORTHOGONAL):
                    for distinct_irr in (False, True):
                        below = _brute_classes(form, p, 0, blocks, distinct_irr)
                        for max_twist in (1, 2, 3):
                            want = _brute_classes(
                                form, p, max_twist, blocks, distinct_irr
                            )
                            res = enumerate_embeddings(
                                form, dim, blocks, p, max_twist, distinct_irr
                            )
                            assert (res.count, res.growth_flag) == (
                                len(want), len(want) > len(below)
                            ), (form, blocks, p, max_twist, distinct_irr)
                            assert _class_strings(res) == want
                            below = want
                            queries += 1
    assert queries == 2070


def test_branch_weights_count_multiplicity_vectors():
    """The ways at each twist bound count the multiplicity vectors with
    total k over the group's atoms at that bound."""

    def vectors(atoms, k, lone_ok, distinct_irr):
        return sum(
            1 for vector in product(range(k + 1), repeat=atoms)
            if sum(vector) == k
            and not (distinct_irr and max(vector, default=0) > 1)
            and (lone_ok or not any(m % 2 for m in vector))
        )

    for atoms in product(range(5), repeat=3):
        for lone_ok, distinct_irr in ((True, False), (False, False), (True, True)):
            for k in range(5):
                got = _branch_weights(atoms, lone_ok, distinct_irr, k)
                assert got == tuple(vectors(n, k, lone_ok, distinct_irr) for n in atoms), (
                    atoms, lone_ok, distinct_irr, k
                )


_FORMS = (FormType.NONE, FormType.SYMPLECTIC, FormType.ORTHOGONAL)


def _count_lines():
    """One line per query: every partition of dim 1-10 with blocks <= p
    at p in {3, 5, 7, 11, 13}, under each form, max_twist in {1, 2, 4},
    with and without distinct_irr."""
    for p in (3, 5, 7, 11, 13):
        for dim in range(1, 11):
            for blocks in partitions_bounded(dim, p):
                for form in _FORMS:
                    for max_twist in (1, 2, 4):
                        for distinct_irr in (False, True):
                            res = enumerate_embeddings(
                                form, dim, blocks, p, max_twist, distinct_irr
                            )
                            kind = {0: "none", 1: "one"}.get(res.count, "many")
                            yield kind + " growing" * res.growth_flag, (
                                f"{form.value} p={p} t={max_twist} d={distinct_irr} "
                                f"{blocks}: {res.count} {res.growth_flag}"
                            )


def test_enumeration_counts_frozen():
    rows = list(_count_lines())
    assert Counter(kind for kind, _ in rows) == {
        "none": 5934, "one": 1569, "one growing": 104, "many growing": 2923,
    }
    text = "\n".join(line for _, line in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "916702488b48e7ffa0acd7dd3b9f73cbbe55babbf0c800e0f65460e8f62d900e"
    )


@lru_cache(maxsize=None)
def _listings():
    """((form, p, max_twist, distinct_irr, blocks), classes) for every
    partition of dim 1-9 with blocks <= p at p in {3, 5, 7}, under each
    form, max_twist in {1, 2, 3}, with and without distinct_irr."""
    out = []
    for p in (3, 5, 7):
        for dim in range(1, 10):
            for blocks in partitions_bounded(dim, p):
                for form in _FORMS:
                    for max_twist in (1, 2, 3):
                        for distinct_irr in (False, True):
                            res = enumerate_embeddings(
                                form, dim, blocks, p, max_twist, distinct_irr
                            )
                            query = (form, p, max_twist, distinct_irr, blocks)
                            out.append((query, res.classes))
    return out


def test_listings_frozen():
    listings = _listings()
    assert len(listings) == 4086
    assert sum(len(classes) for _, classes in listings) == 11211
    text = "\n".join(
        f"{form.value} p={p} t={t} d={d} {blocks}: " + " ".join(map(str, classes))
        for (form, p, t, d, blocks), classes in listings
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "60d459a13ba1194908c598c5071bc2e7cabd44be3451b19cc5bbe9996ac261dd"
    )


def test_every_answer_frozen():
    """Count, growth flag and every class string (or the refusal's type
    and text) of each enumeration at p in {2, 3, 5, 7, 11}, under each
    form, max_twist 1-4, with and without distinct_irr, on every
    partition of dim 1-10 with blocks <= p, hashed in that order."""
    digest = hashlib.sha256()
    answers = classes = 0
    for p in (2, 3, 5, 7, 11):
        for form in _FORMS:
            for max_twist in (1, 2, 3, 4):
                for distinct_irr in (False, True):
                    for dim in range(1, 11):
                        for blocks in partitions_bounded(dim, p):
                            try:
                                res = enumerate_embeddings(
                                    form, dim, blocks, p, max_twist, distinct_irr
                                )
                                texts = tuple(map(str, res.classes))
                                out = (res.count, res.growth_flag, texts)
                                classes += len(texts)
                            except DomainError as err:
                                out = (type(err).__name__, str(err))
                            digest.update(repr(
                                (p, form.value, max_twist, distinct_irr, dim, blocks, out)
                            ).encode())
                            answers += 1
    assert (answers, classes) == (11568, 69834)
    assert digest.hexdigest() == (
        "f33e5799f86f4b53118e53910d6dec5899ad75ce369576cc853bceb54cb2e3d5"
    )


def test_listing_builds_each_atom_once_for_a_listed_class(monkeypatch):
    """Every irreducible a listing builds is built once and is the module
    of a summand of some listed class, so the listing's work follows its
    classes: every partition of dim 1-9 with blocks <= p at p in {5, 7},
    under each form, max_twist in {1, 3}, with and without distinct_irr."""
    built = []

    def counted(factors):
        built.append(factors)
        return IrreducibleDescriptor(factors)

    monkeypatch.setattr(enumerator, "IrreducibleDescriptor", counted)
    listings = atoms = 0
    for p in (5, 7):
        for dim in range(1, 10):
            for blocks in partitions_bounded(dim, p):
                for form, max_twist, distinct_irr in product(_FORMS, (1, 3), (False, True)):
                    res = enumerate_embeddings(form, dim, blocks, p, max_twist, distinct_irr)
                    built.clear()  # the count builds none; res.classes is built below
                    used = {
                        s.module.factors for c in res.classes for s in c.descriptor.summands
                        if isinstance(s, (Irr, Doubled))
                    }
                    query = (form, blocks, p, max_twist, distinct_irr)
                    assert len(set(built)) == len(built), query
                    assert set(built) == used, query
                    listings += 1
                    atoms += len(built)
    assert (listings, atoms) == (2100, 3750)


def test_listed_descriptors_equal_validated_ones():
    """A listed class equals the descriptor that full validation builds
    from its summands, and formats the same."""
    for (_, p, _, _, _), classes in _listings():
        for c in classes:
            again = ModuleDescriptor(c.descriptor.summands, p)
            assert c.descriptor == again
            assert c.text == format_descriptor(again)


_PRIMES = (3, 5, 7, 11, 13, 17, 19)


def test_enumeration_below_block_p_does_not_depend_on_p():
    """Count, growth flag and listing text are the same at the smallest
    prime above the largest block and at the next one, for every valid
    partition of SL <= 12, Sp <= 14 and SO <= 13 (see the enumerator
    docstring for why)."""
    queries = classes = 0
    for make, dims in ((SL, range(2, 13)), (Sp, range(4, 15, 2)), (SO, range(7, 14))):
        for dim in dims:
            g = make(dim)
            for blocks in partitions_bounded(dim, dim):
                if blocks[0] < 2:
                    continue
                p, q = [prime for prime in _PRIMES if prime > blocks[0]][:2]
                try:
                    validate(g, Partition(blocks), p)
                except ValidationError:
                    continue
                form = FAMILY_FORM[g.family]
                a = enumerate_embeddings(form, dim, blocks, p)
                b = enumerate_embeddings(form, dim, blocks, q)
                assert (a.count, a.growth_flag) == (b.count, b.growth_flag), (g, blocks)
                assert list(map(str, a.classes)) == list(map(str, b.classes)), (g, blocks)
                queries += 1
                classes += a.count
    assert (queries, classes) == (530, 19896)


def test_shared_search_equals_the_search_at_each_prime():
    """Criterion 7 enumerates each partition once and reuses the result
    at every listed prime above its blocks.  At each (group, partition,
    p) the full suite visits, the search run at that very p gives the
    same count and growth flag.  This reaches Sp 16 and SO 14-15, which
    the test above does not."""
    queries = searches = 0
    shared = None
    for g, part, p, _, res in selfcheck.classifier_vs_enumeration(
        *selfcheck.ENUMERATION_RANGES[False]
    ):
        if res is not shared:
            shared, searches = res, searches + 1
        own = enumerate_embeddings(FAMILY_FORM[g.family], g.dimension, part, p)
        assert (own.count, own.growth_flag) == (res.count, res.growth_flag), (g, part, p)
        queries += 1
    assert (queries, searches) == (2340, 717)


def test_classifier_vs_enumeration_searches_each_partition_once(monkeypatch):
    """The full suite makes 717 searches for its 2,340 queries and the
    quick one 68 for 124; searching again at every prime would fail."""
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_embeddings(*args)

    monkeypatch.setattr(selfcheck, "enumerate_embeddings", counted)
    for quick, searches in ((False, 717), (True, 68)):
        calls.clear()
        assert selfcheck.check_classifier_vs_enumeration(quick)[0]
        assert len(calls) == searches, quick


def test_so_unique_classes_do_not_split_under_so():
    """Every SO Unique verdict of criterion 7's SO range lists one class,
    and that class has an odd-dimensional irreducible summand (an Irr,
    the module of a Doubled, or a trivial line), or the partition is
    very even.  So its O(V)-class is one SO(V)-class, or the split only
    moves u to its other SO-class (see the enumerator docstring)."""
    primes, dims = selfcheck.ENUMERATION_RANGES[False]
    unique = odd = very_even = 0
    for g, part, p, verdict, res in selfcheck.classifier_vs_enumeration(
        primes, {SO: dims[SO]}
    ):
        if verdict.kind is not VerdictKind.UNIQUE:
            continue
        (cls,) = res.classes
        unique += 1
        if any(
            isinstance(s, Trivial) or s.module.dimension % 2
            for s in cls.descriptor.summands
        ):
            odd += 1
        else:
            assert all(b % 2 == 0 for b in part.parts), (g, part, p, cls)
            very_even += 1
    assert (unique, odd, very_even) == (144, 137, 7)


def test_witness_pairs_are_two_listed_classes():
    """Each classifier witness pair with blocks up to p, at p in {5, 7,
    11, 13} with at most 7 trivial blocks, canonicalizes to two distinct
    classes of the enumeration's listing for its partition at that same
    p, block p included.  Pairs with a Weyl member have no canonical form
    and are skipped."""
    checked = weyl = 0
    for p in (5, 7, 11, 13):
        for make in (SL, Sp, SO):
            for a in range(2, p + 1):
                for blocks in ((a,) * head + (1,) * r for head in (1, 2) for r in range(8)):
                    if make is Sp and sum(blocks) % 2:
                        continue
                    g = make(sum(blocks))
                    pair = unicity_verdict(g, Partition(blocks), p).witness_pair
                    if pair is None:
                        continue
                    if not all(d.is_completely_reducible for d in pair):
                        weyl += 1
                        continue
                    first, second = map(canonicalize, pair)
                    listed = enumerate_embeddings(
                        FAMILY_FORM[g.family], g.dimension, blocks, p
                    ).classes
                    assert first != second and first in listed and second in listed, (
                        g, blocks, p,
                    )
                    checked += 1
    assert (checked, weyl) == (72, 28)
