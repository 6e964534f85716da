import hashlib
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations, product
from math import prod

import pytest

from a1unicity.classical import SL, SO, Partition, Sp, unicity_verdict, validate
from a1unicity import selfcheck
from a1unicity.enumerator import (
    _branch_weights,
    _group_table,
    canonicalize,
    dn_partition_list,
    enumerate_embeddings,
    jordan_menu,
    partitions_bounded,
)
from a1unicity.errors import (
    InvalidQueryError,
    NotCompletelyReducibleError,
    ValidationError,
)
from a1unicity.ffmatrix import PrimeField
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


def test_group_flag_counts_match_built_atoms():
    """Each group's closed-form atoms per twist-flag value equal the
    counts over its atoms built one by one, and each weight tuple has the
    group's Jordan type and form."""
    groups = 0
    for p in (2, 3, 5, 7, 11, 13):
        for max_twist, max_dim in product(range(1, 7), range(1, 27)):
            table = _group_table(p, max_twist, max_dim, max_dim)
            for blocks, form, tuples, flag_counts in table:
                built = [0] * 4
                for weights in tuples:
                    jordan = tensor_multi([w + 1 for w in weights], p).blocks
                    assert tuple(Counter(jordan).items()) == blocks
                    for twists in combinations(range(max_twist + 1), len(weights)):
                        atom = IrreducibleDescriptor(
                            tuple(map(IrreducibleFactor, weights, twists))
                        )
                        assert atom.form_type() is form
                        low, high = atom.min_twist == 0, atom.max_twist == max_twist
                        built[low | high << 1] += 1
                assert tuple(built) == flag_counts, (p, max_twist, tuples)
                groups += 1
    assert groups == 11673


def test_sp26_and_sp28_at_p13_are_answered_and_agree():
    """Every valid Sp(26) and Sp(28) partition at p = 13 with blocks
    below p fits the search budget, and the classifier agrees with the
    enumeration on it; so does one of Sp(36) near the budget."""
    queries = 0
    for g, part, verdict, res in selfcheck.classifier_vs_enumeration(
        13, {Sp: (26, 28)}
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
    """Each (flag union, ways) entry counts the multiplicity vectors over
    the group's atoms with total k and that union of used flags."""
    for flag_counts in product(range(3), repeat=4):
        if sum(flag_counts) > 4:
            continue
        atom_flags = [f for f, c in enumerate(flag_counts) for _ in range(c)]
        for lone_ok, distinct_irr in ((True, False), (False, False), (True, True)):
            for k in range(5):
                want = Counter()
                for vector in product(range(k + 1), repeat=len(atom_flags)):
                    if sum(vector) != k:
                        continue
                    if distinct_irr and max(vector, default=0) > 1:
                        continue
                    if not lone_ok and any(m % 2 for m in vector):
                        continue
                    union = 0
                    for f, m in zip(atom_flags, vector):
                        if m:
                            union |= f
                    want[union] += 1
                got = _branch_weights(flag_counts, lone_ok, distinct_irr, k)
                assert dict(got) == dict(want), (flag_counts, lone_ok, distinct_irr, k)
                assert all(ways for _, ways in got)


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


def test_listed_descriptors_equal_validated_ones():
    """A listed class equals the descriptor that full validation builds
    from its summands, and formats the same."""
    for (_, p, _, _, _), classes in _listings():
        for c in classes:
            again = ModuleDescriptor(c.descriptor.summands, p)
            assert c.descriptor == again
            assert c.text == format_descriptor(again)
