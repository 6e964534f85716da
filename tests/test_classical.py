import hashlib
from collections import Counter

import pytest

from a1unicity.classical import (
    Partition,
    SL,
    SO,
    Sp,
    VerdictKind,
    is_order_p,
    unicity_verdict,
    validate,
    witnesses,
)
from a1unicity.enumerator import partitions_bounded
from a1unicity.errors import (
    BadPrimeError,
    DimensionMismatchError,
    IdentityElementError,
    InvalidQueryError,
    NoWitnessRuleError,
    ParityViolationError,
)
from a1unicity.ffmatrix import PrimeField, is_prime
from a1unicity.jordan import jordan_type_of_unipotent
from a1unicity.sl2modules import (
    FormType,
    admits_form,
    dimension,
    format_descriptor,
    jordan_type,
    realize,
)


def P(*parts):
    return Partition(parts)


def test_partition_basics():
    assert P(3, 3, 1).n == 7
    assert Partition.from_string("6,1,1,1,1").parts == (6, 1, 1, 1, 1)
    with pytest.raises(ValueError) as err:
        Partition([])
    assert (type(err.value), str(err.value)) == (ValueError, "empty partition")
    with pytest.raises(ValueError):
        Partition((1, 3))
    with pytest.raises(ValueError):
        Partition((0,))


def test_validate_examples():
    validate(Sp(8), P(3, 3, 1, 1), 5)
    with pytest.raises(ParityViolationError):
        validate(Sp(6), P(3, 2, 1), 5)
    with pytest.raises(ParityViolationError):
        validate(SO(7), P(4, 2, 1), 5)
    with pytest.raises(DimensionMismatchError):
        validate(Sp(8), P(3, 3, 1), 5)
    with pytest.raises(IdentityElementError):
        validate(SL(4), P(1, 1, 1, 1), 5)
    with pytest.raises(BadPrimeError):
        validate(Sp(8), P(3, 3, 1, 1), 2)
    with pytest.raises(BadPrimeError):
        validate(SL(4), P(2, 1, 1), 6)
    validate(SL(4), P(2, 1, 1), 2)  # p = 2 fine for SL


def test_is_order_p():
    assert is_order_p(P(5, 1, 1), 5)
    assert not is_order_p(P(6, 1), 5)
    assert not is_order_p(P(1, 1, 1), 5)


def test_unicity_verdict_stated_cases():
    assert unicity_verdict(Sp(10), P(6, 1, 1, 1, 1), 7).kind is VerdictKind.UNIQUE
    assert unicity_verdict(SL(6), P(5, 1), 5).kind is VerdictKind.NON_UNIQUE
    assert unicity_verdict(SO(8), P(3, 3, 1, 1), 5).kind is VerdictKind.NON_UNIQUE
    assert unicity_verdict(SO(7), P(7,), 7).kind is VerdictKind.UNIQUE
    assert unicity_verdict(SL(4), P(4,), 5).kind is VerdictKind.UNIQUE


def test_sl_hook_rules():
    # l in {3, p} forces r = 0
    assert unicity_verdict(SL(3), P(3,), 5).kind is VerdictKind.UNIQUE
    assert unicity_verdict(SL(4), P(3, 1), 5).kind is VerdictKind.NON_UNIQUE
    assert unicity_verdict(SL(5), P(5,), 5).kind is VerdictKind.UNIQUE
    assert unicity_verdict(SL(7), P(5, 1, 1), 5).kind is VerdictKind.NON_UNIQUE
    assert unicity_verdict(SL(7), P(5, 1, 1), 7).kind is VerdictKind.UNIQUE
    # two nontrivial blocks are never unique
    assert unicity_verdict(SL(6), P(4, 2), 7).kind is VerdictKind.NON_UNIQUE


def test_sp_doubled_three_matches_enumeration_not_the_naive_rule():
    # a lone doubled pair of 3-blocks is fine, padding with trivial lines
    # is not: the doubled four-dimensional twisted module intervenes
    assert unicity_verdict(Sp(6), P(3, 3), 5).kind is VerdictKind.UNIQUE
    assert unicity_verdict(Sp(8), P(3, 3, 1, 1), 5).kind is VerdictKind.NON_UNIQUE
    assert unicity_verdict(Sp(10), P(5, 5), 7).kind is VerdictKind.UNIQUE
    assert unicity_verdict(Sp(12), P(5, 5, 1, 1), 7).kind is VerdictKind.UNIQUE


def test_root_element_partitions_are_unique():
    for p in (3, 5, 7):
        assert unicity_verdict(SL(5), P(2, 1, 1, 1), p).kind is VerdictKind.UNIQUE
        assert unicity_verdict(Sp(6), P(2, 1, 1, 1, 1), p).kind is VerdictKind.UNIQUE
        assert unicity_verdict(SO(8), P(2, 2, 1, 1, 1, 1), p).kind is VerdictKind.UNIQUE


def test_out_of_scope_cases():
    v = unicity_verdict(Sp(8), P(8,), 5)
    assert v.kind is VerdictKind.OUT_OF_SCOPE  # order p^2
    v = unicity_verdict(SL(4), P(1, 1, 1, 1), 5)
    assert v.kind is VerdictKind.OUT_OF_SCOPE  # identity
    v = unicity_verdict(SO(5), P(5,), 7)
    assert v.kind is VerdictKind.OUT_OF_SCOPE and "small rank" in v.reason
    v = unicity_verdict(Sp(2), P(2,), 5)
    assert v.kind is VerdictKind.OUT_OF_SCOPE and "small rank" in v.reason
    v = unicity_verdict(Sp(6), P(3, 2, 1), 5)
    assert v.kind is VerdictKind.OUT_OF_SCOPE  # parity violation


def test_witness_stated_pairs():
    first, second = witnesses(SL(6), P(5, 1), 5)
    assert {format_descriptor(first), format_descriptor(second)} == {
        "L(4)+triv",
        "W(5)",
    }
    first, second = witnesses(SO(7), P(3, 1, 1, 1, 1), 5)
    assert {format_descriptor(first), format_descriptor(second)} == {
        "L(2)+4*triv",
        "L(1)*L(1)@1+3*triv",
    }
    first, second = witnesses(Sp(10), P(5, 5), 5)
    assert {format_descriptor(first), format_descriptor(second)} == {
        "2*L(4)",
        "L(1)*L(4)@1",
    }
    first, second = witnesses(Sp(8), P(3, 3, 1, 1), 5)
    assert {format_descriptor(first), format_descriptor(second)} == {
        "2*L(2)+2*triv",
        "2*L(1)*L(1)@1",
    }


def test_witnesses_are_attached_to_verdicts():
    v = unicity_verdict(SL(6), P(5, 1), 5)
    assert v.witness_pair is not None
    v = unicity_verdict(SL(6), P(4, 2), 7)
    assert v.kind is VerdictKind.NON_UNIQUE and v.witness_pair is None


def test_no_witness_rule():
    with pytest.raises(NoWitnessRuleError):
        witnesses(SL(6), P(4, 2), 7)
    with pytest.raises(NoWitnessRuleError):
        witnesses(SL(6), P(6,), 7)
    # out of scope for the classifier: refused with the verdict's reason
    with pytest.raises(InvalidQueryError, match="small rank: SO\\(6\\) below"):
        witnesses(SO(6), P(3, 1, 1, 1), 5)
    with pytest.raises(InvalidQueryError, match="largest block 3 not in"):
        witnesses(SL(4), P(3, 1), 2)


def test_witness_soundness_by_oracle():
    cases = [
        (SL(7), P(5, 1, 1), 5, FormType.NONE),
        (SL(5), P(3, 1, 1), 7, FormType.NONE),
        (SO(9), P(3, 1, 1, 1, 1, 1, 1), 7, FormType.ORTHOGONAL),
        (Sp(12), P(5, 5, 1, 1), 5, FormType.SYMPLECTIC),
        (Sp(10), P(3, 3, 1, 1, 1, 1), 7, FormType.SYMPLECTIC),
    ]
    for g, part, p, form in cases:
        field = PrimeField(p)
        first, second = witnesses(g, part, p)
        assert first != second
        for d in (first, second):
            assert dimension(d) == g.dimension
            assert jordan_type(d).blocks == part.parts
            assert admits_form(d, form)
            assert jordan_type_of_unipotent(realize(d), field).blocks == part.parts


def _verdict_lines():
    """One line per query: every partition of SL 2-14, Sp 2-16 and SO 2-14
    (blocks above p included) at p in {2, 3, 5, 7, 11, 13}."""
    groups = ([SL(n) for n in range(2, 15)] + [Sp(n) for n in range(2, 17, 2)]
              + [SO(n) for n in range(2, 15)])
    for g in groups:
        for blocks in partitions_bounded(g.dimension, g.dimension):
            part = Partition(blocks)
            for p in (2, 3, 5, 7, 11, 13):
                v = unicity_verdict(g, part, p)
                pair = v.witness_pair and " | ".join(
                    format_descriptor(d) for d in v.witness_pair)
                yield v.kind, f"{g} ({part}) p={p}: {v.kind.value}; {v.reason}; {pair}"


def test_verdicts_frozen():
    rows = list(_verdict_lines())
    assert Counter(kind.value for kind, _ in rows) == {
        "Unique": 512, "NonUnique": 2903, "OutOfScope": 5807,
    }
    text = "\n".join(line for _, line in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7f8dfd97c964bbebfb9a75e0f364abfa5b5f657751233362f54213b84d7e8be9"
    )


def test_one_prime_above_the_blocks_decides_every_larger_prime():
    """Every partition with largest block >= 2 of SL 2-18, Sp 4-24 and
    SO 7-22 gets the same kind, reason and witness pair text at the
    least prime above its largest block and at the next three primes:
    above the blocks p enters the classifier through no rule.  Identity
    partitions are left out, since at p = 2 they carry the bad-prime
    reason."""
    primes = [q for q in range(2, 60) if is_prime(q)]

    def answer(g, part, p):
        v = unicity_verdict(g, part, p)
        pair = v.witness_pair and tuple(map(format_descriptor, v.witness_pair))
        return v.kind, v.reason, pair

    checked = 0
    for make, dims in ((SL, range(2, 19)), (Sp, range(4, 25, 2)), (SO, range(7, 23))):
        for dim in dims:
            for blocks in partitions_bounded(dim, dim)[:-1]:  # all but (1^dim)
                g, part = make(dim), Partition(blocks)
                least, *larger = [q for q in primes if q > blocks[0]][:4]
                want = answer(g, part, least)
                for q in larger:
                    assert answer(g, part, q) == want, (g, part, q)
                checked += 1
    assert checked == 10141
