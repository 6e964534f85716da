import time

import pytest
from hypothesis import given, settings, strategies as st

from a1unicity import ffmatrix
from a1unicity.errors import (
    EmptyMatrixError,
    OrderExceedsPError,
    PrimeMismatchError,
    ShapeError,
)
from a1unicity.ffmatrix import PrimeField
from a1unicity.jordan import (
    JordanType,
    jnotation,
    jordan_type_of_unipotent,
    summand_profile,
    tensor,
    tensor_multi,
    tensor_pair,
    tensor_pair_oracle,
)

PRIMES = (2, 3, 5, 7, 11, 13)


def test_jordan_type_is_canonical():
    t = JordanType((1, 3, 5, 3), 5)
    assert t.blocks == (5, 3, 3, 1)
    assert t.dimension == 12
    assert str(t) == "J5+J3^2+J1"


def test_jordan_type_enforces_order_p():
    with pytest.raises(OrderExceedsPError):
        JordanType((6, 1), 5)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: JordanType((2, 0), 5), ShapeError, "nonpositive block size 0"),
        (lambda: tensor_multi([], 5), EmptyMatrixError,
         "tensor_multi needs at least one block size"),
    ],
    ids=["block-0", "no-sizes"],
)
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_jnotation():
    assert jnotation((3, 3, 1, 1)) == "J3^2+J1^2"
    assert jnotation((7,)) == "J7"


def test_jnotation_is_linear_in_the_number_of_blocks():
    blocks = tuple(range(100000, 0, -1)) + (7, 7)
    start = time.perf_counter()
    text = jnotation(blocks)
    assert time.perf_counter() - start < 0.5
    assert text.startswith("J100000+J99999+") and "+J7^3+" in text


def test_tensor_pair_stated_values():
    for p in (3, 5, 7):
        for n in range(1, p):
            assert tensor_pair(2, n, p).blocks == (
                ((n + 1, n - 1)) if n > 1 else (2,)
            )
        assert tensor_pair(2, p, p).blocks == (p, p)
    assert tensor_pair(3, 3, 3).blocks == (3, 3, 3)
    for p in (5, 7, 11):
        assert tensor_pair(3, 3, p).blocks == (5, 3, 1)
    assert tensor_pair(3, 4, 5).blocks == (5, 5, 2)
    for p in (5, 7):
        assert tensor_pair(1, 4, p).blocks == (4,)


def test_tensor_pair_rejects_oversized_blocks():
    with pytest.raises(OrderExceedsPError):
        tensor_pair(4, 2, 3)


def test_tensor_extends_bilinearly():
    # independent route: block-diagonal matrix, Kronecker, rank sequence
    f5 = PrimeField(5)
    left = ffmatrix.block_diagonal(
        [ffmatrix.unipotent_jordan_block(f5, 3), ffmatrix.unipotent_jordan_block(f5, 1)]
    )
    prod = ffmatrix.kronecker(left, ffmatrix.unipotent_jordan_block(f5, 2), f5)
    oracle = jordan_type_of_unipotent(prod, f5)
    assert oracle.blocks == (4, 2, 2)
    assert tensor(JordanType((3, 1), 5), JordanType((2,), 5)) == oracle


def test_tensor_with_trivial_is_identity():
    for p in (3, 7):
        for n in range(1, p + 1):
            assert tensor(JordanType((n,), p), JordanType((1,), p)).blocks == (n,)


def test_tensor_prime_mismatch():
    with pytest.raises(PrimeMismatchError):
        tensor(JordanType((2,), 5), JordanType((2,), 7))


def test_tensor_multi_stated_values():
    assert tensor_multi([2, 2, 2], 2).blocks == (2, 2, 2, 2)
    assert tensor_multi([2, 2, 2], 3).blocks == (3, 3, 2)
    for p in (5, 7, 11):
        assert tensor_multi([2, 2, 2], p).blocks == (4, 2, 2)
    assert tensor_multi([4], 7).blocks == (4,)


def test_tensor_multi_matches_iterated_tensor():
    assert tensor(
        tensor(JordanType((2,), 3), JordanType((2,), 3)), JordanType((2,), 3)
    ).blocks == (3, 3, 2)


def test_summand_profile():
    assert summand_profile(JordanType((5, 3, 1), 5)) == (2, frozenset({5, 3}))
    assert summand_profile(JordanType((7, 7), 7)) == (2, frozenset({7}))
    assert summand_profile(JordanType((1, 1, 1), 5)) == (0, frozenset())


@pytest.mark.parametrize("p", PRIMES)
def test_closed_form_matches_oracle_spot(p):
    for m in range(1, p + 1):
        assert tensor_pair(m, p, p).blocks == (p,) * m  # projective case
    assert tensor_pair(p, p, p) == tensor_pair_oracle(p, p, p)


def _assert_oracle_matches_closed_form_on_all_pairs(p):
    for m in range(1, p + 1):
        for n in range(m, p + 1):
            assert tensor_pair_oracle(m, n, p) == tensor_pair(m, n, p), (m, n)


def test_oracle_matches_closed_form_on_all_pairs_at_17():
    _assert_oracle_matches_closed_form_on_all_pairs(17)  # 153 pairs


def test_oracle_matches_closed_form_on_all_pairs_at_19():
    _assert_oracle_matches_closed_form_on_all_pairs(19)  # 190 pairs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dimension_conservation(data):
    p = data.draw(st.sampled_from(PRIMES))
    a = data.draw(st.lists(st.integers(1, p), min_size=1, max_size=4))
    b = data.draw(st.lists(st.integers(1, p), min_size=1, max_size=4))
    ta, tb = JordanType(tuple(a), p), JordanType(tuple(b), p)
    prod = tensor(ta, tb)
    assert prod.dimension == ta.dimension * tb.dimension
    assert all(1 <= x <= p for x in prod.blocks)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_pair_symmetry(data):
    p = data.draw(st.sampled_from(PRIMES))
    m = data.draw(st.integers(1, p))
    n = data.draw(st.integers(1, p))
    assert tensor_pair(m, n, p) == tensor_pair(n, m, p)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tensor_associativity(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    sizes = [data.draw(st.integers(1, p)) for _ in range(3)]
    a, b, c = (JordanType((s,), p) for s in sizes)
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_growth_under_block_extension(p):
    """Greedily matched blocks never shrink when one tensor factor grows."""
    for j in range(1, p + 1):
        for i in range(2, p + 1):
            smaller = tensor_pair(i - 1, j, p).blocks
            larger = tensor_pair(i, j, p).blocks
            assert len(larger) >= len(smaller)
            for big, small in zip(larger, smaller):
                assert big >= small
