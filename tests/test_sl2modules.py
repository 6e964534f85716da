import hashlib
from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from a1unicity.errors import (
    DescriptorParseError,
    NotRealizableError,
    ShapeError,
    WeightError,
)
from a1unicity.ffmatrix import MAX_DIMENSION, PrimeField
from a1unicity.jordan import jordan_type_of_unipotent
from a1unicity.sl2modules import (
    Doubled,
    FormType,
    Irr,
    IrreducibleDescriptor,
    IrreducibleFactor,
    ModuleDescriptor,
    Tilting,
    Trivial,
    Weyl,
    admits_form,
    check_realizable,
    lone_copy_admits,
    trivial_step,
    dimension,
    form_type,
    format_descriptor,
    jordan_type,
    parse_descriptor,
    realize,
)


def _irr(p, *factors):
    return ModuleDescriptor(
        (Irr(IrreducibleDescriptor(tuple(IrreducibleFactor(w, a) for w, a in factors))),),
        p,
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: IrreducibleFactor(1, -1), WeightError, "negative Frobenius twist -1"),
        (lambda: IrreducibleDescriptor(()), WeightError,
         "irreducible descriptor needs at least one factor"),
        (lambda: ModuleDescriptor((), 5), WeightError, "descriptor needs at least one summand"),
        (lambda: parse_descriptor("L(" + "1" * 5000 + ")", 5), DescriptorParseError,
         "integer of 5000 digits is too long"),
    ],
    ids=["negative-twist", "no-factors", "no-summands", "long-integer"],
)
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_dimension_examples():
    assert dimension(_irr(5, (4, 0))) == 5
    assert dimension(ModuleDescriptor((Tilting(10),), 7)) == 14
    assert dimension(ModuleDescriptor((Trivial(3),), 5)) == 3
    assert dimension(parse_descriptor("2*L(4)+3*triv", 5)) == 13


def test_jordan_type_examples():
    assert jordan_type(_irr(5, (1, 0), (3, 1))).blocks == (5, 3)
    assert jordan_type(_irr(7, (2, 0), (2, 1))).blocks == (5, 3, 1)
    for p in (5, 7):
        d = ModuleDescriptor((Weyl(p), Trivial(2)), p)
        assert jordan_type(d).blocks == (p, 1, 1, 1)
    assert jordan_type(_irr(7, (1, 0), (5, 1))).blocks == (7, 5)
    assert jordan_type(ModuleDescriptor((Tilting(8),), 7)).blocks == (7, 7)


def test_form_type_examples():
    assert form_type(_irr(5, (4, 0))) is FormType.ORTHOGONAL
    assert form_type(_irr(5, (3, 0))) is FormType.SYMPLECTIC
    assert form_type(_irr(5, (1, 0), (1, 1))) is FormType.ORTHOGONAL
    assert form_type(parse_descriptor("2*L(4)", 5)) is FormType.EITHER
    # a symplectic and an orthogonal part together carry neither form
    assert form_type(parse_descriptor("L(3)+L(2)", 5)) is FormType.NONE


def test_form_type_depends_only_on_weight_parity():
    for factors in [((1, 0), (1, 1)), ((1, 0), (3, 1)), ((2, 0), (2, 1))]:
        total = sum(w for w, _ in factors)
        expected = FormType.SYMPLECTIC if total % 2 else FormType.ORTHOGONAL
        assert form_type(_irr(7, *factors)) is expected


def test_admits_form():
    d = parse_descriptor("2*L(4)+2*triv", 5)
    assert admits_form(d, FormType.SYMPLECTIC)
    assert admits_form(d, FormType.ORTHOGONAL)
    lone_orth = parse_descriptor("L(4)+triv", 5)
    assert not admits_form(lone_orth, FormType.SYMPLECTIC)
    assert admits_form(lone_orth, FormType.ORTHOGONAL)
    # odd number of trivial lines cannot pair up symplectically
    assert not admits_form(parse_descriptor("L(3)+triv", 5), FormType.SYMPLECTIC)
    assert admits_form(parse_descriptor("L(3)+2*triv", 5), FormType.SYMPLECTIC)


def test_form_rules():
    """A lone copy must carry the ambient form itself, if there is one;
    trivial lines pair up under a symplectic (or EITHER) form."""
    admitted = {(own, ambient) for own in FormType for ambient in FormType
                if lone_copy_admits(own, ambient)}
    assert admitted == {(own, FormType.NONE) for own in FormType} | {
        (FormType.SYMPLECTIC,) * 2, (FormType.ORTHOGONAL,) * 2, (FormType.EITHER,) * 2,
    }
    assert [trivial_step(f) for f in FormType] == [2, 1, 2, 1]


def _grammar_descriptors(p, max_dim):
    """Every descriptor of dimension <= max_dim that the grammar spells
    with each irreducible's weights, in any order, at twists 0, 1, ...:
    a multiset of Irr, Doubled, Weyl and Tilting summands plus r >= 0
    trivial lines."""
    irrs = [
        IrreducibleDescriptor(tuple(map(IrreducibleFactor, weights, range(k))))
        for k in (1, 2, 3)
        for weights in product(range(1, p), repeat=k)
    ]
    kinds = [Irr(m) for m in irrs] + [Doubled(m) for m in irrs]
    kinds += [kind(c) for kind in (Weyl, Tilting) for c in range(p, 2 * p - 1)]
    kinds = [s for s in kinds if s.dimension(p) <= max_dim]
    out = []

    def rec(start, room, acc):
        for r in range(0 if acc else 1, room + 1):
            out.append(ModuleDescriptor(tuple(acc) + ((Trivial(r),) if r else ()), p))
        for i in range(start, len(kinds)):
            d = kinds[i].dimension(p)
            if d <= room:
                acc.append(kinds[i])
                rec(i, room - d, acc)
                acc.pop()

    rec(0, max_dim, [])
    return out


def test_form_answers_frozen():
    """form_type and admits_form under all four forms, for every grammar
    descriptor up to dimension 8 at p in (3, 5, 7), hash to a frozen
    digest."""
    lines = []
    for p in (3, 5, 7):
        for d in _grammar_descriptors(p, 8):
            admits = "".join("01"[admits_form(d, f)] for f in FormType)
            lines.append(f"{p} {format_descriptor(d)} {form_type(d).value} {admits}")
    assert len(lines) == 328
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ce0943c2817117965d3300eac9236a1ce28c789d3a547c00148d73082c5b051b"


def test_realize_examples():
    f5 = PrimeField(5)
    m = realize(_irr(5, (2, 0)))
    assert m.shape == (3, 3)
    assert jordan_type_of_unipotent(m, f5).blocks == (3,)
    m = realize(_irr(5, (1, 0), (1, 1)))
    assert m.shape == (4, 4)
    assert jordan_type_of_unipotent(m, f5).blocks == (3, 1)
    with pytest.raises(NotRealizableError):
        realize(ModuleDescriptor((Tilting(7),), 7))
    with pytest.raises(ShapeError):
        realize(ModuleDescriptor((Trivial(MAX_DIMENSION + 1),), 5))


def test_realize_weyl_and_doubled():
    f7 = PrimeField(7)
    d = ModuleDescriptor((Weyl(9), Trivial(1)), 7)
    assert jordan_type_of_unipotent(realize(d), f7).blocks == (7, 3, 1)
    d = parse_descriptor("2*L(2)", 7)
    assert jordan_type_of_unipotent(realize(d), f7).blocks == (3, 3)


def test_parse_examples():
    d = parse_descriptor("L(1)*L(3)@1", 5)
    (s,) = d.summands
    assert isinstance(s, Irr)
    assert s.module.factors == (IrreducibleFactor(1, 0), IrreducibleFactor(3, 1))

    d = parse_descriptor("2*L(4) + 3*triv", 5)
    kinds = {type(s) for s in d.summands}
    assert kinds == {Doubled, Trivial}

    with pytest.raises(WeightError):
        parse_descriptor("L(5)", 5)
    with pytest.raises(WeightError):
        parse_descriptor("L(1)*L(2)", 5)  # twist collision at 0
    with pytest.raises(WeightError):
        parse_descriptor("W(4)", 5)  # below [p, 2p-2]
    with pytest.raises(WeightError):
        parse_descriptor("T(9)", 5)  # above [p, 2p-2]
    with pytest.raises(DescriptorParseError):
        parse_descriptor("L(two)", 5)
    with pytest.raises(DescriptorParseError):
        parse_descriptor("", 5)


def test_parse_format_round_trip():
    for text in [
        "L(4)+triv",
        "2*L(4)",
        "L(1)*L(3)@1+2*triv",
        "W(5)+3*triv",
        "T(6)",
        "L(2)+L(1)*L(1)@1",
    ]:
        p = 5
        d = parse_descriptor(text, p)
        assert parse_descriptor(format_descriptor(d), p) == d


def test_trivials_merge_and_order_is_canonical():
    a = parse_descriptor("triv+L(2)+2*triv", 5)
    b = parse_descriptor("L(2)+3*triv", 5)
    assert a == b
    assert format_descriptor(a) == "L(2)+3*triv"



def test_every_summand_attribute_is_read_only():
    # A frozen base that guarded only its declared fields would leave the
    # cached key and text of Irr and Doubled, and any new attribute,
    # assignable.
    m = IrreducibleDescriptor((IrreducibleFactor(2, 0),))
    for summand, name in ((Irr(m), "key"), (Doubled(m), "text"),
                          (Weyl(5), "letter"), (Tilting(5), "rank")):
        with pytest.raises(FrozenInstanceError):
            setattr(summand, name, None)

# Scrambled input, p, canonical text.  Weyl and Tilting summands sit by
# dimension among the irreducibles, the kind (Irr, Doubled, Weyl,
# Tilting) breaks ties of dimension, and the merged trivials come last.
_CANONICAL_TEXT = [
    ("3*triv+W(6)+L(4)+T(5)+2*L(1)", 5, "T(5)+W(6)+L(4)+2*L(1)+3*triv"),
    ("triv+T(8)+W(5)+L(1)*L(1)@1", 5, "T(8)+W(5)+L(1)*L(1)@1+triv"),
    ("W(8)+W(5)+triv+2*L(2)", 5, "W(8)+2*L(2)+W(5)+triv"),
    ("T(6)+W(7)+L(2)@3+triv+triv", 5, "T(6)+W(7)+L(2)@3+2*triv"),
    ("5*triv+T(5)+L(1)", 5, "T(5)+L(1)+5*triv"),
    ("W(5)+L(1)*L(2)@1", 5, "L(1)*L(2)@1+W(5)"),
    ("T(2)+W(2)+L(1)+2*L(1)@1+triv", 2, "2*L(1)@1+T(2)+W(2)+L(1)+triv"),
    ("W(3)+L(2)+W(4)+2*L(1)+T(3)", 3, "T(3)+W(4)+2*L(1)+W(3)+L(2)"),
    ("L(6)+T(12)+2*L(3)@2+W(7)+4*triv", 7, "T(12)+2*L(3)@2+W(7)+L(6)+4*triv"),
    ("2*L(1)@2+L(3)+L(1)*L(1)@1", 7, "L(1)*L(1)@1+L(3)+2*L(1)@2"),
    ("W(13)+L(12)+T(24)+L(1)*L(5)@2*L(2)@4+2*L(3)", 13,
     "L(1)*L(5)@2*L(2)@4+T(24)+W(13)+L(12)+2*L(3)"),
]


def test_canonical_text_table():
    for text, p, canonical in _CANONICAL_TEXT:
        d = parse_descriptor(text, p)
        assert format_descriptor(d) == canonical
        assert parse_descriptor(canonical, p) == d


@st.composite
def _irreducibles(draw, p):
    twists = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, p - 1), min_size=len(twists),
                            max_size=len(twists)))
    return IrreducibleDescriptor(tuple(map(IrreducibleFactor, weights, twists)))


@st.composite
def _summand_lists(draw):
    """A prime and a list of summands of all five kinds, unsorted and
    with unmerged trivials."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    summand = st.one_of(
        st.builds(Irr, _irreducibles(p)),
        st.builds(Doubled, _irreducibles(p)),
        st.builds(Weyl, st.integers(p, 2 * p - 2)),
        st.builds(Tilting, st.integers(p, 2 * p - 2)),
        st.builds(Trivial, st.integers(1, 12)),
    )
    return p, draw(st.lists(summand, min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_summand_lists(), st.data())
def test_descriptor_grammar_round_trips(drawn, data):
    """The text of a descriptor parses back to it and is a fixed point;
    summand order and inserted whitespace change neither."""
    p, summands = drawn
    d = ModuleDescriptor(tuple(summands), p)
    text = format_descriptor(d)
    assert parse_descriptor(text, p) == d
    assert format_descriptor(parse_descriptor(text, p)) == text
    for order in (summands, d.summands):
        permuted = ModuleDescriptor(tuple(data.draw(st.permutations(order))), p)
        assert permuted == d and hash(permuted) == hash(d)
        assert format_descriptor(permuted) == text
    blanks = data.draw(st.lists(
        st.tuples(st.integers(0, len(text)), st.sampled_from([" ", "\t", "\n", "  "])),
        max_size=8,
    ))
    spaced = text
    for at, blank in sorted(blanks, reverse=True):
        spaced = spaced[:at] + blank + spaced[at:]
    assert parse_descriptor(spaced, p) == d


def test_twist_shift_leaves_jordan_type_fixed():
    base = _irr(7, (1, 0), (5, 1))
    for shift in (1, 2, 5):
        shifted = _irr(7, (1, shift), (5, 1 + shift))
        assert jordan_type(shifted) == jordan_type(base)
        assert dimension(shifted) == dimension(base)


def _all_descriptors(p, max_dim):
    """Completely reducible descriptors plus Weyl summands, dim <= max_dim.

    Twists capped at 1: both realize and jordan_type are blind to twist
    values, so this covers every descriptor shape up to twist relabeling.
    """
    atoms = []
    for w in range(1, p):
        atoms.append(Irr(IrreducibleDescriptor((IrreducibleFactor(w, 0),))))
    for w1 in range(1, p):
        for w2 in range(1, p):
            if (w1 + 1) * (w2 + 1) <= max_dim:
                atoms.append(
                    Irr(
                        IrreducibleDescriptor(
                            (IrreducibleFactor(w1, 0), IrreducibleFactor(w2, 1))
                        )
                    )
                )
    atoms.extend(Doubled(a.module) for a in list(atoms))
    atoms.extend(Weyl(c) for c in range(p, 2 * p - 1))
    atoms.append(Trivial(1))

    atoms = [a for a in atoms if a.dimension(p) <= max_dim]
    out = []

    def rec(start, budget, acc):
        if acc:
            out.append(ModuleDescriptor(tuple(acc), p))
        for i in range(start, len(atoms)):
            d = atoms[i].dimension(p)
            if d <= budget:
                acc.append(atoms[i])
                rec(i, budget - d, acc)
                acc.pop()

    rec(0, max_dim, [])
    return out


@pytest.mark.parametrize("p", [5, 7])
def test_realized_matrix_always_matches_declared_type(p):
    field = PrimeField(p)
    descriptors = _all_descriptors(p, 14)
    assert len(descriptors) > 100
    for d in descriptors:
        declared = jordan_type(d)
        assert declared.dimension == dimension(d)
        assert jordan_type_of_unipotent(realize(d), field) == declared


_BIG_P = 4294967311  # (p - 1)^2 > 2^63

# What realize raises, frozen: a Tilting summand, a dimension above
# MAX_DIMENSION, and a non-trivial summand over a field too large for
# exact int64 products.
_REFUSALS = [
    ("T(10)", 7, NotRealizableError,
     "T(10) carries only its Jordan type (p, p); no matrix model is built"),
    ("L(2)+T(5)+triv", 5, NotRealizableError,
     "T(5) carries only its Jordan type (p, p); no matrix model is built"),
    (f"{MAX_DIMENSION + 1}*triv", 5, ShapeError,
     f"module dimension {MAX_DIMENSION + 1} exceeds the configured bound {MAX_DIMENSION}"),
    (f"L(4)+{MAX_DIMENSION}*triv", 5, ShapeError,
     f"module dimension {MAX_DIMENSION + 5} exceeds the configured bound {MAX_DIMENSION}"),
    (f"W({_BIG_P})", _BIG_P, ShapeError,
     f"module dimension {_BIG_P + 1} exceeds the configured bound {MAX_DIMENSION}"),
    ("L(1)+triv", _BIG_P, ShapeError,
     f"n = 1 over GF({_BIG_P}) needs n*(p-1)^2 < 2^63 for exact int64 arithmetic"),
    ("2*L(1)*L(1)@1", _BIG_P, ShapeError,
     f"n = 1 over GF({_BIG_P}) needs n*(p-1)^2 < 2^63 for exact int64 arithmetic"),
]


def test_check_realizable_agrees_with_realize():
    """realize and check_realizable both raise the frozen refusals, with
    the same message, and both pass realizable descriptors."""
    for text, p, error, message in _REFUSALS:
        d = parse_descriptor(text, p)
        for fn in (check_realizable, realize):
            with pytest.raises(error) as info:
                fn(d)
            assert str(info.value) == message, (fn.__name__, text)
    for d in _all_descriptors(5, 8) + [parse_descriptor("4*triv", _BIG_P)]:
        check_realizable(d)
        assert realize(d).shape == (dimension(d), dimension(d))
