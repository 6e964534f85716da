"""Value semantics of the package's frozen classes.

For one instance of every value class: its repr, its hash (that of the
tuple of its compared fields), equality only within one class,
construction by keyword and with defaults, and FrozenInstanceError on
every assignment and deletion.  Set and dict orders, error messages that
embed a repr, and answers memoised by repr all rest on these.
"""

from dataclasses import FrozenInstanceError

import pytest

from a1unicity.atlas import AtlasVerdict, ExceptionalGroup, ExceptionalType
from a1unicity.classical import Family, GroupFamily, Partition, Verdict
from a1unicity.enumerator import EmbeddingClass, EnumerationResult
from a1unicity.errors import VerdictKind, WeightError
from a1unicity.ffmatrix import PrimeField
from a1unicity.jordan import JordanType
from a1unicity.sl2modules import (
    Doubled,
    Irr,
    IrreducibleDescriptor,
    IrreducibleFactor,
    ModuleDescriptor,
    Tilting,
    Trivial,
    Weyl,
)

_F1 = IrreducibleFactor(1, 1)
_F2 = IrreducibleFactor(2)
_M = IrreducibleDescriptor((_F1, _F2))
_M_REPR = (
    "IrreducibleDescriptor(factors=(IrreducibleFactor(weight=2, twist=0), "
    "IrreducibleFactor(weight=1, twist=1)))"
)
_D = ModuleDescriptor((Trivial(1), Irr(_M), Trivial(2)), 5)
_D_REPR = (
    f"ModuleDescriptor(summands=(Irr(module={_M_REPR}), "
    "Trivial(multiplicity=3)), p=5)"
)


def _listing():
    return (EmbeddingClass(_D),)


# (instance, exact repr, the tuple of its compared fields)
_VALUES = [
    (
        ExceptionalGroup(ExceptionalType.G2),
        "ExceptionalGroup(type=<ExceptionalType.G2: 'G2'>)",
        (ExceptionalType.G2,),
    ),
    (
        AtlasVerdict(VerdictKind.UNIQUE),
        "AtlasVerdict(kind=<VerdictKind.UNIQUE: 'Unique'>, note=None)",
        (VerdictKind.UNIQUE, None),
    ),
    (
        GroupFamily(Family.SP, 4),
        "GroupFamily(family=<Family.SP: 'Sp'>, dimension=4)",
        (Family.SP, 4),
    ),
    (Partition([3, 2, 2]), "Partition(parts=(3, 2, 2))", ((3, 2, 2),)),
    (
        Verdict(VerdictKind.OUT_OF_SCOPE, reason="r"),
        "Verdict(kind=<VerdictKind.OUT_OF_SCOPE: 'OutOfScope'>, "
        "witness_pair=None, reason='r')",
        (VerdictKind.OUT_OF_SCOPE, None, "r"),
    ),
    (EmbeddingClass(_D), f"EmbeddingClass(descriptor={_D_REPR})", (_D,)),
    (
        EnumerationResult(1, 1, False, _listing),
        "EnumerationResult(count=1, max_twist=1, growth_flag=False)",
        (1, 1, False),
    ),
    (PrimeField(7), "PrimeField(p=7)", (7,)),
    (JordanType([1, 3, 2], 5), "JordanType(blocks=(3, 2, 1), p=5)", ((3, 2, 1), 5)),
    (_F1, "IrreducibleFactor(weight=1, twist=1)", (1, 1)),
    (_M, _M_REPR, ((_F2, _F1),)),
    (Irr(_M), f"Irr(module={_M_REPR})", (_M,)),
    (Doubled(_M), f"Doubled(module={_M_REPR})", (_M,)),
    (Weyl(5), "Weyl(weight=5)", (5,)),
    (Tilting(6), "Tilting(weight=6)", (6,)),
    (Trivial(3), "Trivial(multiplicity=3)", (3,)),
    (_D, _D_REPR, ((Irr(_M), Trivial(3)), 5)),
]

# (class, keyword arguments, the same instance built positionally)
_BY_KEYWORD = [
    (ExceptionalGroup, {"type": ExceptionalType.E8}, ExceptionalGroup(ExceptionalType.E8)),
    (AtlasVerdict, {"note": "n", "kind": VerdictKind.NON_UNIQUE},
     AtlasVerdict(VerdictKind.NON_UNIQUE, "n")),
    (GroupFamily, {"dimension": 7, "family": Family.SO}, GroupFamily(Family.SO, 7)),
    (Partition, {"parts": (2, 1)}, Partition((2, 1))),
    (Verdict, {"kind": VerdictKind.NON_UNIQUE, "witness_pair": (_D, _D)},
     Verdict(VerdictKind.NON_UNIQUE, (_D, _D), None)),
    (EmbeddingClass, {"descriptor": _D}, EmbeddingClass(_D)),
    (EnumerationResult,
     {"count": 2, "max_twist": 0, "growth_flag": True, "_listing": tuple},
     EnumerationResult(2, 0, True, _listing)),
    (PrimeField, {"p": 11}, PrimeField(11)),
    (JordanType, {"p": 3, "blocks": (1, 3)}, JordanType((3, 1), 3)),
    (IrreducibleFactor, {"twist": 2, "weight": 4}, IrreducibleFactor(4, 2)),
    (IrreducibleFactor, {"weight": 4}, IrreducibleFactor(4, 0)),
    (IrreducibleDescriptor, {"factors": (_F2,)}, IrreducibleDescriptor((_F2,))),
    (Irr, {"module": _M}, Irr(_M)),
    (Doubled, {"module": _M}, Doubled(_M)),
    (Weyl, {"weight": 7}, Weyl(7)),
    (Tilting, {"weight": 7}, Tilting(7)),
    (Trivial, {"multiplicity": 1}, Trivial(1)),
    (ModuleDescriptor, {"p": 5, "summands": (Trivial(1),)},
     ModuleDescriptor((Trivial(1),), 5)),
]


@pytest.mark.parametrize("value, text, fields", _VALUES, ids=lambda v: type(v).__name__)
def test_repr_and_hash_follow_the_fields(value, text, fields):
    assert repr(value) == text
    assert hash(value) == hash(fields)
    assert value == value and not value != value  # noqa: PLR0124


def test_every_class_is_covered_once():
    classes = [type(v) for v, _, _ in _VALUES]
    assert len(classes) == len(set(classes)) == 17
    assert {cls for cls, _, _ in _BY_KEYWORD} == set(classes)


@pytest.mark.parametrize("value, _text, _fields", _VALUES, ids=lambda v: type(v).__name__)
def test_every_attribute_is_read_only(value, _text, _fields):
    for name in (*vars(value), "extra"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("cls, kwargs, positional", _BY_KEYWORD,
                         ids=lambda v: getattr(v, "__name__", ""))
def test_construction_by_keyword_and_with_defaults(cls, kwargs, positional):
    value = cls(**kwargs)
    assert value == positional and hash(value) == hash(positional)
    assert repr(value) == repr(positional)


def test_missing_or_surplus_arguments_raise_type_error():
    for build in (
        lambda: AtlasVerdict(),
        lambda: Trivial(1, 2),
        lambda: Verdict(VerdictKind.UNIQUE, nonsense=1),
        lambda: JordanType((1,)),
        lambda: IrreducibleFactor(1, 0, 0),
        lambda: EnumerationResult(1, 1, False),
    ):
        with pytest.raises(TypeError):
            build()


def test_equality_holds_only_within_one_class():
    assert Irr(_M) != Doubled(_M) and Doubled(_M) != Irr(_M)
    assert Weyl(5) != Tilting(5)
    assert JordanType((2,), 3) != ((2,), 3)
    assert PrimeField(5) != 5
    assert len({Irr(_M), Doubled(_M), Irr(_M)}) == 2
    # the listing is neither compared, hashed nor shown
    a = EnumerationResult(1, 1, False, _listing)
    b = EnumerationResult(1, 1, False, tuple)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != EnumerationResult(1, 1, True, _listing)
    assert a.classes is a.classes == (EmbeddingClass(_D),)
    assert a == b and hash(a) == hash((1, 1, False))


def test_irreducible_factors_are_ordered_as_tuples():
    small, large = IrreducibleFactor(1, 5), IrreducibleFactor(2, 0)
    assert small < large and small <= large and large > small and large >= small
    assert small <= IrreducibleFactor(1, 5) >= small
    assert not small < IrreducibleFactor(1, 5)
    assert sorted([large, _F1, small, _F2]) == [_F1, small, _F2, large]
    with pytest.raises(TypeError):
        small < (1, 5)  # noqa: B015


def test_error_messages_embed_the_repr():
    with pytest.raises(WeightError) as err:
        IrreducibleDescriptor((IrreducibleFactor(2, 0), IrreducibleFactor(1, 0)))
    assert str(err.value) == (
        "duplicate Frobenius twists in (IrreducibleFactor(weight=2, twist=0), "
        "IrreducibleFactor(weight=1, twist=0))"
    )
