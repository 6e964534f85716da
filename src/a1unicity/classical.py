"""Partition-level unicity classifier for the classical groups.

Unipotent classes of SL(W), Sp(W) and SO(W) in good characteristic are
parametrised by partitions of dim W (Jordan blocks on the natural
module).  For an element of order p the question "are all A1-overgroups
conjugate?" depends only on that partition, and the answer is a short
list of hook and doubled-hook shapes:

  SL(n):  (l, 1^r)     with l <= p, and r = 0 whenever l in {3, p}
  Sp(2m): (a, 1^r)     with a even, a < p
          (a, a, 1^r)  with a odd, a < p, and r = 0 whenever a = 3
  SO(N):  (a, 1^r)     with a odd, a <= p, and r = 0 whenever a = 3
          (a, a, 1^r)  with a even, a < p

Everything else meets non-conjugate overgroups; for the shapes
(p, 1^r), (3, 1^r), (p, p, 1^r) and (3, 3, 1^r) an explicit witness
pair of module structures is attached.

The code decides from two facts.  A single block J(a) = L(a - 1) carries
the family's form (FAMILY_FORM) always in SL, for even a in Sp and for
odd a in SO (sl2modules.lone_copy_admits); blocks that do not carry it
come in pairs, which is `validate`'s parity rule.  An order-p partition
has the unicity shape when it is the hook (a, 1^r) with J(a) carrying
the form, or else the doubled hook (a, a, 1^r).  It is Unique unless it
is one of four exceptions, each with its witness pair (`_exception_pair`):
SL (p, 1^r>=1); SL/SO (3, 1^r>=1); Sp (p, p, 1^r); Sp (3, 3, 1^r>=1).

The doubled-hook exclusion at a = 3 parallels the hook exclusion: the
four-dimensional twisted tensor module L(1)*L(1)@a has blocks (3, 1), so
its doubling realizes (3, 3, 1^r) inside Sp whenever r >= 2, exactly as
a single copy realizes (3, 1^r) inside SO.  The enumeration engine
confirms both families.
"""

from __future__ import annotations

from enum import Enum
from operator import lt

from .errors import (
    BadPrimeError,
    DimensionMismatchError,
    Frozen,
    IdentityElementError,
    InvalidQueryError,
    NoWitnessRuleError,
    ParityViolationError,
    ValidationError,
    VerdictKind,
)
from .ffmatrix import is_prime
from .sl2modules import (
    Doubled,
    FormType,
    Irr,
    IrreducibleDescriptor,
    IrreducibleFactor,
    ModuleDescriptor,
    Trivial,
    Weyl,
    lone_copy_admits,
    weights_form,
)


class Family(str, Enum):
    SL = "SL"
    SP = "Sp"
    SO = "SO"


class GroupFamily(Frozen):
    """A classical group together with its natural-module dimension."""

    family: Family
    dimension: int

    def __init__(self, family: Family, dimension: int):
        if dimension < 2:
            raise InvalidQueryError(f"natural module dimension {dimension} < 2")
        if dimension % 2 and family is Family.SP:
            raise InvalidQueryError("symplectic groups need even dimension")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "dimension", dimension)

    def __str__(self) -> str:
        return f"{self.family.value}({self.dimension})"


def SL(n: int) -> GroupFamily:
    return GroupFamily(Family.SL, n)


def Sp(n: int) -> GroupFamily:
    return GroupFamily(Family.SP, n)


def SO(n: int) -> GroupFamily:
    return GroupFamily(Family.SO, n)


class Partition(Frozen):
    """Descending list of positive integers."""

    parts: tuple[int, ...]

    def __init__(self, parts):
        parts = tuple(map(int, parts))
        if not parts:
            raise ValueError("empty partition")
        if min(parts) < 1:
            raise ValueError(f"nonpositive part in {parts}")
        if any(map(lt, parts, parts[1:])):
            raise ValueError(f"parts not descending: {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        return cls(tuple(int(x) for x in text.split(",")))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def multiplicity(self, size: int) -> int:
        return self.parts.count(size)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts)


class Verdict(Frozen):
    kind: VerdictKind
    witness_pair: tuple[ModuleDescriptor, ModuleDescriptor] | None
    reason: str | None

    def __init__(self, kind: VerdictKind, witness_pair=None, reason: str | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness_pair", witness_pair)
        object.__setattr__(self, "reason", reason)


# per family: the least natural-module dimension covered, and the form kept
_MIN_DIM = {Family.SL: 2, Family.SP: 4, Family.SO: 7}
FAMILY_FORM = {Family.SL: FormType.NONE, Family.SP: FormType.SYMPLECTIC,
               Family.SO: FormType.ORTHOGONAL}
# per family, whether a lone block J(a) carries the family's form, for
# even and for odd a: sl2modules' rule, asked once per family here so that
# no query reads a FormType member
_LONE_OK = {
    family: tuple(lone_copy_admits(weights_form((a - 1,)), form) for a in (2, 1))
    for family, form in FAMILY_FORM.items()
}


def validate(group: GroupFamily, partition: Partition, p: int) -> None:
    """Check that the partition names a nonidentity unipotent class of
    the group in characteristic p; raise a ValidationError subclass if
    not."""
    if not is_prime(p):
        raise BadPrimeError(f"{p} is not prime")
    if p == 2 and group.family is not Family.SL:
        raise BadPrimeError(f"p = 2 is a bad prime for {group}")
    if partition.n != group.dimension:
        raise DimensionMismatchError(
            f"partition of {partition.n} vs natural module of dim {group.dimension}"
        )
    lone_ok = _LONE_OK[group.family]
    for size in set(partition.parts):
        if not lone_ok[size % 2] and partition.multiplicity(size) % 2:
            raise ParityViolationError(
                f"{'odd' if size % 2 else 'even'} block size {size} "
                "occurs an odd number of times"
            )
    if partition.parts[0] == 1:
        raise IdentityElementError("identity partition (1^n) is not classified")


def is_order_p(partition: Partition, p: int) -> bool:
    """Order exactly p: largest block in [2, p]."""
    return 2 <= partition.parts[0] <= p


def _exception_pair(
    family: Family, a: int, r: int, p: int
) -> tuple[ModuleDescriptor, ModuleDescriptor] | None:
    """The witness pair of the unicity shape headed by J(a) with r trivial
    blocks, if it is one of the four exceptions, else None.  Within a
    family the first matching rule wins."""

    def irr(*factors, kind=Irr):
        """An Irr (or, with kind=Doubled, a Doubled) of the tensor product
        of L(w)^{F^a} over the (w, a) factors."""
        return kind(IrreducibleDescriptor(tuple(IrreducibleFactor(w, a) for w, a in factors)))

    def triv(r):
        return (Trivial(r),) if r > 0 else ()

    if family is Family.SP:
        if a == p:  # (p, p, 1^r)
            first = (irr((p - 1, 0), kind=Doubled),) + triv(r)
            second = (irr((1, 0), (p - 1, 1)),) + triv(r)
        elif a == 3 and r > 0:  # (3, 3, 1^r)
            first = (irr((2, 0), kind=Doubled), Trivial(r))
            second = (irr((1, 0), (1, 1), kind=Doubled),) + triv(r - 2)
        else:
            return None
    elif family is Family.SL and a == p and r > 0:  # (p, 1^r)
        first = (irr((p - 1, 0)), Trivial(r))
        second = (Weyl(p),) + triv(r - 1)
    elif a == 3 and r > 0:  # (3, 1^r) in SL or SO
        first = (irr((2, 0)), Trivial(r))
        second = (irr((1, 0), (1, 1)),) + triv(r - 1)
    else:
        return None
    return ModuleDescriptor(first, p), ModuleDescriptor(second, p)


def unicity_verdict(group: GroupFamily, partition: Partition, p: int) -> Verdict:
    """Are all A1-overgroups of an order-p unipotent with these Jordan
    blocks conjugate?"""
    if group.dimension < _MIN_DIM[group.family]:
        return Verdict(
            VerdictKind.OUT_OF_SCOPE,
            reason=f"small rank: {group} below the covered range",
        )
    try:
        validate(group, partition, p)
    except ValidationError as err:
        return Verdict(VerdictKind.OUT_OF_SCOPE, reason=str(err))
    if not is_order_p(partition, p):
        return Verdict(
            VerdictKind.OUT_OF_SCOPE,
            reason=f"largest block {partition.parts[0]} not in [2, p]: "
            "element order is not p",
        )
    parts = partition.parts
    a = parts[0]
    head = 1 if _LONE_OK[group.family][a % 2] else 2
    if parts != (a,) * head + (1,) * (len(parts) - head):
        return Verdict(VerdictKind.NON_UNIQUE)
    pair = _exception_pair(group.family, a, len(parts) - head, p)
    if pair is None:
        return Verdict(VerdictKind.UNIQUE)
    return Verdict(VerdictKind.NON_UNIQUE, witness_pair=pair)


def witnesses(
    group: GroupFamily, partition: Partition, p: int
) -> tuple[ModuleDescriptor, ModuleDescriptor]:
    """Two non-isomorphic module structures both producing this partition,
    for the four shapes that admit an explicit construction.

    Raises a ValidationError subclass for inputs `validate` refuses,
    InvalidQueryError with the verdict's reason for the other inputs the
    classifier calls OutOfScope, and NoWitnessRuleError for partitions
    outside the four shapes.
    """
    validate(group, partition, p)
    v = unicity_verdict(group, partition, p)
    if v.kind is VerdictKind.OUT_OF_SCOPE:
        raise InvalidQueryError(v.reason)
    if v.witness_pair is None:
        raise NoWitnessRuleError(
            f"no explicit witness construction for {group} with blocks ({partition})"
        )
    return v.witness_pair
