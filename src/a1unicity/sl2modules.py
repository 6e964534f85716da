"""Descriptors for the SL2-modules the subgroup constructions use.

A module descriptor is a formal direct sum of summands:

  * Irr    -- a twisted tensor product of restricted irreducibles
              L(c_1)^{F^a_1} x ... x L(c_k)^{F^a_k}, pairwise distinct
              twists a_i, restricted weights 1 <= c_i <= p-1;
  * Doubled -- M + M for an irreducible M (the hyperbolic summand; every
              module here is self-dual so M + M* is recorded this way);
  * Weyl(c), Tilting(c) -- highest weight in [p, 2p-2], the only range
              needed: Weyl has blocks (p, c-p+1), tilting has (p, p);
  * Trivial(r) -- r copies of the trivial module.

The string grammar (whitespace insignificant):

  descriptor := summand ("+" summand)*
  summand    := irr | "2*" irr | "W(" int ")" | "T(" int ")"
              | int "*triv" | "triv"
  irr        := factor ("*" factor)*
  factor     := "L(" int ")" [ "@" int ]

A fixed unipotent element with entries in the prime field is Frobenius-
stable, so twists never change Jordan types; they do change isomorphism
classes of modules, which is what the enumeration cares about.

Each summand kind holds its own facts as methods (dimension, blocks,
sort_key, check, admits, text, check_realizable, matrices), and the
module-level functions fold them over the summands, so a new kind is one
class.  Every sort_key is (is trivial, -dimension, kind rank, (dimension
or weight, weights, twists)), ranking Irr, Doubled, Weyl, Tilting and
Trivial 0 to 4.  Irr and Doubled share _IrrCopies and differ only in
copies; they compute their key and text once, on construction, outside
equality and hashing, and an enumeration listing shares one of each per
atom.  Weyl and Tilting share _HighWeight.  Nothing is cached on
IrreducibleDescriptor.  ModuleDescriptor._checked builds a descriptor
from summands already checked, merged and sorted, as an enumeration
listing has them, without checking them again.  matrices(field)
returns the summand's diagonal blocks for realize, built from
ffmatrix.sym_power, the symmetric powers of the standard unipotent.

The form rules live here once, and the summands' admits, the classifier
and the enumerator ask them: weights_form, lone_copy_admits and
trivial_step.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import total_ordering
from typing import TYPE_CHECKING

from . import ffmatrix
from .errors import (
    DescriptorParseError,
    Frozen,
    NotRealizableError,
    WeightError,
)
from .ffmatrix import PrimeField
from .jordan import JordanType, tensor_multi

if TYPE_CHECKING:
    import numpy as np


class FormType(Enum):
    """Invariant bilinear/quadratic form carried by a module.

    EITHER marks sums (hyperbolic pairs, paired trivials) that carry both
    a symplectic and an orthogonal form; NONE marks sums carrying
    neither.
    """

    SYMPLECTIC = "symplectic"
    ORTHOGONAL = "orthogonal"
    EITHER = "either"
    NONE = "none"


def weights_form(weights) -> FormType:
    """The form of the irreducible with these restricted weights (p odd):
    symplectic iff the total highest weight is odd.  J(a) is L(a - 1)."""
    return FormType.SYMPLECTIC if sum(weights) % 2 else FormType.ORTHOGONAL


def lone_copy_admits(own: FormType, ambient: FormType) -> bool:
    """A lone copy must carry the ambient form, if any, itself; a hyperbolic pair carries both."""
    return own is ambient or ambient is FormType.NONE


def trivial_step(ambient: FormType) -> int:
    """Trivial lines are quadratic, so a symplectic (or EITHER) form pairs them."""
    return 2 if ambient in (FormType.SYMPLECTIC, FormType.EITHER) else 1


@total_ordering
class IrreducibleFactor(Frozen):
    """L(weight) twisted by Frobenius twist times; ordered as the tuple
    (weight, twist)."""

    weight: int
    twist: int

    def __init__(self, weight: int, twist: int = 0):
        if weight < 1:
            raise WeightError(f"factor weight {weight} < 1")
        if twist < 0:
            raise WeightError(f"negative Frobenius twist {twist}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "twist", twist)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.weight, self.twist) < (other.weight, other.twist)


class IrreducibleDescriptor(Frozen):
    """Tensor product of twisted restricted irreducibles.

    Factors are stored sorted by twist; twists must be pairwise distinct
    (otherwise the product is not irreducible).
    """

    factors: tuple[IrreducibleFactor, ...]

    def __init__(self, factors: tuple[IrreducibleFactor, ...]):
        factors = tuple(sorted(factors, key=lambda f: f.twist))
        if not factors:
            raise WeightError("irreducible descriptor needs at least one factor")
        twists = [f.twist for f in factors]
        if len(set(twists)) != len(twists):
            raise WeightError(f"duplicate Frobenius twists in {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def dimension(self) -> int:
        d = 1
        for f in self.factors:
            d *= f.weight + 1
        return d

    @property
    def min_twist(self) -> int:
        return self.factors[0].twist

    @property
    def max_twist(self) -> int:
        return max(f.twist for f in self.factors)

    def shifted(self, s: int) -> "IrreducibleDescriptor":
        return IrreducibleDescriptor(
            tuple(IrreducibleFactor(f.weight, f.twist + s) for f in self.factors)
        )

    def form_type(self) -> FormType:
        return weights_form(f.weight for f in self.factors)

    def jordan_type(self, p: int) -> JordanType:
        return tensor_multi([f.weight + 1 for f in self.factors], p)

    def sort_key(self):
        return (
            self.dimension,
            tuple(f.weight for f in self.factors),
            tuple(f.twist for f in self.factors),
        )


class _IrrCopies(Frozen):
    """Irr (copies = 1) or Doubled (copies = 2) of one irreducible."""

    module: IrreducibleDescriptor

    def __init__(self, module: IrreducibleDescriptor):
        inner = module.sort_key()
        copies = self.copies
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "key", (False, -copies * inner[0], copies - 1, inner))
        object.__setattr__(self, "text", "2*" * (copies - 1) + _format_irr(module))

    def dimension(self, p: int) -> int:
        return -self.key[1]  # the key leads with the negated dimension

    def blocks(self, p: int) -> tuple[int, ...]:
        return self.module.jordan_type(p).blocks * self.copies

    def sort_key(self, p: int):
        return self.key

    def check(self, p: int) -> None:
        for f in self.module.factors:
            if not 1 <= f.weight <= p - 1:
                raise WeightError(f"weight {f.weight} is not restricted for p = {p}")

    def admits(self, form: FormType) -> bool:
        return self.copies == 2 or lone_copy_admits(self.module.form_type(), form)

    def check_realizable(self, p: int) -> None:
        ffmatrix._check_int64_exact(1, p)

    def matrices(self, field) -> list:
        factors = self.module.factors
        out = ffmatrix.sym_power(factors[0].weight, field)
        for f in factors[1:]:
            out = ffmatrix.kronecker(out, ffmatrix.sym_power(f.weight, field), field)
        return [out] * self.copies


class Irr(_IrrCopies):
    copies = 1


class Doubled(_IrrCopies):
    copies = 2


class _HighWeight(Frozen):
    """Weyl(c) or Tilting(c), highest weight c in [p, 2p-2].  Tilting(c)
    is self-dual and takes the parity form of c.  Weyl(c) has head L(c)
    and socle L(2p-2-c) (Jantzen, Part II), so it is not self-dual and
    carries no non-degenerate invariant form."""

    weight: int

    def __init__(self, weight: int):
        object.__setattr__(self, "weight", weight)

    def dimension(self, p: int) -> int:
        return sum(self.blocks(p))

    def check(self, p: int) -> None:
        if not p <= self.weight <= 2 * p - 2:
            raise WeightError(
                f"weight {self.weight} outside [p, 2p-2] = [{p}, {2 * p - 2}]"
            )

    def admits(self, form: FormType) -> bool:
        return lone_copy_admits(weights_form((self.weight,)), form)

    def sort_key(self, p: int):
        return (False, -self.dimension(p), self.rank, (self.weight, (), ()))

    def check_realizable(self, p: int) -> None:
        # the weight is at least p, so the dimension bound refuses the
        # module long before (p-1)^2 reaches 2^63
        pass

    @property
    def text(self) -> str:
        return f"{self.letter}({self.weight})"


class Weyl(_HighWeight):
    rank, letter = 2, "W"

    def blocks(self, p: int) -> tuple[int, ...]:
        return (p, self.weight - p + 1)

    def admits(self, form: FormType) -> bool:
        return form is FormType.NONE

    def matrices(self, field) -> list:
        return [ffmatrix.sym_power(self.weight, field)]


class Tilting(_HighWeight):
    rank, letter = 3, "T"

    def blocks(self, p: int) -> tuple[int, ...]:
        return (p, p)

    def check_realizable(self, p: int) -> None:
        raise NotRealizableError(
            f"T({self.weight}) carries only its Jordan type (p, p); "
            "no matrix model is built"
        )


class Trivial(Frozen):
    multiplicity: int

    def __init__(self, multiplicity: int):
        object.__setattr__(self, "multiplicity", multiplicity)

    def dimension(self, p: int) -> int:
        return self.multiplicity

    def blocks(self, p: int) -> tuple[int, ...]:
        return (1,) * self.multiplicity

    def sort_key(self, p: int):
        return (True, -self.multiplicity, 4, (0, (), ()))

    def check(self, p: int) -> None:
        if self.multiplicity < 1:
            raise WeightError("trivial multiplicity must be >= 1")

    def admits(self, form: FormType) -> bool:
        return self.multiplicity % trivial_step(form) == 0

    @property
    def text(self) -> str:
        return "triv" if self.multiplicity == 1 else f"{self.multiplicity}*triv"

    def check_realizable(self, p: int) -> None:
        pass

    def matrices(self, field) -> list:
        return [ffmatrix.identity(self.multiplicity)]


Summand = Irr | Doubled | Weyl | Tilting | Trivial


class ModuleDescriptor(Frozen):
    """Formal direct sum of summands over a fixed prime p.

    Construction validates weight ranges, merges trivial summands and
    sorts the rest canonically, so equal descriptors compare equal.
    """

    summands: tuple[Summand, ...]
    p: int

    def __init__(self, summands: tuple[Summand, ...], p: int):
        PrimeField(p)
        if not summands:
            raise WeightError("descriptor needs at least one summand")
        merged: list[Summand] = []
        trivial = 0
        for s in summands:
            s.check(p)
            if isinstance(s, Trivial):
                trivial += s.multiplicity
            else:
                merged.append(s)
        if trivial:
            merged.append(Trivial(trivial))
        merged.sort(key=lambda s: s.sort_key(p))
        object.__setattr__(self, "summands", tuple(merged))
        object.__setattr__(self, "p", p)

    @classmethod
    def _checked(cls, summands: tuple[Summand, ...], p: int) -> "ModuleDescriptor":
        """The descriptor of summands that already passed check(p), with
        the trivial ones merged and all in sort_key order, built without
        checking them again."""
        d = object.__new__(cls)
        object.__setattr__(d, "summands", summands)
        object.__setattr__(d, "p", p)
        return d

    @property
    def is_completely_reducible(self) -> bool:
        return not any(isinstance(s, _HighWeight) for s in self.summands)


def dimension(d: ModuleDescriptor) -> int:
    return sum(s.dimension(d.p) for s in d.summands)


def jordan_type(d: ModuleDescriptor) -> JordanType:
    """Jordan type of a fixed nonidentity unipotent acting on d.

    Twists are invisible here: the element has prime-field entries, so
    each Frobenius power acts on it as the identity.
    """
    return JordanType(tuple(b for s in d.summands for b in s.blocks(d.p)), d.p)


def admits_form(d: ModuleDescriptor, form: FormType) -> bool:
    """True if every summand is admissible for the ambient form."""
    return all(s.admits(form) for s in d.summands)


def form_type(d: ModuleDescriptor) -> FormType:
    """Which invariant form the direct sum carries.

    SYMPLECTIC / ORTHOGONAL when exactly one of the two is admissible,
    EITHER when both are (all-hyperbolic sums), NONE when neither is.
    """
    sp = admits_form(d, FormType.SYMPLECTIC)
    so = admits_form(d, FormType.ORTHOGONAL)
    if sp and so:
        return FormType.EITHER
    if sp:
        return FormType.SYMPLECTIC
    if so:
        return FormType.ORTHOGONAL
    return FormType.NONE


def check_realizable(d: ModuleDescriptor) -> None:
    """Raise what realize(d) would raise, from the structure alone.

    Modules above ffmatrix.MAX_DIMENSION raise ShapeError; Tilting
    summands carry no matrix model here and raise NotRealizableError;
    Irr and Doubled summands need (p-1)^2 < 2^63 for exact int64
    products and raise ShapeError otherwise.  A Weyl summand that large
    never gets that far: the dimension bound refuses it first.
    """
    ffmatrix._check_dimension("module", dimension(d))
    for s in d.summands:
        s.check_realizable(d.p)


def realize(d: ModuleDescriptor) -> np.ndarray:
    """Explicit order-p unipotent matrix acting on d over GF(p).

    Each irreducible factor is realized as a symmetric power of the
    standard unipotent and factors are combined by Kronecker products;
    summands are stacked block-diagonally.  Inputs that check_realizable
    rejects raise its error before anything is allocated.
    """
    check_realizable(d)
    field = PrimeField(d.p)
    blocks = [m for s in d.summands for m in s.matrices(field)]
    return ffmatrix.block_diagonal(blocks)


# --- string grammar ------------------------------------------------------

# Pattern sources, compiled by re's own cache on the first parse rather
# than by every process that imports this module.
_FACTOR_RE = r"^L\((\d+)\)(?:@(\d+))?$"
_WEYL_RE = r"^([WT])\((\d+)\)$"
_TRIV_RE = r"^(?:(\d+)\*)?triv$"


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise DescriptorParseError(
            f"integer of {len(digits)} digits is too long"
        ) from None


def _parse_irr(text: str) -> IrreducibleDescriptor:
    factors = []
    for part in text.split("*"):
        m = re.match(_FACTOR_RE, part)
        if not m:
            raise DescriptorParseError(f"bad factor {part!r}")
        factors.append(IrreducibleFactor(_int(m.group(1)), _int(m.group(2) or "0")))
    return IrreducibleDescriptor(tuple(factors))


def parse_descriptor(text: str, p: int) -> ModuleDescriptor:
    """Parse the descriptor grammar; see the module docstring."""
    compact = "".join(text.split())
    if not compact:
        raise DescriptorParseError("empty descriptor")
    summands: list[Summand] = []
    for term in compact.split("+"):
        m = re.match(_TRIV_RE, term)
        if m:
            summands.append(Trivial(_int(m.group(1) or "1")))
            continue
        m = re.match(_WEYL_RE, term)
        if m:
            kind = Weyl if m.group(1) == "W" else Tilting
            summands.append(kind(_int(m.group(2))))
            continue
        if term.startswith("2*"):
            summands.append(Doubled(_parse_irr(term[2:])))
            continue
        summands.append(Irr(_parse_irr(term)))
    return ModuleDescriptor(tuple(summands), p)


def _format_irr(m: IrreducibleDescriptor) -> str:
    return "*".join(f"L({f.weight})" + (f"@{f.twist}" if f.twist else "") for f in m.factors)


def format_descriptor(d: ModuleDescriptor) -> str:
    return "+".join(s.text for s in d.summands)
