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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from . import ffmatrix
from .errors import (
    DescriptorParseError,
    NotRealizableError,
    ShapeError,
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


@dataclass(frozen=True, order=True)
class IrreducibleFactor:
    weight: int
    twist: int = 0

    def __post_init__(self):
        if self.weight < 1:
            raise WeightError(f"factor weight {self.weight} < 1")
        if self.twist < 0:
            raise WeightError(f"negative Frobenius twist {self.twist}")


@dataclass(frozen=True)
class IrreducibleDescriptor:
    """Tensor product of twisted restricted irreducibles.

    Factors are stored sorted by twist; twists must be pairwise distinct
    (otherwise the product is not irreducible).
    """

    factors: tuple[IrreducibleFactor, ...]

    def __post_init__(self):
        factors = tuple(sorted(self.factors, key=lambda f: f.twist))
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
    def weight_sum(self) -> int:
        return sum(f.weight for f in self.factors)

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
        """Symplectic iff the total highest weight is odd (p odd)."""
        return FormType.SYMPLECTIC if self.weight_sum % 2 else FormType.ORTHOGONAL

    def jordan_type(self, p: int) -> JordanType:
        return tensor_multi([f.weight + 1 for f in self.factors], p)

    def sort_key(self):
        return (
            self.dimension,
            tuple(f.weight for f in self.factors),
            tuple(f.twist for f in self.factors),
        )


@dataclass(frozen=True)
class Irr:
    module: IrreducibleDescriptor


@dataclass(frozen=True)
class Doubled:
    module: IrreducibleDescriptor


@dataclass(frozen=True)
class Weyl:
    weight: int


@dataclass(frozen=True)
class Tilting:
    weight: int


@dataclass(frozen=True)
class Trivial:
    multiplicity: int


Summand = Irr | Doubled | Weyl | Tilting | Trivial

_KIND_RANK = {Irr: 0, Doubled: 1, Weyl: 2, Tilting: 3, Trivial: 4}


def summand_dimension(s: Summand, p: int) -> int:
    if isinstance(s, Irr):
        return s.module.dimension
    if isinstance(s, Doubled):
        return 2 * s.module.dimension
    if isinstance(s, Weyl):
        return s.weight + 1
    if isinstance(s, Tilting):
        return 2 * p
    return s.multiplicity


def _summand_key(s: Summand, p: int):
    if isinstance(s, (Irr, Doubled)):
        inner = s.module.sort_key()
    elif isinstance(s, Trivial):
        inner = (0, (), ())
    else:
        inner = (s.weight, (), ())
    return (
        isinstance(s, Trivial),
        -summand_dimension(s, p),
        _KIND_RANK[type(s)],
        inner,
    )


@dataclass(frozen=True)
class ModuleDescriptor:
    """Formal direct sum of summands over a fixed prime p.

    Construction validates weight ranges, merges trivial summands and
    sorts the rest canonically, so equal descriptors compare equal.
    """

    summands: tuple[Summand, ...]
    p: int

    def __post_init__(self):
        PrimeField(self.p)
        if not self.summands:
            raise WeightError("descriptor needs at least one summand")
        merged: list[Summand] = []
        trivial = 0
        for s in self.summands:
            if isinstance(s, Trivial):
                if s.multiplicity < 1:
                    raise WeightError("trivial multiplicity must be >= 1")
                trivial += s.multiplicity
            else:
                self._check_summand(s)
                merged.append(s)
        if trivial:
            merged.append(Trivial(trivial))
        merged.sort(key=lambda s: _summand_key(s, self.p))
        object.__setattr__(self, "summands", tuple(merged))

    def _check_summand(self, s: Summand):
        if isinstance(s, (Irr, Doubled)):
            for f in s.module.factors:
                if not 1 <= f.weight <= self.p - 1:
                    raise WeightError(
                        f"weight {f.weight} is not restricted for p = {self.p}"
                    )
        elif isinstance(s, (Weyl, Tilting)):
            if not self.p <= s.weight <= 2 * self.p - 2:
                raise WeightError(
                    f"weight {s.weight} outside [p, 2p-2] = "
                    f"[{self.p}, {2 * self.p - 2}]"
                )

    @property
    def is_completely_reducible(self) -> bool:
        return not any(isinstance(s, (Weyl, Tilting)) for s in self.summands)


def dimension(d: ModuleDescriptor) -> int:
    return sum(summand_dimension(s, d.p) for s in d.summands)


def jordan_type(d: ModuleDescriptor) -> JordanType:
    """Jordan type of a fixed nonidentity unipotent acting on d.

    Twists are invisible here: the element has prime-field entries, so
    each Frobenius power acts on it as the identity.
    """
    blocks: list[int] = []
    for s in d.summands:
        if isinstance(s, Irr):
            blocks.extend(s.module.jordan_type(d.p).blocks)
        elif isinstance(s, Doubled):
            blocks.extend(s.module.jordan_type(d.p).blocks * 2)
        elif isinstance(s, Weyl):
            blocks.extend((d.p, s.weight - d.p + 1))
        elif isinstance(s, Tilting):
            blocks.extend((d.p, d.p))
        else:
            blocks.extend([1] * s.multiplicity)
    return JordanType(tuple(blocks), d.p)


def _summand_admits(s: Summand, form: FormType) -> bool:
    if form is FormType.NONE:
        return True
    if isinstance(s, Irr):
        return s.module.form_type() is form
    if isinstance(s, Doubled):
        # hyperbolic pair: carries both a symplectic and an orthogonal form
        return True
    if isinstance(s, Trivial):
        # single trivial summands are quadratic spaces; a symplectic form
        # needs them in pairs
        return form is FormType.ORTHOGONAL or s.multiplicity % 2 == 0
    # Weyl/Tilting: parity of the highest weight, as for irreducibles.
    # These forms need not split off non-degenerately; only witness
    # checking consults them, never the enumeration.
    parity = FormType.SYMPLECTIC if s.weight % 2 else FormType.ORTHOGONAL
    return parity is form


def admits_form(d: ModuleDescriptor, form: FormType) -> bool:
    """True if every summand is admissible for the ambient form."""
    return all(_summand_admits(s, form) for s in d.summands)


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
    any summand built from symmetric powers needs (p-1)^2 < 2^63 for
    exact int64 products and raises ShapeError otherwise.
    """
    dim = dimension(d)
    if dim > ffmatrix.MAX_DIMENSION:
        raise ShapeError(
            f"module dimension {dim} exceeds the configured bound "
            f"{ffmatrix.MAX_DIMENSION}"
        )
    for s in d.summands:
        if isinstance(s, Tilting):
            raise NotRealizableError(
                f"T({s.weight}) carries only its Jordan type (p, p); "
                "no matrix model is built"
            )
    if not all(isinstance(s, Trivial) for s in d.summands):
        ffmatrix._check_int64_exact(1, d.p)


def realize(d: ModuleDescriptor) -> np.ndarray:
    """Explicit order-p unipotent matrix acting on d over GF(p).

    Each irreducible factor is realized as a symmetric power of the
    standard unipotent and factors are combined by Kronecker products;
    summands are stacked block-diagonally.  Inputs that check_realizable
    rejects raise its error before anything is allocated.
    """
    check_realizable(d)
    field = PrimeField(d.p)
    u = ffmatrix.unipotent_jordan_block(field, 2)

    def irr_matrix(m: IrreducibleDescriptor) -> np.ndarray:
        out = ffmatrix.sym_power(u, m.factors[0].weight, field)
        for f in m.factors[1:]:
            out = ffmatrix.kronecker(out, ffmatrix.sym_power(u, f.weight, field), field)
        return out

    blocks = []
    for s in d.summands:
        if isinstance(s, Irr):
            blocks.append(irr_matrix(s.module))
        elif isinstance(s, Doubled):
            m = irr_matrix(s.module)
            blocks.extend((m, m))
        elif isinstance(s, Weyl):
            blocks.append(ffmatrix.sym_power(u, s.weight, field))
        else:
            blocks.append(ffmatrix.identity(s.multiplicity))
    return ffmatrix.block_diagonal(blocks, field)


# --- string grammar ------------------------------------------------------

_FACTOR_RE = re.compile(r"^L\((\d+)\)(?:@(\d+))?$")
_WEYL_RE = re.compile(r"^([WT])\((\d+)\)$")
_TRIV_RE = re.compile(r"^(?:(\d+)\*)?triv$")


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
        m = _FACTOR_RE.match(part)
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
        m = _TRIV_RE.match(term)
        if m:
            summands.append(Trivial(_int(m.group(1) or "1")))
            continue
        m = _WEYL_RE.match(term)
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
    parts = []
    for f in m.factors:
        parts.append(f"L({f.weight})" + (f"@{f.twist}" if f.twist else ""))
    return "*".join(parts)


def format_descriptor(d: ModuleDescriptor) -> str:
    out = []
    for s in d.summands:
        if isinstance(s, Irr):
            out.append(_format_irr(s.module))
        elif isinstance(s, Doubled):
            out.append("2*" + _format_irr(s.module))
        elif isinstance(s, Weyl):
            out.append(f"W({s.weight})")
        elif isinstance(s, Tilting):
            out.append(f"T({s.weight})")
        else:
            out.append("triv" if s.multiplicity == 1 else f"{s.multiplicity}*triv")
    return "+".join(out)
