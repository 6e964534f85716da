"""Exception types, the verdict kinds and the frozen-value base shared
across the package.

Every domain failure derives from DomainError so the CLI can map it to a
single exit code; usage mistakes (malformed flags) are left to argparse.
VerdictKind lives here because both the classical classifier and the
exceptional atlas answer with it, and neither should load the other.
Frozen lives here because every module imports this one.
"""

from enum import Enum
from operator import attrgetter


class Frozen:
    """Base of the package's immutable values.

    A subclass declares its fields as class annotations, after those of
    its bases, and an __init__ that checks its arguments and stores each
    field with object.__setattr__, so construction costs no more than
    the checks and the stores.  (Writing to self.__dict__ instead would
    give each instance a dict of its own in place of CPython's compact
    attribute storage, and make it larger and slower to read.)
    Instances are equal when they are of one class and their fields
    are equal, hash as the tuple of their fields, print as
    Name(field=value, ...) and refuse every assignment and deletion with
    the stdlib FrozenInstanceError.  A field whose name starts with "_"
    is stored but neither compared, hashed nor printed.  Instances have
    no __slots__, so attributes derived on construction and
    functools.cached_property work as on any class.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = {}
        for base in reversed(cls.__mro__):
            names.update(dict.fromkeys(base.__dict__.get("__annotations__", ())))
        cls._fields = tuple(n for n in names if not n.startswith("_"))
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        _refuse("assign to", name)

    def __delattr__(self, name):
        _refuse("delete", name)


def _refuse(action: str, name: str):
    from dataclasses import FrozenInstanceError  # loaded only on this error path

    raise FrozenInstanceError(f"cannot {action} field {name!r}")


class VerdictKind(str, Enum):
    UNIQUE = "Unique"
    NON_UNIQUE = "NonUnique"
    OUT_OF_SCOPE = "OutOfScope"
    BAD_PRIME = "BadPrime"
    UNKNOWN_LABEL = "UnknownLabel"


class DomainError(Exception):
    """Base class for all domain-level failures."""


class NotPrimeError(DomainError):
    """A field characteristic that is not a prime number."""


class OrderExceedsPError(DomainError):
    """A Jordan block of size > p, i.e. a unipotent element of order > p."""


class EmptyMatrixError(DomainError):
    """A zero-dimensional matrix was requested."""


class ShapeError(DomainError):
    """Matrix shape, size or entries incompatible with the requested
    operation, including an entry that is not an integer."""


class NotOrderPError(DomainError):
    """Input matrix is not unipotent of order dividing p."""


class PrimeMismatchError(DomainError):
    """Two Jordan types over different primes were combined."""


class WeightError(DomainError):
    """Module weight outside the admissible range (restricted weights are
    1..p-1; Weyl/tilting weights live in [p, 2p-2])."""


class DescriptorParseError(DomainError):
    """Malformed module-descriptor string."""


class NotRealizableError(DomainError):
    """Descriptor contains a summand with no matrix model (tilting)."""


class NotCompletelyReducibleError(DomainError):
    """Descriptor contains a Weyl or tilting summand where a completely
    reducible module is required."""


class InvalidQueryError(DomainError):
    """Enumeration or classification query violates a precondition."""


class ValidationError(DomainError):
    """Base class for partition-versus-group validation failures."""


class BadPrimeError(ValidationError):
    """Characteristic not allowed for the group in question."""


class DimensionMismatchError(ValidationError):
    """Partition does not sum to the natural-module dimension."""


class ParityViolationError(ValidationError):
    """Block multiplicities incompatible with the invariant form."""


class IdentityElementError(ValidationError):
    """The all-ones partition (identity element) is not classified."""


class NoWitnessRuleError(DomainError):
    """No explicit witness construction is attached to this partition."""


class UnknownLabelError(DomainError):
    """Unipotent class label not recognised for the given group."""
