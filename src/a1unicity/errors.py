"""Exception types and the verdict kinds shared across the package.

Every domain failure derives from DomainError so the CLI can map it to a
single exit code; usage mistakes (malformed flags) are left to argparse.
VerdictKind lives here because both the classical classifier and the
exceptional atlas answer with it, and neither should load the other.
"""

from enum import Enum


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
    """Matrix shape incompatible with the requested operation."""


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
