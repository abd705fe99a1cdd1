"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so the hierarchy is part
of the public surface: parse failures, input-validity failures (shape,
Hermiticity, positivity), well-definedness failures of the quotient
construction, and minimality/equivalence failures are distinct.
"""


class CPDilateError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CPDilateError):
    """A serialized file could not be decoded against the schema."""


class NotSquareError(CPDilateError):
    """A square matrix was required."""


class NotPSDError(CPDilateError):
    """A matrix that must be positive semidefinite has a negative
    eigenvalue at kept scale.  For Gram matrices this signals that the
    input map family is not completely n-positive."""


class ShapeMismatchError(CPDilateError):
    """Structurally incompatible objects (instance vs. dilation data)."""


class HermiticityViolationError(CPDilateError):
    """The block map family violates phi_ij(a*) = phi_ji(a)* on basis
    elements, so the induced Gram form would not be Hermitian."""


class WellDefinednessError(CPDilateError):
    """A map defined on a spanning set is inconsistent at the requested
    tolerance.  Theory guarantees consistency for valid inputs, so this
    signals an invalid instance."""


class NotMinimalError(CPDilateError):
    """Dilation data fails the minimality span conditions."""


class InconsistentSpansError(CPDilateError):
    """Two dilations do not match on their spanning families; they are
    not representations of the same instance."""


class DimensionTooSmallError(CPDilateError):
    """Requested dimensions cannot host the construction."""


class DimensionTooLargeError(CPDilateError):
    """Requested dimensions exceed the documented guardrails."""
