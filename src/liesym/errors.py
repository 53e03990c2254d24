"""Exception types shared across the package."""


class LiesymError(Exception):
    """Base class for all package-specific errors."""


class ParseError(LiesymError):
    """Raised when an expression or input file cannot be parsed."""


class UnboundSymbol(LiesymError):
    """A symbol needed during evaluation has no bound value."""


class DivisionByZero(LiesymError):
    """A denominator is structurally zero or vanishes at the point."""


class OpaqueNoDerivative(LiesymError):
    """An opaque function leaf was differentiated but has no derivative."""


class OpaqueNoEvaluator(LiesymError):
    """An opaque function leaf was evaluated but has no evaluator."""


class OpaqueSubstitution(LiesymError):
    """A non-symbol expression was substituted into an opaque argument."""


class DimensionMismatch(LiesymError):
    """Vector fields or systems defined over incompatible coordinates."""


class NotVertical(LiesymError):
    """A field expected to have no time components has one."""


class NotClosed(LiesymError):
    """A bracket of basis fields left the span of the basis."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DependentBasis(LiesymError):
    """The provided fields are linearly dependent over the reals."""


class PoleEncountered(LiesymError):
    """Integration aborted: right-hand side blew up or hit an excluded locus."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class StepNotPositive(LiesymError):
    """A step size must be strictly positive."""


class GridEmpty(LiesymError):
    """A sample grid for residual evaluation contains no points."""


class MissingDerivative(LiesymError):
    """A candidate or coefficient lacks a required derivative channel."""


class QuadratureDiverged(LiesymError):
    """A quadrature produced a non-finite value."""


class TransportLeftDomain(LiesymError):
    """Flow transport moved a sample point outside the valid domain."""


class NotIntegrable(LiesymError):
    """A PDE Lie system fails its zero-curvature compatibility condition.

    source_curvature is the curvature report of the system the builder
    was given, when it got that far.
    """

    def __init__(self, message, residual=None, source_curvature=None):
        super().__init__(message)
        self.residual = residual
        self.source_curvature = source_curvature


class UnknownName(LiesymError):
    """No catalog entry or registry entry under the requested name."""


class BadParams(LiesymError):
    """Catalog entry instantiated with invalid parameters."""


class FixtureMissing(LiesymError):
    """A special-function fixture is required but was not provided."""
