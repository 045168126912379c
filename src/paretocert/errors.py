"""Exception types shared across the package.

The CLI maps these onto exit codes: input and schema problems exit 2,
numerical failures exit 3, and a failed constraint qualification (no
conclusion possible) exits 4.
"""


class AnalysisError(Exception):
    """Base class for every error raised by this package."""


class ExprSyntaxError(AnalysisError):
    """Source text does not match the expression grammar."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        detail = f"{message} (at position {position}"
        if expected:
            detail += f", expected {' | '.join(expected)}"
        detail += ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class NonConstantExponent(ExprSyntaxError):
    """'^' must be followed by a numeric literal."""


class DimensionError(AnalysisError):
    """A variable index or vector length does not match the declared dimensions."""


class DomainError(AnalysisError):
    """Evaluation left the real domain: division by zero, an even root of a
    negative number, or a non-finite intermediate value."""


class NonDifferentiable(AnalysisError):
    """The requested partial derivative does not exist at the point."""


class SchemaError(AnalysisError):
    """A problem document, grid, or schedule is malformed or inconsistent."""


class UnknownBuiltin(AnalysisError):
    """No builtin problem with the requested name."""


class NoConstraintDescription(AnalysisError):
    """The operation needs a criterion-space constraint description and the
    problem does not carry one."""


class InfeasiblePoint(AnalysisError):
    """The reference point violates the constraint description."""


class NotSupported(AnalysisError):
    """Witness construction requires strictly positive support weights."""


class BoxTooSmall(AnalysisError):
    """The witness box must contain the anchor and every sample point."""


class NumericalBreakdown(AnalysisError):
    """The LP solver hit a pivot below tolerance or a singular basis."""


class LicqNotVerified(AnalysisError):
    """The linear independence constraint qualification failed, so the
    obstruction test refuses to conclude."""
