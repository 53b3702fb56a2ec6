"""Exception hierarchy shared across the package.

Two broad families matter to callers: input problems (bad data, violated
preconditions) and numerical breakdowns (an algorithm could not deliver a
trustworthy answer).  The command line maps the first family to exit code 2
and the second to exit code 3.
"""

from __future__ import annotations


class ErgocertError(Exception):
    """Base class for all package errors."""


class InputError(ErgocertError):
    """Invalid input or violated precondition."""


class DimensionMismatch(InputError):
    """Operands live on different block structures."""


class InvalidExponent(InputError):
    """Norm exponent outside [1, inf]."""


class DomainError(InputError):
    """Scalar function undefined at an eigenvalue of its argument."""


class NotFaithful(InputError):
    """Density matrix is singular or indefinite."""


class NotNormalized(InputError):
    """Density matrix trace is not 1."""


class IllConditioned(InputError):
    """Density matrix condition number exceeds the supported range."""


class NotStochastic(InputError):
    """Matrix is not entrywise nonnegative with unit row sums."""


class NotSubInvariant(InputError):
    """Probability vector is not sub-invariant under the kernel."""


class NotSubalgebra(InputError):
    """Partition data does not describe a unital *-subalgebra."""


class NotTracial(InputError):
    """Weight is not the tracial weight."""


class ConditionsNotMet(InputError):
    """Map failed the contraction/positivity/absorption checks."""


class ScenarioError(InputError):
    """Scenario or report file is malformed, or cannot be read or written."""


class NumericalBreakdown(ErgocertError):
    """An algorithm could not produce a trustworthy result."""


class NonConvergence(NumericalBreakdown):
    """Eigensolver failed or reconstruction check failed."""


class AmbiguousSpectralCut(NumericalBreakdown):
    """Eigenvalue sits within tolerance of a spectral cut in strict mode."""


class GenerationFailure(NumericalBreakdown):
    """Random instance generation exhausted its attempt budget."""


class NoStableLimit(NumericalBreakdown):
    """Projection sequence did not stabilize within the horizon.

    Carries the limit diagnostics gathered so far in ``diagnostics``.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
