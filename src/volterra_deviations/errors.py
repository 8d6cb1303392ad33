"""Exception hierarchy shared by all modules.

Domain errors (bad inputs, unattainable requests detected at run time) derive
from :class:`DomainError`; configuration/schema problems derive from
:class:`ConfigError`.  The CLI maps the former to exit code 1 and the latter
to exit code 2.
"""

__all__ = ["DomainError", "ConfigError"]


class DomainError(Exception):
    """Base class for run-time domain violations."""


class ConfigError(Exception):
    """Malformed or schema-violating configuration input."""


class SingularAtZero(DomainError):
    """Singular kernel evaluated at t = 0."""


class WrongVariant(DomainError):
    """Operation not defined for this kernel variant."""


class KernelDomainError(DomainError):
    """Kernel or grid argument outside its domain.

    Raised for a non-convolution kernel evaluated outside 0 < s < t and for a
    time that should be a grid node but is not.
    """


class NoConvergence(DomainError):
    """Picard iteration stalled before reaching tolerance."""

    def __init__(self, iterations: int, last_residual: float):
        self.iterations = iterations
        self.last_residual = last_residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last residual {last_residual:.3e})"
        )


class NegativeArgument(DomainError):
    """Square-root field hit a negative iterate under continue_positive."""


class InvalidModel(DomainError):
    """Model parameters violate the catalogued constraints."""


class FactorizationFailure(DomainError):
    """Covariance matrix not factorizable even after regularization."""


class NotApplicable(DomainError):
    """Closed-form rate not applicable (zeta vanishes with rho != 0)."""


class NegativePath(DomainError):
    """Path required to be nonnegative dips below -1e-12."""


class DegenerateCoefficients(DomainError):
    """Sigma(y0) * zeta(y0) = 0 where a nondegenerate value is required."""


class SolverFailure(DomainError):
    """Variational solver failed to satisfy the terminal constraint."""

    def __init__(self, message: str, best_value: float | None = None):
        self.best_value = best_value
        super().__init__(message)


class SingularL(DomainError):
    """Needed diagonal entry of the multifactor loading matrix is zero."""


class PriceOutOfBounds(DomainError):
    """Option price outside the no-arbitrage interval."""


class RateUnavailable(DomainError):
    """Rate value needed by a smile formula could not be computed."""


class InsufficientHits(DomainError):
    """Too few event hits at some epsilon level for a stable slope fit."""
