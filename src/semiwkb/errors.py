"""Exception taxonomy shared across the package."""


class SemiwkbError(Exception):
    """Base class for all package errors."""


class ParameterError(SemiwkbError, ValueError):
    """An argument is outside its admissible range."""


class DomainError(SemiwkbError, ValueError):
    """Input data violates a mathematical precondition (e.g. negative density)."""


class UnsupportedConfigurationError(SemiwkbError, ValueError):
    """The requested (n, lambda, ...) combination has no defined answer."""


class ContractError(SemiwkbError, RuntimeError):
    """An operation was called on data that does not satisfy its contract."""


class ResolutionError(SemiwkbError, RuntimeError):
    """The grid cannot resolve the requested computation."""


class StepRejectionError(SemiwkbError, RuntimeError):
    """A time step violates the stability rule of the chosen scheme."""


class ConfigError(SemiwkbError, ValueError):
    """An experiment configuration failed validation."""


class ConvergenceError(SemiwkbError, RuntimeError):
    """An iterative solve ended without meeting its convergence tolerance."""
