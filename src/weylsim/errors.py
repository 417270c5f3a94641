"""Exception types shared across the package."""


class WeylSimError(Exception):
    """Base class for all weylsim errors."""


class DomainError(WeylSimError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class TruncationError(WeylSimError):
    """The requested state or expansion does not fit the truncated space."""


class NonHermitianError(WeylSimError):
    """An operator or expectation value violates a Hermiticity promise."""


class ConvergenceError(WeylSimError):
    """An integrator drifted beyond its conservation tolerance."""


class PositivityError(WeylSimError):
    """A density matrix developed a negative eigenvalue beyond tolerance."""


class FitError(WeylSimError):
    """A least-squares fit left residuals too large to trust the slope."""


class GridError(WeylSimError):
    """A time series is not on the uniform grid an operation requires."""


class RankError(WeylSimError):
    """A fit design matrix is rank deficient."""


class DegenerateError(WeylSimError):
    """The input carries no signal for the requested geometric quantity."""


class ConfigError(WeylSimError):
    """A run configuration file is missing, malformed, or inconsistent."""
