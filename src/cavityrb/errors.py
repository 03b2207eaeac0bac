"""Exception types shared across the package."""


class CavityError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(CavityError):
    """Invalid mesh or mapping (non-positive Jacobian, bad topology, ...)."""


class NumericalError(CavityError):
    """A numerical operation failed (factorization, missing eigenvalues, ...)."""


class RankDeficiencyError(NumericalError):
    """A basis construction ran out of numerical rank.

    Carries the achievable basis size in ``achievable``.
    """

    def __init__(self, message, achievable):
        super().__init__(message)
        self.achievable = achievable


class SingularDerivativeError(NumericalError):
    """The bordered derivative system is numerically singular, typically
    because of a multiple eigenvalue."""


class ConfigError(CavityError):
    """Invalid run configuration (unknown key, bad value, schema mismatch)."""
