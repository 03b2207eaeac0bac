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
    """The eigenpair derivative is undefined: the mode lies in a
    multiplicity cluster of its window (a multiple eigenvalue)."""


class ConfigError(CavityError, ValueError):
    """Invalid run configuration (unknown key, bad value, schema mismatch),
    also a ValueError; ``key`` names the field a ``require`` check rejected."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


def require(ok, key: str, rule: str, value) -> None:
    """Raise ConfigError("<key> <rule>, got <value>") unless ok; NaN fails."""
    if not ok:
        raise ConfigError(f"{key} {rule}, got {value!r}", key)
