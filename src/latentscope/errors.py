"""Exception hierarchy shared across the package.

`cli.main` maps these onto process exit codes:

    ConfigError -> 2
    DependencyError, FormatError -> 3 (missing, stale or malformed artifact)
    NumericError, DegenerateInputError, ShapeError -> 4
"""


class LatentScopeError(Exception):
    """Base class for all package errors."""


class ConfigError(LatentScopeError):
    """Invalid configuration value or malformed config file."""


class ShapeError(LatentScopeError):
    """Array dimensions incompatible with the requested operation."""


class FormatError(LatentScopeError):
    """Malformed or truncated artifact file."""


class DependencyError(LatentScopeError):
    """Missing or stale upstream pipeline artifact."""


class NumericError(LatentScopeError):
    """Non-finite values encountered where finite arithmetic is required."""


class DegenerateInputError(LatentScopeError):
    """Statistically degenerate input (constant vector, empty class, ...)."""
