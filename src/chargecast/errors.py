"""Error types shared across the package.

The command-line layer maps these onto process exit codes; library code
raises them directly so callers can tell configuration, data, and numeric
problems apart.
"""

__all__ = ["ChargecastError", "ConfigError", "DataError", "NumericError"]


class ChargecastError(Exception):
    """Base class for package errors."""


class ConfigError(ChargecastError):
    """Invalid or inconsistent configuration (exit code 2)."""


class DataError(ChargecastError):
    """Malformed or missing input data (exit code 3)."""


class NumericError(ChargecastError):
    """Numeric failure such as divergence during training (exit code 4)."""
