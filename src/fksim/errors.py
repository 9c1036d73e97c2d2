"""Shared exception types, and the one rule for a nonnegative real: every
time, jump rate, exponent, scale and variance of the package is checked by
``check_nonnegative``."""

from math import isfinite


class ConfigError(ValueError):
    """Bad configuration value or config file."""


class DomainError(ValueError):
    """Argument outside the validity region of a formula."""


class InputError(ValueError):
    """Missing or inconsistent input data (vertices, field values)."""


class NumericalError(RuntimeError):
    """Numerical routine failed (factorization, overflow, non-convergence)."""


def check_nonnegative(value, name="t", *, positive=False):
    """``value``, a real that is finite and >= 0 (> 0 if ``positive``);
    any other raises ``DomainError`` naming ``name`` and the value."""
    if not isfinite(value):
        raise DomainError(f"{name} = {value!r} is not finite")
    if value < 0 or positive and value == 0:
        rule = "positive" if positive else ">= 0"
        raise DomainError(f"{name} must be {rule}, got {value!r}")
    return value
