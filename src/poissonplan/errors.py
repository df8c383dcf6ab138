"""Exception types and the input contract shared across the package.

Every public function answers correctly or raises ParameterError naming the
rejected argument (ResourceLimitError for a valid request past a cap).  Each
input is checked once, where the library takes it: by check_positive_int,
check_positive_real (finite and > 0; no function answers at inf) or
check_unit_interval (inside (0, 1)), then by any relational condition such
as lam > epsilon inline.  An integer past the double range is valid and
enters products through ``scaled``.  The command line maps ``param`` to
its flag.
"""

import math


class ParameterError(ValueError):
    """An input parameter violates its documented domain.

    ``param`` names the offending parameter so front ends can point at the
    exact flag or field that was rejected.
    """

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


class ResourceLimitError(RuntimeError):
    """A request exceeds a configured resource cap; ``param`` names the input, if one does."""

    def __init__(self, message: str, param=None):
        super().__init__(message)
        self.param = param


def check_positive_int(value, name: str) -> int:
    """Return ``value`` if it is an int >= 1, not a bool; else raise ParameterError for ``name``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParameterError(name, f"{name} must be a positive integer, got {value!r}")
    return value


def check_positive_real(value, name: str):
    """Return ``value`` if it is finite and > 0; else raise ParameterError for ``name``."""
    if not 0.0 < value < math.inf:
        raise ParameterError(name, f"{name} must be finite and > 0, got {value!r}")
    return value


def check_unit_interval(value, name: str):
    """Return ``value`` if it lies inside (0, 1); else raise ParameterError for ``name``."""
    if not 0.0 < value < 1.0:
        raise ParameterError(name, f"{name} must be in (0, 1), got {value!r}")
    return value


def scaled(n: int, x: float) -> float:
    """n*x for an integer n >= 0; past the double range, the limit x*inf (0 at x = 0)."""
    try:
        return n * x
    except OverflowError:
        return x * math.inf if x else x
