"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An input parameter violates its documented domain.

    ``param`` names the offending parameter so front ends can point at the
    exact flag or field that was rejected.
    """

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


class ResourceLimitError(RuntimeError):
    """A request exceeds a configured resource cap (e.g. trial budget)."""


def check_positive_int(value, name: str) -> int:
    """Return ``value`` if it is an int >= 1 (bools excluded), else raise.

    The ParameterError names ``name`` so front ends can map it to a flag.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParameterError(name, f"{name} must be a positive integer, got {value!r}")
    return value
