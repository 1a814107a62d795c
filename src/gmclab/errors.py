"""Exception types shared across the package, and the parsers of numeric
and object settings that raise them."""


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class GateError(RuntimeError):
    """Raised when a numerical safety gate fails (tail truncation over
    tolerance, negative embedding weights, unresolved oscillation, ...).

    Carries a ``detail`` dict with the offending magnitudes so callers can
    emit machine-readable reports.
    """

    def __init__(self, message, **detail):
        super().__init__(message)
        self.detail = detail


def parse_number(value, convert, name):
    """convert(value) for a numeric setting; a value that does not convert,
    or a bool or non-integral number given for an int, is refused with a
    ValidationError naming the setting."""
    if convert is int and (isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer())):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{name} must be a number, got {value!r}") from None


def parse_object(value, name):
    """A setting that must be a JSON object (a dict), or a ValidationError."""
    if not isinstance(value, dict):
        raise ValidationError(
            f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def parse_count(value, name, least):
    """An integer setting of at least `least`, or a ValidationError."""
    n = parse_number(value, int, name)
    if n < least:
        raise ValidationError(f"{name} must be >= {least}, got {n}")
    return n
