"""Error taxonomy shared across the package.

Each class marks one failure kind so callers (and the CLI exit-code
mapping) can react without parsing message text. ``check_int_fields`` is
the integer-field check the config dataclasses share.
"""


class DrcBenchError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DrcBenchError, ValueError):
    """A parameter value lies outside its documented range.

    ``field``, when given, names the offending parameter, so a config loader
    can point at its dotted path.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


def check_int_fields(obj, minimum: dict[str, int], optional: tuple[str, ...] = ()) -> None:
    """Raise ``DomainError`` naming the first field of ``obj`` that is not an int >= its minimum.

    Bools are not ints here; a field listed in ``optional`` may also be None.
    """
    for name, lo in minimum.items():
        value = getattr(obj, name)
        if value is None and name in optional:
            continue
        if isinstance(value, int) and not isinstance(value, bool) and value >= lo:
            continue
        bound = f"an int >= {lo}" + (" or None" if name in optional else "")
        raise DomainError(f"{name} must be {bound}, got {value!r}", field=name)


class RecipeError(DrcBenchError, ValueError):
    """A loop recipe asks for something the generators cannot produce."""


class FormatError(DrcBenchError, ValueError):
    """A serialized artifact (WAV, manifest, matrix, checkpoint) is malformed."""


class SizeError(DrcBenchError, ValueError):
    """An input is too short/small for the requested transform."""


class ShapeError(DrcBenchError, ValueError):
    """Array shapes cannot be chained through the requested operation."""


class NumericError(DrcBenchError, ArithmeticError):
    """A computation produced NaN/Inf or otherwise left the finite domain."""


class GraphError(DrcBenchError, RuntimeError):
    """The autodiff graph was used in an unsupported way."""


class DataError(DrcBenchError, ValueError):
    """Feature/label tables are inconsistent (length mismatch, NaN, ...)."""


class ProtocolError(DrcBenchError, ValueError):
    """An evaluation protocol precondition is violated (e.g. too few groups)."""


class ConfigError(DrcBenchError, ValueError):
    """A user-supplied configuration value is missing or invalid.

    ``field`` names the offending entry with a dotted path so command-line
    feedback can point at it directly.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
