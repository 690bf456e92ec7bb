"""Exception types shared across the package.

Every error may name the line of a graph file it was raised for: `line` is
that line number, or None, and the message then starts with `line L: `.
"""


class SystemicError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphFormatError(SystemicError):
    """Malformed edge-list input (syntax, duplicate edge, self-loop, bad index)."""


class DimensionError(SystemicError):
    """Operands have incompatible sizes."""


class DomainError(SystemicError):
    """A parameter is outside its admissible range."""


class ConnectivityError(SystemicError):
    """The graph (or matrix) is disconnected where connectivity is required."""


class NumericalError(SystemicError):
    """A numerical procedure failed or missed its accuracy bounds."""


class GenerationError(SystemicError):
    """Random graph generation exhausted its retry budget."""


class ScaleError(SystemicError):
    """Problem size exceeds what exhaustive enumeration or a dense matrix supports."""


class ConfigError(SystemicError):
    """A configuration object violates one of its invariants."""


class InputError(SystemicError):
    """An input collection is unusable (for example, empty candidate sets)."""
