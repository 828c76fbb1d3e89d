"""Exception types shared across the package."""


class LineEmbedError(Exception):
    """Base class for all package-specific errors."""


class GraphError(LineEmbedError, ValueError):
    """Invalid graph construction: range, loop, duplicate or sign-overlap."""


class OrderingError(LineEmbedError, ValueError):
    """A vertex sequence is not a bijection onto 1..n."""


class NotCompleteError(LineEmbedError, ValueError):
    """An operation requiring a complete signed graph got an incomplete one."""


class InfeasibleOrderingError(LineEmbedError, ValueError):
    """An ordering expected to be feasible fails verification."""

    def __init__(self, message, violation=None):
        super().__init__(message)
        self.violation = violation


class ModelError(LineEmbedError, ValueError):
    """An interval model violates a structural invariant."""


class CapExceededError(LineEmbedError, RuntimeError):
    """Instance size exceeds the solver's configured cap."""


class SelfLoopError(LineEmbedError, ValueError):
    """A digraph self-loop reached a stage that cannot encode it."""


class ReductionError(LineEmbedError, ValueError):
    """Invalid input to a reduction or solution-mapping operation."""


class InternalError(LineEmbedError, RuntimeError):
    """A certificate the program produced failed its own check."""


class ParseError(LineEmbedError, ValueError):
    """Malformed instance or certificate text.

    Carries the source name and 1-based line number when known.
    """

    def __init__(self, message, source=None, line=None):
        loc = ""
        if source is not None:
            loc = f"{source}:"
        if line is not None:
            loc += f"{line}:"
        super().__init__(f"{loc} {message}" if loc else message)
        self.source = source
        self.line = line
