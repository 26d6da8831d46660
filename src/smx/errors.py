"""Exception types shared across the toolkit.

Every error raised on bad data or violated contracts derives from SmxError,
so callers (and the CLI) can distinguish data problems from plain bugs.
"""


class SmxError(Exception):
    """Base class for all toolkit errors."""


class ParseError(SmxError):
    """Malformed or unreadable input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ClassificationError(SmxError):
    """A node is used both as a class and as an instance."""


class ResolutionError(ParseError):
    """An identifier does not resolve against the loaded graph; one read
    from a numbered input line names that line."""


class UnknownNodeError(SmxError):
    """Lookup of a node that is not part of the structure queried."""


class CycleError(SmxError):
    """The subClassOf subgraph contains a cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("subClassOf cycle: " + " < ".join(self.cycle))


class ContractError(SmxError):
    """A call violates a documented precondition or invariant."""


class UsageError(SmxError):
    """Class-usage statistics are missing or unusable."""


class InfiniteICError(SmxError):
    """Extrinsic information content is undefined for an unused class."""


class DegenerateTaxonomyError(SmxError):
    """The taxonomy is too small for the requested estimator."""


class RedundancyError(SmxError):
    """A path-based measure was asked to run on a non-reduced taxonomy.

    Redundant subClassOf edges shortcut shortest paths and silently
    underestimate taxonomic distances, so path-based measures refuse them.
    """


class DivergenceError(SmxError):
    """A random walk does not reach its target with probability one."""


class InfinityError(SmxError):
    """A conversion or a score produced an infinite or NaN value (e.g.
    neg-log of zero)."""


class UndefinedCorrelationError(SmxError):
    """Correlation is undefined (series too short or constant)."""
