"""Exception types shared across the package."""


class NaenumError(Exception):
    """Base class for all errors raised by this package."""


class DimacsError(NaenumError):
    """Malformed DIMACS input. Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TautologyError(NaenumError):
    """A clause contains a variable both positively and negatively."""


class WidthError(NaenumError):
    """A clause is wider than the width-3 limit of the search engine."""


class InputNotClosed(NaenumError):
    """The engine requires a negation-closed formula."""


class PreconditionViolated(NaenumError):
    """A satisfying assignment of weight below the target exists."""


class BudgetExceeded(NaenumError):
    """The exhaustive-orderings product exceeds the configured budget."""


class OracleRefused(NaenumError):
    """The brute-force oracle refuses instances beyond its size limit."""


class ParameterError(NaenumError):
    """Inconsistent or out-of-range parameters, including a target weight t
    whose search would recurse deeper than the interpreter's limit."""


class InternalInvariantError(NaenumError):
    """A structural property that the search relies on failed without a
    constructive repair; this indicates a bug, not bad input."""
