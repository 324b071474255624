"""Exception hierarchy shared by all betaeta modules, and ``not_too_deep``,
which turns Python's ``RecursionError`` into the package's ``TermTooDeep``."""

from functools import wraps


class BetaEtaError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BetaEtaError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IllTyped(BetaEtaError):
    """A term construction or check violated the typing rules."""


class UnboundVariable(BetaEtaError):
    pass


class TypeMismatch(BetaEtaError):
    pass


class SideConditionViolated(BetaEtaError):
    """A combinator was requested outside its level constraints."""


class LevelTooSmall(BetaEtaError):
    """A numeral level is below the minimum required by a construction."""


class Overflow(BetaEtaError):
    """A cardinality, code or measure exceeded the configured budget."""


class TooLargeToPrint(Overflow):
    """A term whose types, written out, exceed ``syntax.PRINT_NODES`` was
    printed without a type-alias table."""


class LevelAboveMax(Overflow):
    """A separation needs a numeral level above the caller's ``max_level``."""


class ResourceExhausted(BetaEtaError):
    """Normalization exceeded the configured memory/work budget."""


class TermTooDeep(ResourceExhausted):
    """Python's recursion limit stopped a normalization call."""

    def __init__(self):
        super().__init__("term too deep for the recursive evaluator")


def not_too_deep(fn):
    """``fn``, raising ``TermTooDeep`` instead of a raw ``RecursionError``."""
    @wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise TermTooDeep() from None
    return guarded


class EqualTerms(BetaEtaError):
    """Separation was requested for a provably equal pair."""


class EqualArrows(BetaEtaError):
    """Collapse was requested for a provably equal pair of arrows."""


class NotSeparable(BetaEtaError):
    """No distinguishing model was found within the search budget."""

    def __init__(self, max_base):
        super().__init__(f"no distinguishing model with base <= {max_base}")
        self.max_base = max_base


class IllFormed(BetaEtaError):
    """An arrow term violated the source/target composition rules."""


class IndexOutOfRange(BetaEtaError):
    pass


class BadCertificate(BetaEtaError):
    """A certificate could not be decoded or replayed."""


class UnsupportedSchema(BadCertificate):
    """A certificate envelope states a schema version this reader does not know."""
