"""Exception hierarchy shared by all betaeta modules, and ``not_too_deep``,
which turns Python's ``RecursionError`` into the package's ``TermTooDeep``.
A family's outcome on the command line is class data, ``exit_code`` and the
stderr prefix ``label``; a class that states neither has its parent's."""

from functools import wraps


class BetaEtaError(Exception):
    """Base class for all errors raised by this package."""
    exit_code, label = 1, ""


# the outcomes that several families share
_TYPE = 3, "type error: "
_EQUAL = 4, "equal: "
_BUDGET = 5, "budget: "


class ParseError(BetaEtaError):
    exit_code, label = 2, "parse error: "

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IllTyped(BetaEtaError):
    """A term construction or check violated the typing rules."""
    exit_code, label = _TYPE


class UnboundVariable(BetaEtaError):
    exit_code, label = _TYPE


class TypeMismatch(BetaEtaError):
    exit_code, label = _TYPE


class SideConditionViolated(BetaEtaError):
    """A combinator was requested outside its level constraints."""
    exit_code, label = _TYPE


class LevelTooSmall(BetaEtaError):
    """A numeral level is below the minimum required by a construction."""


class Overflow(BetaEtaError):
    """A cardinality, code or measure exceeded the configured budget."""
    exit_code, label = _BUDGET


class TooLargeToPrint(Overflow):
    """A term whose types, written out, exceed ``syntax.PRINT_NODES`` was
    printed without a type-alias table."""


class LevelAboveMax(Overflow):
    """A separation needs a numeral level above the caller's ``max_level``."""
    label = ""  # the message names the option


class ResourceExhausted(BetaEtaError):
    """Normalization exceeded the configured memory/work budget."""
    exit_code, label = _BUDGET


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
    exit_code, label = _EQUAL


class EqualArrows(BetaEtaError):
    """Collapse was requested for a provably equal pair of arrows."""
    exit_code, label = _EQUAL


class NotSeparable(BetaEtaError):
    """No distinguishing model was found within the search budget."""
    exit_code, label = _BUDGET

    def __init__(self, max_base):
        super().__init__(f"no distinguishing model with base <= {max_base}")
        self.max_base = max_base


class IllFormed(BetaEtaError):
    """An arrow term violated the source/target composition rules."""
    exit_code, label = _TYPE


class IndexOutOfRange(BetaEtaError):
    pass


class BadCertificate(BetaEtaError):
    """A certificate could not be decoded or replayed."""
    label = "certificate: "


class UnsupportedSchema(BadCertificate):
    """A certificate envelope states a schema version this reader does not know."""
    exit_code, label = 6, ""
