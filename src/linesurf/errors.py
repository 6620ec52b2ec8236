"""Exception hierarchy shared across the package."""


class LineSurfError(Exception):
    """Base class for all library errors."""


class InternalCheckError(AssertionError):
    """An internal consistency check failed (a bug, not bad input); unlike
    ``assert``, it is kept under ``python -O``."""


# --- arrangement input errors ---

class MalformedLine(LineSurfError):
    """A line of input is not three rational tokens."""


class ZeroForm(LineSurfError):
    """All three coefficients of a linear form are zero."""


class DuplicateLine(LineSurfError):
    """Two proportional coefficient triples describe the same line."""


class TooFewLines(LineSurfError):
    """An arrangement needs at least two lines."""


# --- profile errors ---

class UnbalancedProfile(LineSurfError):
    """The counts t_r fail the identity sum t_r r(r-1)/2 = d(d-1)/2."""


class MultiplicityOutOfRange(LineSurfError):
    """A multiplicity r lies outside [2, d]."""


class UnknownCatalogName(LineSurfError):
    """No catalog entry with this name."""


class BadParameter(LineSurfError):
    """A parameter is missing, extraneous, or out of range."""


def _need(value, kind: type, caller: str) -> None:
    """The one refusal of a wrong argument kind: any ``value`` but exactly a ``kind``."""
    if type(value) is not kind:
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise BadParameter(f"{caller} needs {article} {kind.__name__}, got {type(value).__name__}")


# --- continued fraction errors ---

class NotCoprime(LineSurfError):
    """Arguments are required to be coprime."""


class BetaOutOfRange(LineSurfError):
    """beta must satisfy 0 < beta < alpha (or be the (1, 0) convention)."""


# --- resolution errors ---

class BadMultiplicity(LineSurfError):
    """The germ parameters must satisfy 2 <= r <= d."""


class NotSymmetric(LineSurfError):
    """Definiteness checks require a symmetric matrix."""


class SingularMatrix(LineSurfError):
    """Elimination met a zero pivot: the matrix is singular, or it needs a row
    exchange that the elimination does not make.  A definite matrix, such as
    an intersection matrix, never has one."""


# --- Hodge errors ---

class NegativeHodgeNumber(LineSurfError):
    """The (profile, q) pair yields a negative Hodge number."""


class ZeroSecondChern(LineSurfError):
    """The Chern ratio is undefined when c2 = 0."""
