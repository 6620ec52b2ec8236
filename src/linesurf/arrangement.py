"""Rational line arrangements in the projective plane and their profiles.

An arrangement is an ordered list of distinct lines a*x + b*y + c*z = 0 with
rational coefficients.  Each line is stored as its primitive integer triple:
denominators cleared, gcd 1, first nonzero entry positive, so two lines are
equal exactly when they are the same projective line.  Its combinatorial
profile records, for each multiplicity r >= 2, the number t_r of points lying
on exactly r lines.  ``profile_of`` groups the later lines through each point
of each line by two coordinates of the integer cross product, which the
line's equation completes; a point on r lines forms one group of each size
1, ..., r - 1, so t_r = n_{r-1} - n_r for n_s groups of size s.  The profile
is all that the downstream invariant machinery consumes, so named
arrangements whose natural coordinates are not rational (Hesse, Ceva) enter
through a catalog of profiles instead of coordinates.

This module owns profile input: a ``Profile`` checks its own ranges and the
pair-count identity when it is built, so every profile is balanced, and
``CATALOG`` is the one table of named entries, their parameters and their
summaries.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Callable, NamedTuple, Optional

from .errors import (
    BadParameter,
    DuplicateLine,
    MalformedLine,
    MultiplicityOutOfRange,
    TooFewLines,
    UnbalancedProfile,
    UnknownCatalogName,
    ZeroForm,
)
from .record import Record, _repr, _str, set_field

# Largest decimal exponent magnitude a token or a Line.of coefficient may
# carry: Fraction("1e<k>") builds 10**k, so k is held to the default digit
# limit of int(str).
MAX_EXPONENT = 4300


class Line(Record):
    """A projective line as its primitive integer triple: gcd(a, b, c) = 1 and
    the first nonzero coefficient positive.  ``Line.of`` scales any rational
    triple to this form."""

    _fields = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)
        if not type(a) is type(b) is type(c) is int or gcd(a, b, c) != 1 or (a or b or c) < 0:
            raise BadParameter(f"{self} is not a primitive integer triple; use Line.of")

    @classmethod
    def of(cls, a, b, c) -> "Line":
        try:
            if any(map(_exponent_exceeds, (a, b, c))):
                raise BadParameter(f"a coefficient's decimal exponent exceeds {MAX_EXPONENT} "
                                   f"in magnitude, got {_repr(a)}, {_repr(b)}, {_repr(c)}")
            coeffs = [Fraction(v) for v in (a, b, c)]
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise BadParameter(f"coefficients must be rational, got "
                               f"{_repr(a)}, {_repr(b)}, {_repr(c)}") from None
        return cls(*_primitive([(v.numerator, v.denominator) for v in coeffs]))


def _exponent_exceeds(value) -> bool:
    """True if ``Fraction(value)`` would expand a decimal exponent beyond
    MAX_EXPONENT in magnitude: the part after 'e' of a str, or the exponent
    of a finite Decimal.  An exponent that ``int()`` refuses raises ValueError."""
    if isinstance(value, Decimal):
        return value.is_finite() and abs(value.as_tuple().exponent) > MAX_EXPONENT
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        return bool(e) and abs(int(exponent)) > MAX_EXPONENT
    return False


def _primitive(coeffs) -> tuple[int, int, int]:
    """The primitive integer triple of three (numerator, positive denominator) pairs."""
    (p1, q1), (p2, q2), (p3, q3) = coeffs
    scale = lcm(q1, q2, q3)
    a, b, c = p1 * (scale // q1), p2 * (scale // q2), p3 * (scale // q3)
    g = gcd(a, b, c)
    if g == 0:
        raise ZeroForm("all three coefficients are zero")
    if (a or b or c) < 0:
        g = -g
    return a // g, b // g, c // g


class Arrangement(Record):
    """An ordered tuple of pairwise distinct lines, at least two of them."""

    _fields = ("lines",)

    def __init__(self, lines: tuple[Line, ...]):
        try:
            lines = tuple(lines)
        except TypeError:
            raise BadParameter(f"lines must be an iterable of Line, got {_repr(lines)}") from None
        set_field(self, "lines", lines)
        if len(lines) < 2:
            raise TooFewLines(f"need at least 2 lines, got {len(lines)}")
        seen: dict[Line, int] = {}
        for i, line in enumerate(lines):
            if type(line) is not Line:
                raise BadParameter(f"line {i + 1} is not a Line: {_repr(line)}")
            if line in seen:
                raise DuplicateLine(f"lines {seen[line] + 1} and {i + 1} coincide")
            seen[line] = i

    @property
    def d(self) -> int:
        return len(self.lines)


class Profile(Record):
    """Line count d plus the multiplicity counts t_r, stored sorted by r.

    Construction checks that d, each r and each count is an ``int`` (not a
    ``bool``), d >= 2, each r in [2, d] and strictly increasing with a
    positive count, and sum t_r r(r-1)/2 = d(d-1)/2, so every profile is balanced.
    """

    _fields = ("d", "t")

    def __init__(self, d: int, t: tuple[tuple[int, int], ...]):
        set_field(self, "d", d)
        set_field(self, "t", t)
        last, total = 1, 0
        if type(d) is not int:
            raise BadParameter(f"d must be an int, got {_repr(d)}")
        if d < 2:
            raise BadParameter(f"d must be >= 2, got {_repr(d)}")
        for r, count in t:
            if type(r) is not int or type(count) is not int:
                raise BadParameter(
                    f"multiplicity and count must be ints, got {_repr(r)}: {_repr(count)}")
            if r < 2 or r > d:
                raise MultiplicityOutOfRange(f"multiplicity {_repr(r)} outside [2, {_repr(d)}]")
            if r <= last:
                raise MultiplicityOutOfRange(
                    f"multiplicity {_repr(r)} follows {_repr(last)}; sort t by r")
            if count <= 0:
                raise BadParameter(
                    f"count for multiplicity {_repr(r)} must be positive, got {_repr(count)}")
            last, total = r, total + count * r * (r - 1) // 2
        target = d * (d - 1) // 2
        if total != target:
            raise UnbalancedProfile(
                f"sum t_r r(r-1)/2 = {_repr(total)}, expected d(d-1)/2 = {_repr(target)}")

    def t_r(self, r: int) -> int:
        return dict(self.t).get(r, 0)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.t)


class CatalogEntry(NamedTuple):
    """A named profile, with the irregularity q when a published value exists."""

    name: str
    profile: Profile
    q: Optional[int] = None


def parse_arrangement(text: str) -> Arrangement:
    """Parse the line-list format: one `a b c` triple per line.

    Rational tokens (`p/q`, integers or decimals), `#` comments, blank lines
    ignored.  A decimal exponent beyond MAX_EXPONENT in magnitude is refused.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) != 3:
            raise MalformedLine(f"line {lineno}: expected 3 coefficients, got {len(tokens)}")
        coeffs = [_rational(tok, lineno) for tok in tokens]
        try:
            lines.append(Line(*_primitive(coeffs)))
        except ZeroForm:
            raise ZeroForm(f"line {lineno}: all coefficients are zero") from None
    return Arrangement(tuple(lines))


def _rational(tok: str, lineno: int) -> tuple[int, int]:
    """A coefficient token as (numerator, positive denominator), accepted or
    refused as ``Fraction`` would.  ``[sign]digits[/digits]`` is read with
    ``int()``, whose digits are those where ``str.isdecimal`` holds; a zero
    denominator and any other token go to ``Fraction``."""
    try:
        num, slash, den = tok.partition("/")
        if ((num[1:] if num[:1] in ("+", "-") else num).isdecimal()
                and (den.isdecimal() or not slash)):
            q = int(den) if slash else 1
            if q:
                return int(num), q
        if _exponent_exceeds(tok):
            raise MalformedLine(f"line {lineno}: exponent of {tok!r} exceeds "
                                f"{MAX_EXPONENT} in magnitude")
        value = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise MalformedLine(f"line {lineno}: {tok!r} is not a rational number") from None
    return value.numerator, value.denominator


def profile_of(arr: Arrangement) -> Profile:
    """Count the points of the arrangement by multiplicity from its lines.

    Line i meets each later line j in the point P = L_i x L_j.  If k is the
    first index where L_i is nonzero, L_i . P = 0 gives P_k from the other two
    coordinates (u, v), which are not both zero as the lines are distinct.
    So (u, v), made primitive with its first nonzero entry positive, fixes P
    among the points of line i, and the pair counts under the key (i, u, v).
    A point on r lines is met from its first r - 1 lines in groups of r - 1,
    r - 2, ..., 1 later lines, so with n_s groups of size s,
    t_r = n_{r-1} - n_r.
    """
    groups = Counter(_meeting_keys([(line.a, line.b, line.c) for line in arr.lines]))
    n = Counter(groups.values())
    return validate_profile(arr.d, {r: n[r - 1] - n[r] for r in range(2, max(n) + 2)
                                    if n[r - 1] != n[r]})


def _meeting_keys(lines):
    # line i reads the lines in the cyclic shift that takes its k to index 0;
    # a cyclic shift commutes with the cross product, so (u, v) are the
    # shifted P's last two coordinates, four products in all
    rotations = (lines, [(b, c, a) for a, b, c in lines], [(c, a, b) for a, b, c in lines])
    for i, (a, b, _) in enumerate(lines):
        rotated = rotations[0 if a else 1 if b else 2]
        a1, b1, c1 = rotated[i]
        for a2, b2, c2 in rotated[i + 1:]:
            u, v = c1 * a2 - a1 * c2, a1 * b2 - b1 * a2
            g = gcd(u, v)
            if (u or v) < 0:
                g = -g
            yield i, u // g, v // g


def validate_profile(d: int, t: dict) -> Profile:
    """The profile of d lines with integer counts {r: t_r}, sorted by r;
    ``Profile`` checks it."""
    try:
        return Profile(d, tuple(sorted(t.items())))
    except TypeError:  # multiplicities that do not sort, so not all ints
        raise BadParameter(f"multiplicities must be ints, got {_repr(list(t))}") from None


def is_pencil(p: Profile) -> bool:
    """True iff all lines pass through one point, i.e. t_d = 1: the balance
    allows at most one d-fold point, so t's last multiplicity decides."""
    return p.t[-1][0] == p.d


class CatalogRow(NamedTuple):
    """A catalog entry: its parameter's CLI flag and minimum (None for an
    entry without one), the summary ``linesurf catalog`` prints, and
    ``build(param) -> (d, {r: t_r}, q)``, where a zero count means no such
    points and q is None unless a published value exists."""

    flag: Optional[str]
    minimum: Optional[int]
    summary: str
    build: Callable[[Optional[int]], tuple[int, dict, Optional[int]]]


CATALOG = {
    "hesse": CatalogRow(None, None, "d=12, t_2=12, t_4=9, q=3",
                        lambda _: (12, {2: 12, 4: 9}, 3)),
    "ceva": CatalogRow("m", 2, "d=3M; M=3: t_3=12; else t_3=M^2, t_M=3; q=2 if 3|M else 1",
                       lambda m: (3 * m, {3: 12} if m == 3 else {3: m * m, m: 3},
                                  2 if m % 3 == 0 else 1)),
    "braid": CatalogRow("n", 2, "d=N(N+1)/2, t_3=C(N+1,3), t_2=(N+1)N(N-1)(N-2)/8; "
                                "q=1 if N in {2,3} else 0",
                        lambda n: (comb(n + 1, 2), {2: 3 * comb(n + 1, 4), 3: comb(n + 1, 3)},
                                   1 if n in (2, 3) else 0)),
    "pencil": CatalogRow("d", 2, "t_D=1", lambda d: (d, {d: 1}, None)),
    # the d = 3 near-pencil is the triangle, t_2 = 3
    "near-pencil": CatalogRow("d", 3, "t_{D-1}=1, t_2=D-1",
                              lambda d: (d, {2: 3} if d == 3 else {2: d - 1, d - 1: 1}, None)),
    "generic": CatalogRow("d", 2, "t_2=C(D,2)", lambda d: (d, {2: comb(d, 2)}, None)),
}


def catalog_profile(name: str, param: Optional[int] = None) -> CatalogEntry:
    """Look up a named profile in ``CATALOG``: hesse, ceva(m), braid(n),
    pencil(d), near-pencil(d), generic(d)."""
    row = CATALOG.get(name)
    if row is None:
        raise UnknownCatalogName(name)
    if (param is None) != (row.flag is None) or (row.flag and type(param) is not int):
        need = "needs an integer parameter" if row.flag else "takes no parameter"
        raise BadParameter(f"catalog entry {name!r} {need}")
    if row.flag and param < row.minimum:
        raise BadParameter(
            f"catalog entry {name!r} needs a parameter >= {row.minimum}, got {_repr(param)}")
    d, t, q = row.build(param)
    return CatalogEntry(f"{name}({_str(param)})" if row.flag else name,
                        validate_profile(d, {r: c for r, c in t.items() if c}), q)

