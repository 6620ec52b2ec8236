"""Rational line arrangements in the projective plane and their profiles.

An arrangement is an ordered list of distinct lines a*x + b*y + c*z = 0 with
rational coefficients, one per line of a coordinate file, where only \\n,
\\r\\n and \\r end a line.  Its tokens are accepted and refused exactly as
``Fraction`` would, but ``[sign]digits[/digits]`` is read by ``int()``
without building one (see ``_rational``).  Each line is stored as its
primitive integer triple: denominators cleared, gcd 1, first nonzero entry
positive, so two lines are equal exactly when they are the same projective
line.  Its combinatorial profile records, for each multiplicity r >= 2, the
number t_r of points lying on exactly r lines.  ``profile_of`` groups the
later lines through each point of each line by the ratio u : v of two
coordinates of the integer cross product, which the line's equation
completes; a point on r lines forms one group of each size 1, ..., r - 1,
so t_r = n_{r-1} - n_r for n_s groups of size s.  A meeting's key is one
exact int, i*W + floor(u*N/v), while the coefficients have fewer than
FLOOR_KEY_BITS bits, and the gcd-normalised (i, u, v) from there on (see
``profile_of``).  The profile is all that the downstream invariant machinery
consumes, so named arrangements whose natural coordinates are not rational
(Hesse, Ceva) enter through a catalog of profiles instead of coordinates.

This module owns profile input: a ``Profile`` checks its own ranges and the
pair-count identity when it is built, so every profile is balanced, and
``CATALOG`` is the one table of named entries, their parameters and their
summaries.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import chain
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
    _need,
)
from .record import Record, _repr, _str, set_field

# Largest decimal exponent magnitude a token or a Line.of coefficient may
# carry: Fraction("1e<k>") builds 10**k, so k is held to the default digit
# limit of int(str).
MAX_EXPONENT = 4300

# Bit length of the largest coefficient from which ``profile_of`` keys each
# meeting by a gcd-normalised pair instead of one floor(u*N/v) int.  On 80
# random lines the floor key took x0.61-0.70 of the gcd key's time up to 384
# bits, x0.71 at 512, x0.82 at 640, x0.94 at 1024, x1.09 at 1280, x1.27 at
# 2048, and x5.4 on the 28,000-bit file of scripts/profile_of_timing.py
# (Python 3.11, 2-vCPU Xeon VM), so the cutover sits below the crossover.
FLOOR_KEY_BITS = 512


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
            if bool in map(type, (a, b, c)):  # Fraction would read it as 0 or 1
                raise TypeError
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
    (a, q1), (b, q2), (c, q3) = coeffs
    if not q1 == q2 == q3 == 1:
        scale = lcm(q1, q2, q3)
        a, b, c = a * (scale // q1), b * (scale // q2), c * (scale // q3)
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
        # one C-level pass each for the types and for the distinct triples;
        # only a refusal walks the lines for its index
        if not {Line}.issuperset(map(type, lines)):
            i = next(i for i, line in enumerate(lines) if type(line) is not Line)
            raise BadParameter(f"line {i + 1} is not a Line: {_repr(lines[i])}")
        if len(set(map(Line._values, lines))) != len(lines):
            first: dict[Line, int] = {}
            for i, line in enumerate(lines):
                if first.setdefault(line, i) != i:
                    raise DuplicateLine(f"lines {first[line] + 1} and {i + 1} coincide")

    @property
    def d(self) -> int:
        return len(self.lines)


class Profile(Record):
    """Line count d plus the multiplicity counts t_r, stored sorted by r.

    Construction freezes t, any iterable of (r, t_r) pairs, to a tuple of
    pairs, so equal profiles are equal and hash alike.  It checks that d, each
    r and each count is an ``int`` (not a ``bool``), d >= 2, each r in [2, d]
    and strictly increasing with a positive count, and sum t_r r(r-1)/2 =
    d(d-1)/2, so every profile is balanced.
    """

    _fields = ("d", "t")

    def __init__(self, d: int, t: tuple[tuple[int, int], ...]):
        try:
            t = tuple([(r, count) for r, count in t])
        except (TypeError, ValueError):  # not iterable, or an item that is no pair
            raise BadParameter(f"t must be (multiplicity, count) pairs, got {_repr(t)}") from None
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
    ignored; only `\\n`, `\\r\\n` and `\\r` end a line, as in text mode.  A
    decimal exponent beyond MAX_EXPONENT in magnitude is refused.  Errors
    name file lines, counted from 1 with comments and blanks.
    """
    if not isinstance(text, str):
        raise BadParameter(f"text must be a str, got {type(text).__name__}")
    lines: dict[int, Line] = {}  # by file line
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        tokens = raw.partition("#")[0].split()
        if len(tokens) != 3:
            if not tokens:
                continue
            raise MalformedLine(f"line {lineno}: expected 3 coefficients, got {len(tokens)}")
        # three direct calls: a comprehension's frame took about a tenth of a
        # line's time (Python 3.11)
        a, b, c = tokens
        coeffs = (_rational(a, lineno), _rational(b, lineno), _rational(c, lineno))
        try:
            lines[lineno] = Line(*_primitive(coeffs))
        except ZeroForm:
            raise ZeroForm(f"line {lineno}: all coefficients are zero") from None
    try:
        return Arrangement(tuple(lines.values()))
    except DuplicateLine:
        # name the file lines of the first repeat, not its arrangement indices
        first: dict[Line, int] = {}
        for lineno, line in lines.items():
            if first.setdefault(line, lineno) != lineno:
                raise DuplicateLine(f"lines {first[line]} and {lineno} coincide") from None
        raise


def _rational(tok: str, lineno: int) -> tuple[int, int]:
    """A coefficient token, free of whitespace as ``str.split`` leaves it, as
    (numerator, positive denominator), accepted or refused as ``Fraction``
    would.  ``[sign]digits[/digits]`` is read with ``int()`` first, which
    takes the digits that ``Fraction`` takes (those where ``str.isdecimal``
    holds).  A decimal, with '.', 'e' or 'E' before any slash, goes straight
    to ``Fraction``, sparing it a raise from ``int()``; so do a token that
    ``int()`` refuses, a zero or signed denominator and any underscore."""
    num, slash, den = tok.partition("/")
    q = 0
    if "." not in num and "e" not in num and "E" not in num:
        try:
            p, q = int(num), int(den) if slash else 1
        except ValueError:
            pass
    if q > 0 and "+" not in den and "_" not in tok:
        return p, q
    try:
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
    So the ratio u : v fixes P among the points of line i, and the pair counts
    under one key of (i, u : v).  A point on r lines is met from its first
    r - 1 lines in groups of r - 1, r - 2, ..., 1 later lines, so with n_s
    groups of size s, t_r = n_{r-1} - n_r.

    While the largest absolute coefficient M has fewer than FLOOR_KEY_BITS
    bits, the key is one int, i*W + floor(u*N/v), with the slot K*N + 1 for
    v = 0.  Here K = 2M^2, so K >= |u| and K >= |v|, and N is a power of two
    above K^2:
      * equal ratios give equal keys, as floor(u*N/v) depends only on u/v;
      * distinct ratios give distinct keys: they differ by at least
        1/|v*v'| >= 1/K^2 > 1/N, so u*N/v and u'*N/v' differ by more than 1
        and so do their floors;
      * lines do not overlap: |floor(u*N/v)| <= K*N, so line i's keys and its
        slot lie in i*W + [-K*N, K*N + 1], and W = 2(K*N + 1) + 1 keeps these
        ranges apart.
    From FLOOR_KEY_BITS bits on, the key is (i, u/g, v/g) with g = +-gcd(u, v)
    and the first nonzero entry positive: u*N, about six times M's length,
    then costs more to divide than the gcd does.
    """
    _need(arr, Arrangement, "profile_of")
    groups = Counter(_meeting_keys(list(map(Line._values, arr.lines))))
    n = Counter(groups.values())
    return validate_profile(arr.d, {r: n[r - 1] - n[r] for r in range(2, max(n) + 2)
                                    if n[r - 1] != n[r]})


def _meeting_keys(lines):
    # line i reads the lines in the cyclic shift that takes its k to index 0;
    # a cyclic shift commutes with the cross product, so (u, v) are the
    # shifted P's last two coordinates, four products in all
    rotations = (lines, [(b, c, a) for a, b, c in lines], [(c, a, b) for a, b, c in lines])
    m = max(map(abs, chain.from_iterable(lines)))
    if m.bit_length() >= FLOOR_KEY_BITS:
        return _gcd_keys(lines, rotations)
    k = 2 * m * m
    shift = (k * k).bit_length()  # N = 2**shift > K^2
    slot = (k << shift) + 1
    width = 2 * slot + 1
    # one comprehension builds every line's row: one per line costs a call
    # each, x1.17 of the gcd key's time on six lines against x1.06
    return [base + ((c1 * a2 - a1 * c2) << shift) // v if (v := a1 * b2 - b1 * a2)
            else base + slot
            for i, (a, b, _) in enumerate(lines)
            for rotated in (rotations[0 if a else 1 if b else 2],)
            for (a1, b1, c1), base in ((rotated[i], i * width),)
            for a2, b2, c2 in rotated[i + 1:]]


def _gcd_keys(lines, rotations):
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
    ``Profile`` freezes and checks it."""
    try:
        return Profile(d, sorted(t.items()))
    except TypeError:  # multiplicities that do not sort, so not all ints
        raise BadParameter(f"multiplicities must be ints, got {_repr(list(t))}") from None
    except AttributeError:  # no .items(), so not a dict
        raise BadParameter(f"t must be a dict {{r: t_r}}, got {_repr(t)}") from None


def is_pencil(p: Profile) -> bool:
    """True iff all lines pass through one point, i.e. t_d = 1: the balance
    allows at most one d-fold point, so t's last multiplicity decides."""
    _need(p, Profile, "is_pencil")
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
    row = CATALOG.get(name) if isinstance(name, str) else None
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

