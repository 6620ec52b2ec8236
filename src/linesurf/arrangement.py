"""Rational line arrangements in the projective plane and their profiles.

An arrangement is an ordered list of distinct lines a*x + b*y + c*z = 0 with
rational coefficients.  Each line is stored as its primitive integer triple:
denominators cleared, gcd 1, first nonzero entry positive, so two lines are
equal exactly when they are the same projective line.  Its combinatorial
profile records, for each multiplicity r >= 2, the number t_r of points lying
on exactly r lines; ``profile_of`` finds the points as primitive integer cross
products.  The profile is all that the downstream invariant machinery
consumes, so named arrangements whose natural coordinates are not rational
(Hesse, Ceva) enter through a catalog of profiles instead of coordinates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from typing import Optional

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

# Largest decimal exponent magnitude a token may carry: Fraction("1e<k>")
# builds 10**k, so k is held to the default digit limit of int(str).
MAX_EXPONENT = 4300


@dataclass(frozen=True)
class Line:
    """A projective line as its primitive integer triple: gcd(a, b, c) = 1 and
    the first nonzero coefficient positive.  ``Line.of`` scales any rational
    triple to this form."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if gcd(self.a, self.b, self.c) != 1 or (self.a or self.b or self.c) < 0:
            raise BadParameter(f"{self} is not a primitive integer triple; use Line.of")

    @classmethod
    def of(cls, a, b, c) -> "Line":
        coeffs = (Fraction(a), Fraction(b), Fraction(c))
        scale = lcm(*(v.denominator for v in coeffs))
        ints = [v.numerator * (scale // v.denominator) for v in coeffs]
        g = gcd(*ints)
        if g == 0:
            raise ZeroForm("all three coefficients are zero")
        if (ints[0] or ints[1] or ints[2]) < 0:
            g = -g
        return cls(*(v // g for v in ints))


@dataclass(frozen=True)
class Arrangement:
    """An ordered tuple of pairwise distinct lines, at least two of them."""

    lines: tuple[Line, ...]

    def __post_init__(self):
        if len(self.lines) < 2:
            raise TooFewLines(f"need at least 2 lines, got {len(self.lines)}")
        seen: dict[Line, int] = {}
        for i, line in enumerate(self.lines):
            if line in seen:
                raise DuplicateLine(f"lines {seen[line] + 1} and {i + 1} coincide")
            seen[line] = i

    @property
    def d(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class Profile:
    """Line count d plus the multiplicity counts t_r, stored sorted by r.

    ``balanced`` is False only for profiles constructed with
    ``allow_unbalanced``; such profiles are combinatorially unrealizable and
    are refused by all verdict-level operations.
    """

    d: int
    t: tuple[tuple[int, int], ...]
    balanced: bool = True

    def t_r(self, r: int) -> int:
        return dict(self.t).get(r, 0)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.t)


@dataclass(frozen=True)
class CatalogEntry:
    """A named profile, with the irregularity q when a published value exists."""

    name: str
    profile: Profile
    q: Optional[int] = None


@dataclass(frozen=True)
class HirzebruchDiagnostic:
    """Result of the node/triple-point count inequality check."""

    applicable: bool
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None
    holds: Optional[bool] = None


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
        coeffs = []
        for tok in tokens:
            try:
                _, e, exponent = tok.lower().partition("e")
                if e and abs(int(exponent)) > MAX_EXPONENT:
                    raise MalformedLine(f"line {lineno}: exponent of {tok!r} exceeds "
                                        f"{MAX_EXPONENT} in magnitude")
                coeffs.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise MalformedLine(f"line {lineno}: {tok!r} is not a rational number") from None
        try:
            lines.append(Line.of(*coeffs))
        except ZeroForm:
            raise ZeroForm(f"line {lineno}: all coefficients are zero") from None
    return Arrangement(tuple(lines))


def profile_of(arr: Arrangement) -> Profile:
    """Count each pair's intersection point, the primitive integer cross
    product of the two lines; a point on r lines is met by r(r-1)/2 pairs."""
    lines = [(line.a, line.b, line.c) for line in arr.lines]
    pairs = Counter(_points(lines))
    counts = Counter((1 + isqrt(1 + 8 * n)) // 2 for n in pairs.values())
    return validate_profile(arr.d, dict(counts))


def _points(lines):
    for i, (a1, b1, c1) in enumerate(lines):
        for a2, b2, c2 in lines[i + 1:]:
            x, y, z = b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2
            g = gcd(x, y, z)
            if (x or y or z) < 0:
                g = -g
            yield (x // g, y // g, z // g)


def validate_profile(d: int, t: dict, allow_unbalanced: bool = False) -> Profile:
    """Check multiplicity ranges and the pair-count identity.

    With ``allow_unbalanced`` the identity check is skipped and the profile
    is flagged unrealizable instead.
    """
    if d < 2:
        raise BadParameter(f"d must be >= 2, got {d}")
    items = []
    for r in sorted(t):
        count = t[r]
        if r < 2 or r > d:
            raise MultiplicityOutOfRange(f"multiplicity {r} outside [2, {d}]")
        if count <= 0:
            raise BadParameter(f"count for multiplicity {r} must be positive, got {count}")
        items.append((int(r), int(count)))
    total = sum(c * r * (r - 1) // 2 for r, c in items)
    target = d * (d - 1) // 2
    balanced = total == target
    if not balanced and not allow_unbalanced:
        raise UnbalancedProfile(f"sum t_r r(r-1)/2 = {total}, expected d(d-1)/2 = {target}")
    return Profile(d, tuple(items), balanced=balanced)


def is_pencil(p: Profile) -> bool:
    """True iff all lines pass through one point, i.e. t_d = 1."""
    return p.t_r(p.d) == 1


def catalog_profile(name: str, param: Optional[int] = None) -> CatalogEntry:
    """Look up a named profile: hesse, ceva(m), braid(n), pencil(d),
    near-pencil(d), generic(d).

    q is attached only where a published value exists (hesse, ceva, braid).
    """
    if name == "hesse":
        _reject_param(name, param)
        return CatalogEntry("hesse", validate_profile(12, {2: 12, 4: 9}), q=3)
    if name == "ceva":
        m = _require_param(name, param, minimum=2)
        if m == 3:
            t: dict[int, int] = {3: 12}
        else:
            t = {3: m * m, m: 3}
        return CatalogEntry(f"ceva({m})", validate_profile(3 * m, t),
                            q=2 if m % 3 == 0 else 1)
    if name == "braid":
        n = _require_param(name, param, minimum=2)
        t = {3: comb(n + 1, 3)}
        t2 = (n + 1) * n * (n - 1) * (n - 2) // 8
        if t2:
            t[2] = t2
        return CatalogEntry(f"braid({n})", validate_profile(n * (n + 1) // 2, t),
                            q=1 if n in (2, 3) else 0)
    if name == "pencil":
        d = _require_param(name, param, minimum=2)
        return CatalogEntry(f"pencil({d})", validate_profile(d, {d: 1}))
    if name == "near-pencil":
        d = _require_param(name, param, minimum=3)
        t = {d - 1: 1}
        t[2] = t.get(2, 0) + (d - 1)  # d = 3 merges into t_2 = 3
        return CatalogEntry(f"near-pencil({d})", validate_profile(d, t))
    if name == "generic":
        d = _require_param(name, param, minimum=2)
        return CatalogEntry(f"generic({d})", validate_profile(d, {2: comb(d, 2)}))
    raise UnknownCatalogName(name)


CATALOG_NAMES = ("hesse", "ceva", "braid", "pencil", "near-pencil", "generic")


def hirzebruch_diagnostic(p: Profile) -> HirzebruchDiagnostic:
    """Check t_2 + (3/4) t_3 >= d + sum_{r>=5} (r-4) t_r.

    Only applicable when t_d = t_{d-1} = 0.  This form and its hypothesis
    cite no source and are unchecked.  Hirzebruch 1983 ("Arrangements of
    lines and algebraic surfaces") proves, for complex arrangements with
    t_d = t_{d-1} = t_{d-2} = 0, the inequality
    t_2 + t_3 >= d + sum_{r>=5} (r-4) t_r.
    """
    if p.t_r(p.d) != 0 or p.t_r(p.d - 1) != 0:
        return HirzebruchDiagnostic(applicable=False)
    lhs = Fraction(p.t_r(2)) + Fraction(3, 4) * p.t_r(3)
    rhs = Fraction(p.d) + sum((r - 4) * c for r, c in p.t if r >= 5)
    return HirzebruchDiagnostic(True, lhs, rhs, lhs >= rhs)


def _require_param(name: str, param: Optional[int], minimum: int) -> int:
    if param is None:
        raise BadParameter(f"catalog entry {name!r} needs an integer parameter")
    if param < minimum:
        raise BadParameter(f"catalog entry {name!r} needs a parameter >= {minimum}, got {param}")
    return param


def _reject_param(name: str, param: Optional[int]) -> None:
    if param is not None:
        raise BadParameter(f"catalog entry {name!r} takes no parameter")
