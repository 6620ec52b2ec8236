"""Independent point grouping for checking ``profile_of``.

Lines are primitive integer triples (a, b, c).  Two lines meet in the point
given by their cross product, made primitive by dividing by the gcd and
fixing the sign of the first nonzero entry; all arithmetic is on ``int``.
Nothing here imports linesurf.
"""

from __future__ import annotations

from collections import Counter
from math import gcd


def primitive(triple) -> tuple[int, int, int]:
    """Scale an integer triple to gcd 1 with its first nonzero entry positive."""
    a, b, c = triple
    g = gcd(gcd(a, b), c)
    if g == 0:
        raise ValueError("zero triple")
    lead = next(v for v in (a, b, c) if v)
    if lead < 0:
        g = -g
    return (a // g, b // g, c // g)


def cross(l1, l2) -> tuple[int, int, int]:
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    return (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)


def multiplicity_counts(lines) -> dict[int, int]:
    """{r: t_r} for distinct primitive integer lines: points on exactly r lines."""
    through: dict[tuple[int, int, int], set[int]] = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            point = primitive(cross(lines[i], lines[j]))
            through.setdefault(point, set()).update((i, j))
    return dict(sorted(Counter(len(idx) for idx in through.values()).items()))
