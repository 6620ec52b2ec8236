"""Reference helpers for Hirzebruch-Jung expansions, used only by the tests.

``hj_evaluate`` folds a term list back into its fraction and ``g_product``
multiplies the elementary matrices [[n_i, -1], [1, 0]]; both give the
round-trip oracle for ``hj_expand``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TwoByTwo:
    """An integer 2x2 matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "TwoByTwo") -> "TwoByTwo":
        return TwoByTwo(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @classmethod
    def identity(cls) -> "TwoByTwo":
        return cls(1, 0, 0, 1)


def hj_evaluate(terms) -> tuple[int, int]:
    """Evaluate a term list bottom-up to the coprime pair (alpha, beta).

    The empty list evaluates to (1, 0).
    """
    check_terms(terms)
    num, den = 1, 0
    for n in reversed(list(terms)):
        num, den = n * num - den, num
    return num, den


def g_product(terms) -> TwoByTwo:
    """Product G_1 G_2 ... G_lambda of the factors G_i = [[n_i, -1], [1, 0]].

    The first column of the result is (alpha, beta) for the fraction the
    terms evaluate to; each factor and the product have determinant 1.
    """
    check_terms(terms)
    g = TwoByTwo.identity()
    for n in terms:
        g = g * TwoByTwo(n, -1, 1, 0)
    return g


def check_terms(terms) -> None:
    for n in terms:
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"term {n!r} is not an integer >= 2")
