"""Hirzebruch-Jung continued fractions and the associated 2x2 matrix products.

The expansion of a rational alpha/beta uses minus signs throughout:

    alpha/beta = n_1 - 1/(n_2 - 1/(... - 1/n_lambda)),   all n_i >= 2,

and is the combinatorial backbone of the cyclic-quotient arm chains in the
resolution graphs.  The product of the elementary matrices [[n_i, -1], [1, 0]]
recovers (alpha, beta) in its first column; its second column is pinned down
exactly when beta is the modular inverse datum used by the resolution.

Expansions with d >> r are mostly long runs of 2s.  ``hj_expand`` takes each
run in one step: while n_i = 2 the remainders fall by a fixed step, so the
run's terms and remainders are a repeated tuple and a ``range``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import BetaOutOfRange, NotCoprime, TermTooSmall


@dataclass(frozen=True)
class HJExpansion:
    """A finished expansion together with its remainder sequence.

    ``alphas`` is the auxiliary sequence alpha_0, ..., alpha_{lambda+1} with
    alpha_0 = alpha, alpha_1 = beta, alpha_lambda = 1 and alpha_{lambda+1} = 0,
    obeying alpha_{i-1} = n_i * alpha_i - alpha_{i+1}.
    """

    alpha: int
    beta: int
    terms: tuple[int, ...]
    alphas: tuple[int, ...]

    @property
    def length(self) -> int:
        """Number of terms (the arm length lambda)."""
        return len(self.terms)


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


def modular_beta(alpha: int, bprime: int) -> int:
    """Unique beta with 0 < beta < alpha and bprime * beta = -1 (mod alpha).

    Returns 0 when alpha = 1 (the no-arms convention).
    """
    if alpha < 1 or bprime < 1:
        raise BetaOutOfRange(f"need alpha >= 1 and bprime >= 1, got ({alpha}, {bprime})")
    if gcd(alpha, bprime) != 1:
        raise NotCoprime(f"gcd({alpha}, {bprime}) != 1")
    if alpha == 1:
        return 0
    return (-pow(bprime, -1, alpha)) % alpha


def hj_expand(alpha: int, beta: int) -> HJExpansion:
    """Expand alpha/beta, 0 < beta < alpha coprime, into terms all >= 2.

    The pair (1, 0) is accepted and yields the empty expansion.
    Uses the remainder recurrence alpha_{i+1} = n_i alpha_i - alpha_{i-1}
    with n_i = ceil(alpha_{i-1} / alpha_i); the expansion is unique.  A run
    of 2s is one step: at a remainder pair (a, b) with ceil(a/b) = 2, put
    s = a - b; the next a // s - 1 terms are 2 and their remainders are
    b - s, b - 2s, ..., a mod s, the last nonnegative one.
    """
    if alpha == 1 and beta == 0:
        return HJExpansion(1, 0, (), (1, 0))
    if alpha < 2 or not 0 < beta < alpha:
        raise BetaOutOfRange(f"need 0 < beta < alpha with alpha >= 2, got ({alpha}, {beta})")
    if gcd(alpha, beta) != 1:
        raise NotCoprime(f"gcd({alpha}, {beta}) != 1")
    alphas = [alpha, beta]
    terms = []
    while alphas[-1] > 0:
        a, b = alphas[-2], alphas[-1]
        n = -(-a // b)
        if n == 2:
            # a run of 2s: the remainders fall by s = a - b down to a mod s
            s = a - b
            run = range(b - s, -1, -s)
            terms += (2,) * len(run)
            alphas += run
        else:
            terms.append(n)
            alphas.append(n * b - a)
    return HJExpansion(alpha, beta, tuple(terms), tuple(alphas))


def hj_evaluate(terms) -> tuple[int, int]:
    """Evaluate a term list bottom-up to the coprime pair (alpha, beta).

    The empty list evaluates to (1, 0).
    """
    _check_terms(terms)
    num, den = 1, 0
    for n in reversed(list(terms)):
        num, den = n * num - den, num
    return num, den


def g_product(terms) -> TwoByTwo:
    """Product G_1 G_2 ... G_lambda of the factors G_i = [[n_i, -1], [1, 0]].

    The first column of the result is (alpha, beta) for the fraction the
    terms evaluate to; each factor and the product have determinant 1.
    """
    _check_terms(terms)
    g = TwoByTwo.identity()
    for n in terms:
        g = g * TwoByTwo(n, -1, 1, 0)
    return g


def _check_terms(terms) -> None:
    for n in terms:
        if not isinstance(n, int) or n < 2:
            raise TermTooSmall(f"term {n!r} is not an integer >= 2")
