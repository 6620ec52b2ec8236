"""Hirzebruch-Jung continued fractions.

The expansion of a rational alpha/beta uses minus signs throughout:

    alpha/beta = n_1 - 1/(n_2 - 1/(... - 1/n_lambda)),   all n_i >= 2,

and is the combinatorial backbone of the cyclic-quotient arm chains in the
resolution graphs.  ``modular_beta`` gives the beta the resolution uses.

``hj_expand`` takes one term per step of the remainder recurrence; graphs and
canonical coefficients, its callers, build O(lambda) output anyway.
``hj_summary`` keeps only lambda and the term sum, which the local invariants
read when d mod r >= 2, and is the one walk that takes a run of 2s in one step:
O(log alpha) steps even when lambda is about alpha.  The oracle's graphs come
from the first walk and those rows from the second, so each checks the other;
the O(1) rows of d = 0, 1 (mod r) read neither.

Two unchecked helpers serve ``resolution._weights``, which has already checked
(r, d) in ``_check_germ``: ``_neg_inverse`` is ``modular_beta`` without its
checks, and ``_run_walk`` is ``hj_summary``'s loop without its checks.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import BadParameter, BetaOutOfRange, NotCoprime
from .record import _repr


class HJExpansion(NamedTuple):
    """The terms n_1, ..., n_lambda of the expansion of alpha/beta."""

    alpha: int
    beta: int
    terms: tuple[int, ...]

    @property
    def length(self) -> int:
        """Number of terms (the arm length lambda)."""
        return len(self.terms)


def modular_beta(alpha: int, bprime: int) -> int:
    """Unique beta with 0 < beta < alpha and bprime * beta = -1 (mod alpha).

    Returns 0 when alpha = 1 (the no-arms convention).
    """
    if not type(alpha) is type(bprime) is int:
        raise BadParameter(f"alpha and bprime must be ints, got {_repr(alpha)} and {_repr(bprime)}")
    if alpha < 1 or bprime < 1:
        raise BetaOutOfRange(
            f"need alpha >= 1 and bprime >= 1, got ({_repr(alpha)}, {_repr(bprime)})")
    if gcd(alpha, bprime) != 1:
        raise NotCoprime(f"gcd({_repr(alpha)}, {_repr(bprime)}) != 1")
    return _neg_inverse(alpha, bprime)


def _neg_inverse(alpha: int, bprime: int) -> int:
    """``modular_beta``'s value without its checks, for the coprime pair
    alpha = d/g, b' = r/g of ``resolution._weights``; ``pow`` still raises
    ValueError when no inverse exists."""
    return -pow(bprime, -1, alpha) % alpha


def hj_expand(alpha: int, beta: int) -> HJExpansion:
    """Expand alpha/beta, 0 < beta < alpha coprime, into terms all >= 2.

    The pair (1, 0) is accepted and yields the empty expansion.
    Uses the remainder recurrence alpha_{i+1} = n_i alpha_i - alpha_{i-1}
    with n_i = ceil(alpha_{i-1} / alpha_i), one term per step; the expansion
    is unique.  Only ``hj_summary`` takes a run of 2s in one step.
    """
    _check_pair(alpha, beta)
    a, b = alpha, beta
    terms = []
    while b > 0:
        n = -(-a // b)
        terms.append(n)
        a, b = b, n * b - a
    return HJExpansion(alpha, beta, tuple(terms))


def hj_summary(alpha: int, beta: int) -> tuple[int, int]:
    """(lambda, n_1 + ... + n_lambda) of ``hj_expand(alpha, beta)``.

    Takes the same input, and (1, 0) gives (0, 0).  A run of 2s at the
    remainder pair (a, b), s = a - b, adds k = a // s - 1 terms and moves to
    the pair (a mod s + s, a mod s), so no term is stored and the loop takes
    O(log alpha) steps.
    """
    _check_pair(alpha, beta)
    return _run_walk(alpha, beta)


def _run_walk(alpha: int, beta: int) -> tuple[int, int]:
    """``hj_summary``'s loop without its checks, for a pair that
    ``resolution._weights`` has already decided: alpha | 1 + b'beta with
    0 <= beta < alpha gives gcd(alpha, beta) = 1, and beta = 0 only when
    alpha = 1, which the loop maps to (0, 0)."""
    a, b = alpha, beta
    length = total = 0
    while b > 0:
        n = -(-a // b)
        if n == 2:
            s = a - b
            k = a // s - 1
            length += k
            total += 2 * k
            a, b = a % s + s, a % s
        else:
            length += 1
            total += n
            a, b = b, n * b - a
    return length, total


def _check_pair(alpha: int, beta: int) -> None:
    """Check that alpha and beta are ints with 0 < beta < alpha coprime, or
    the pair (1, 0), which both walks map to the empty expansion."""
    if not type(alpha) is type(beta) is int:
        raise BadParameter(f"alpha and beta must be ints, got {_repr(alpha)} and {_repr(beta)}")
    if not 0 < beta < alpha and (alpha, beta) != (1, 0):
        raise BetaOutOfRange(
            f"need 0 < beta < alpha with alpha >= 2, got ({_repr(alpha)}, {_repr(beta)})")
    if gcd(alpha, beta) != 1:
        raise NotCoprime(f"gcd({_repr(alpha)}, {_repr(beta)}) != 1")
