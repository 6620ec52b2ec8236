"""Closed-form local invariants of a single singularity G_r(u, v) + t^d = 0.

Two branches, mirroring the resolution shapes:

  d = 1 (mod r)      blown-down star; discrepancies are the arithmetic
                     progression a_k = -(r-2)(lambda+1-k).
  otherwise          star; a_0, a_1 and a_lambda have closed forms and the
                     interior entries follow the three-term recurrence of the
                     adjunction system, which is re-verified before returning.
                     DCI and DCII read only the arm length lambda and the
                     term sum of alpha/beta, from ``hj_summary`` in
                     O(log d) steps.

A node, r = 2, falls into these branches by the parity of d, and both give its
crepant row DCI = 0, DCII = d - 1 (for d even, g = b = 2 and the arm is all
2s).

The quadruple (DCI, DCII, DMY, E) records the changes in c_1^2, the Euler
number, the Miyaoka-Yau number, and the per-point Miyaoka-Yau contribution
E = DMY + (d-1)(r-1)(3-r).  A report computes one per multiplicity, so
``LocalInvariants`` and ``CanonicalCoefficients`` are NamedTuples, each built
as one tuple, where a ``linesurf.record.Record`` such as ``Profile`` sets each
field through ``object.__setattr__``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalCheckError
from .hjcf import hj_expand, hj_summary
from .resolution import BLOWN_DOWN_STAR, STAR, weight_data


class CanonicalCoefficients(NamedTuple):
    """Exceptional-curve coefficients of the canonical divisor, one per depth.

    Star: (a_0, a_1, ..., a_lambda) with a_0 on the central curve.
    Blown-down star: (a_1, ..., a_lambda).
    """

    r: int
    d: int
    shape: str
    values: tuple[int, ...]


class LocalInvariants(NamedTuple):
    r: int
    d: int
    dci: int
    dcii: int
    dmy: int
    e: int


def canonical_coefficients(r: int, d: int) -> CanonicalCoefficients:
    wd = weight_data(r, d)
    if d % r == 1:
        lam = (d - 1) // r
        values = tuple(-(r - 2) * (lam + 1 - k) for k in range(1, lam + 1))
        _check_blown_down_system(r, d, lam, values)
        return CanonicalCoefficients(r, d, BLOWN_DOWN_STAR, values)
    exp = hj_expand(wd.w1, wd.beta)
    lam = exp.length
    a0 = (2 - r) * wd.w1 + wd.w3 - 1
    vals = [a0]
    if lam >= 1:
        vals.append((2 - r) * wd.beta + wd.b // wd.g - 1)  # b/g = (1 + b'beta)/alpha
        for k in range(1, lam):
            n_k = exp.terms[k - 1]
            vals.append(n_k * vals[k] - vals[k - 1] + n_k - 2)
        if vals[-1] != -(r - 2):
            raise InternalCheckError(f"tail coefficient is not -(r-2) for (r, d)=({r}, {d})")
    _check_star_system(wd, exp.terms, vals)
    return CanonicalCoefficients(r, d, STAR, tuple(vals))


def local_invariants(r: int, d: int) -> LocalInvariants:
    wd = weight_data(r, d)
    if d % r == 1:
        dci = -(d - 1) * (r - 2) ** 2
        dcii = d - 1
    else:
        lam, term_sum = hj_summary(wd.w1, wd.beta)
        dci = (-d * (r - 2) ** 2
               - r * (term_sum - 2 * lam)
               + 2 * (r - 2) * (r - wd.g)
               + (r - wd.b))
        dcii = 1 + r * lam - (r - 2) * (wd.g - 1)
    dmy = 3 * dcii - dci
    return LocalInvariants(r, d, dci, dcii, dmy, dmy + (d - 1) * (r - 1) * (3 - r))


def _check_star_system(wd, terms, vals) -> None:
    """Residual check of the adjunction system for the star shape."""
    r, lam = wd.r, len(terms)
    a = list(vals) + [0]  # a_{lambda+1} = 0
    first = -wd.b * a[0] + (r * a[1] if lam >= 1 else 0)
    if first != (r - 2) * (wd.g - 1) - 2 + wd.b:
        raise InternalCheckError(f"central equation fails for (r, d)=({r}, {wd.d})")
    for k in range(1, lam + 1):
        n_k = terms[k - 1]
        if -n_k * a[k] + a[k - 1] + a[k + 1] != n_k - 2:
            raise InternalCheckError(f"arm equation {k} fails for (r, d)=({r}, {wd.d})")


def _check_blown_down_system(r, d, lam, values) -> None:
    """Residual check after blowing the central curve down; the root equation
    picks up (r-1) copies of a_1 from the pairwise-adjacent roots."""
    a = list(values) + [0]
    if -r * a[0] + (a[1] if lam >= 2 else 0) + (r - 1) * a[0] != r - 2:
        raise InternalCheckError(f"root equation fails for (r, d)=({r}, {d})")
    for k in range(2, lam + 1):
        if -2 * a[k - 1] + a[k - 2] + a[k] != 0:
            raise InternalCheckError(f"arm equation {k} fails for (r, d)=({r}, {d})")
