"""Closed-form local invariants of a single singularity G_r(u, v) + t^d = 0.

One derivation for every pair: on the weighted-homogeneous star, a_0 and a_1
have closed forms, and one pass of the adjunction system's three-term arm
recurrence over n_1, ..., n_lambda gives a_2, ..., a_{lambda+1}, so arm
equations 1 to lambda - 1 hold by construction.  The pass is checked at the
system's ends: the tail a_lambda = -(r-2) on stars with arms, then the central
equation, then the tip a_{lambda+1} = 0, which is arm equation lambda.
When d = 1 (mod r) the centre E_0 is a (-1)-curve (central weight b = 1), and
contracting it gives the minimal blown-down star; as K_{X'} = pi*K_X + E_0,
the other coefficients do not change, so that shape keeps (a_1, ..., a_lambda),
the progression a_k = -(r-2)(lambda+1-k).  DCI and DCII of a star read only
the arm length lambda and the term sum of alpha/beta, in O(log d) steps from
``hj_summary``'s run walk on the checked weights of ``resolution._weights``.
The rows with d = 0, 1 (mod r) cost O(1) and read no weights: the blown-down
star's, and the star's when d = 0 (mod r), whose g = b = r and whose arms are
d/r - 1 (-2)-curves each.  ``resolution._check_germ`` checks (r, d) before
``local_invariants`` reads d mod r.  A node, r = 2, is one of these two
shapes by the parity of d, and both give its crepant row DCI = 0, DCII = d - 1.

The quadruple (DCI, DCII, DMY, E) records the changes in c_1^2, the Euler
number, the Miyaoka-Yau number, and the per-point Miyaoka-Yau contribution
E = DMY + (d-1)(r-1)(3-r).  A report computes one per multiplicity, so
``LocalInvariants`` and ``CanonicalCoefficients`` are NamedTuples, each built
as one tuple, where a ``linesurf.record.Record`` such as ``Profile`` sets each
field through ``object.__setattr__``.  ``local_invariants`` builds its row
through ``tuple.__new__``, one C call, not the Python ``__new__`` that
NamedTuple generates; the row's type, fields, equality and repr are the same.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalCheckError
from .hjcf import _run_walk, hj_expand
from .resolution import BLOWN_DOWN_STAR, STAR, _check_germ, _weights


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
    g, alpha, w3, _, beta, b, _ = _weights(r, d)
    terms = hj_expand(alpha, beta).terms
    # b/g = (1 + b'beta)/alpha; with no arms a_1 = 0 is already the tip a_{lambda+1}
    vals = [(2 - r) * alpha + w3 - 1, (2 - r) * beta + b // g - 1]
    for k, n_k in enumerate(terms, 1):
        # arm equation k: -n_k a_k + a_{k-1} + a_{k+1} = n_k - 2
        vals.append(n_k * vals[k] - vals[k - 1] + n_k - 2)
    if terms and vals[-2] != -(r - 2):
        raise InternalCheckError(f"tail coefficient is not -(r-2) for (r, d)=({r}, {d})")
    if -b * vals[0] + r * vals[1] != (r - 2) * (g - 1) - 2 + b:
        raise InternalCheckError(f"central equation fails for (r, d)=({r}, {d})")
    if vals.pop():  # a_{lambda+1} = 0
        raise InternalCheckError(f"arm equation {len(terms)} fails for (r, d)=({r}, {d})")
    if d % r == 1:
        # E_0 is a (-1)-curve and K_{X'} = pi*K_X + E_0: contracting it drops a_0 only
        return CanonicalCoefficients(r, d, BLOWN_DOWN_STAR, tuple(vals[1:]))
    return CanonicalCoefficients(r, d, STAR, tuple(vals))


def local_invariants(r: int, d: int) -> LocalInvariants:
    _check_germ(r, d)  # before d % r: r = 0 must raise BadMultiplicity, not ZeroDivisionError
    m = d % r
    if m == 1:
        # the star's row plus the contraction's (+1, -1), in O(1); reading the star
        # forms here instead costs odd-d nodes a run walk on every report
        dci = -(d - 1) * (r - 2) ** 2
        dcii = d - 1
    elif m == 0:
        # g = b = r, b' = 1, beta = alpha - 1: each arm is d/r - 1 (-2)-curves, so
        # lambda = d/r - 1 and the term sum 2 lambda reduce the star forms below
        dci = -d * (r - 2) ** 2
        dcii = d - r + 1 - (r - 1) * (r - 2)
    else:
        g, alpha, _, _, beta, b, _ = _weights(r, d)
        lam, term_sum = _run_walk(alpha, beta)
        dci = (-d * (r - 2) ** 2
               - r * (term_sum - 2 * lam)
               + 2 * (r - 2) * (r - g)
               + (r - b))
        dcii = 1 + r * lam - (r - 2) * (g - 1)
    dmy = 3 * dcii - dci
    e = dmy + (d - 1) * (r - 1) * (3 - r)
    # one C call, not the generated Python __new__ (see the module docstring)
    return tuple.__new__(LocalInvariants, (r, d, dci, dcii, dmy, e))

