"""Each internal check raises InternalCheckError on a planted fault.

No input reaches these raises while the code is right, so each test plants
one fault with ``monkeypatch`` and requires the check's own message.  The
checks raise rather than ``assert``, and the suite also runs under
``python -O``, which shows that each of them still runs under that flag.
Every one of the package's checks is reached by a single fault, three of
them only by a fault in the very quantity they compare:
  * the parity of (r - 2)(g - 1): r odd has odd divisors only, so only a
    wrong gcd makes g even;
  * the tip equation of the arm: once the tail a_lambda = -(r - 2) holds,
    only a wrong last term n_lambda, which the recurrence reads only to form
    a_{lambda+1}, breaks it, and on r = 3 not even that;
  * the c2 identity: once 12 | c1^2 + c2, the Hodge numbers give c2 back for
    any (c1^2, c2), so only a wrong ``HodgeDiamond.c2`` breaks it.
"""

from math import gcd

import pytest

from linesurf import (Profile, build_resolution_graph, canonical_coefficients, catalog_profile,
                      coefficients_from_matrix, global_invariants, hodge_diamond, weight_data)
from linesurf import local, resolution, surface, verify
from linesurf.errors import InternalCheckError
from linesurf.hjcf import HJExpansion, hj_expand
from linesurf.record import set_field

HESSE = catalog_profile("hesse").profile


def raises(message):
    return pytest.raises(InternalCheckError, match=message)


def expansion_with(index):
    """``hj_expand`` whose term at ``index`` is one too large."""
    def wrong(alpha, beta):
        terms = list(hj_expand(alpha, beta).terms)
        terms[index] += 1
        return HJExpansion(alpha, beta, tuple(terms))
    return wrong


class TestLocal:
    def test_tail_coefficient(self, monkeypatch):
        # (3, 7) expands 7/2 as (4, 2): a wrong first term moves a_lambda
        monkeypatch.setattr(local, "hj_expand", expansion_with(0))
        with raises(r"^tail coefficient is not -\(r-2\) for \(r, d\)=\(3, 7\)$"):
            canonical_coefficients(3, 7)

    @pytest.mark.parametrize("d, lam", [(7, 3), (9, 2)])
    def test_tip_equation(self, monkeypatch, d, lam):
        # (4, 7) expands 7/3 as (2, 2, 3): a wrong last term leaves the tail as it
        # is and breaks the arm's last equation; (4, 9), blown down, expands 9/2
        # as (5, 2) and drops a_0 only after the check
        monkeypatch.setattr(local, "hj_expand", expansion_with(-1))
        with raises(rf"^arm equation {lam} fails for \(r, d\)=\(4, {d}\)$"):
            canonical_coefficients(4, d)

    def test_central_equation(self, monkeypatch):
        # (3, 3) has no arms, so a_0 = (2 - r) alpha + w3 - 1 alone meets the
        # central equation
        weights = local._weights

        def wrong_w3(r, d):
            g, alpha, w3, *rest = weights(r, d)
            return (g, alpha, w3 + 1, *rest)

        monkeypatch.setattr(local, "_weights", wrong_w3)
        with raises(r"^central equation fails for \(r, d\)=\(3, 3\)$"):
            canonical_coefficients(3, 3)


class TestResolution:
    def test_blown_down_root_weight(self, monkeypatch):
        # d = 1 (mod r): the first term of d/beta must be r + 1
        monkeypatch.setattr(resolution, "hj_expand", expansion_with(0))
        with raises(r"^blown-down root weight is not r for \(r, d\)=\(3, 7\)$"):
            build_resolution_graph(3, 7)

    def test_central_genus_parity(self, monkeypatch):
        # gcd(3, 8) = 1 read as 2: alpha = 4 still divides 1 + b'beta = 4,
        # but (r - 2)(g - 1) = 1 is odd
        monkeypatch.setattr(resolution, "gcd", lambda a, b: gcd(a, b) + 1)
        with raises(r"^central genus not integral for \(r, d\)=\(3, 8\)$"):
            weight_data(3, 8)


class TestVerify:
    def test_non_integral_coefficients(self, monkeypatch):
        # the (3, 7) matrix has determinant 49, not +-1, and its inverse's first
        # column is not integral
        monkeypatch.setattr(verify, "adjunction_rhs", lambda graph: [1] + [0] * 5)
        with raises(r"^non-integral coefficients .* for \(r, d\)=\(3, 7\)$"):
            coefficients_from_matrix(build_resolution_graph(3, 7))


class TestSurface:
    def test_singular_model_identity(self):
        # MY = (d - 1) sum t_r (r - 1)(3 - r) holds only on a balanced profile
        p = Profile(12, ((2, 12), (4, 9)))
        set_field(p, "t", ((2, 13), (4, 9)))  # one node more, after the balance check
        with raises(r"^MY of the singular model disagrees for Profile\(d=12, "):
            surface.base_invariants(p)

    def test_miyaoka_yau_sum(self, monkeypatch):
        my_tilde = surface.my_tilde
        monkeypatch.setattr(surface, "my_tilde", lambda p: my_tilde(p) + 1)
        with raises(r"^MY is not 3 c2 - c1\^2 for Profile\(d=12, "):
            global_invariants(HESSE)

    def test_noether(self, monkeypatch):
        chern_numbers = surface.chern_numbers

        def wrong(p):
            c1sq, c2 = chern_numbers(p)
            return c1sq + 1, c2

        monkeypatch.setattr(surface, "chern_numbers", wrong)
        with raises(r"^12 does not divide c1\^2 \+ c2 = 697 for Profile\(d=12, "):
            hodge_diamond(HESSE, 3)

    def test_hodge_numbers_give_c2(self, monkeypatch):
        c2 = surface.HodgeDiamond.c2
        monkeypatch.setattr(surface.HodgeDiamond, "c2", property(lambda h: c2.fget(h) + 1))
        with raises(r"^Hodge numbers do not give c2 for Profile\(d=12, .*\), q=3$"):
            hodge_diamond(HESSE, 3)
