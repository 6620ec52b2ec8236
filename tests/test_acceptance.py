"""Acceptance suite: eight end-to-end criteria, all exact (tolerance zero).

Each test prints a single pass/fail line; run `pytest -s tests/test_acceptance.py`
to see them as they complete.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import comb, gcd

from hj_reference import g_product
from linesurf import (
    Arrangement,
    Line,
    build_resolution_graph,
    catalog_profile,
    chern_numbers,
    check_negative_definite,
    global_invariants,
    hj_expand,
    hodge_diamond,
    intersection_matrix,
    is_pencil,
    local_invariants,
    my_tilde,
    profile_of,
    sweep_verify,
    validate_profile,
    verdict,
    weight_data,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_hesse_regression():
    with criterion(1, "hesse regression"):
        p = catalog_profile("hesse").profile
        gi = global_invariants(p)
        assert (gi.k2_bar, gi.chi_bar) == (768, 201)
        assert (gi.c1sq, gi.c2) == (336, 360)
        assert gi.chern_ratio == Fraction(14, 15)
        hd = hodge_diamond(p, 3)
        assert (hd.pg, hd.h11) == (60, 250)


def test_criterion_2_ceva_regressions():
    with criterion(2, "ceva regressions"):
        p2 = catalog_profile("ceva", 2).profile
        hd2 = hodge_diamond(p2, 1)
        assert chern_numbers(p2) + (hd2.pg, hd2.h11) == (0, 36, 3, 32)
        p3 = catalog_profile("ceva", 3).profile
        hd3 = hodge_diamond(p3, 2)
        assert chern_numbers(p3) + (hd3.pg, hd3.h11) == (117, 135, 22, 97)
        for m in range(4, 13):
            c1sq, c2 = chern_numbers(catalog_profile("ceva", m).profile)
            assert c1sq == 3 * m * (m - 2) * (5 * m - 2)
            assert c2 == 9 * m * (m * m - 2 * m + 2)


def _braid_closed_forms(n):
    """Chern numbers of the resolved braid arrangement surface, n-indexed."""
    if n % 3 == 1:
        c1_num = n * (n + 1) * (3 * n**2 * (n**2 - 15) + 2 * n * (2 * n**2 - 21) + 188)
        c2_num = n * (n + 1) * (n**4 - 7 * n**2 - 2 * n + 20)
    else:
        c1_num = n * (n + 1) * (n - 2) * (n - 3) * (3 * n**2 + 19 * n + 32)
        c2_num = n * (n + 1) * (n - 2) * (n**3 + 2 * n**2 - 3 * n - 12)
    assert c1_num % 24 == 0 and c2_num % 8 == 0
    return c1_num // 24, c2_num // 8


def test_criterion_3_braid_regressions():
    with criterion(3, "braid regressions"):
        assert chern_numbers(catalog_profile("braid", 4).profile) == (270, 390)
        assert _braid_closed_forms(4) == (270, 390)
        for n in range(2, 11):
            aggregated = chern_numbers(catalog_profile("braid", n).profile)
            assert aggregated == _braid_closed_forms(n), n


def test_criterion_4_local_invariant_table():
    with criterion(4, "local invariant table"):
        for d in range(2, 121):
            inv = local_invariants(2, d)
            assert (inv.dci, inv.dcii) == (0, d - 1)
        for r in range(3, 11):
            for d in range(r, 121):
                inv = local_invariants(r, d)
                if d % r == 0:
                    expected = (-d * (r - 2) ** 2, d - (r - 1) ** 2)
                elif d % r == 1:
                    expected = (-(d - 1) * (r - 2) ** 2, d - 1)
                elif d % r == r - 1:
                    expected = (-d * (r - 2) ** 2 + (2 * r - 5) * (r - 1),
                                d + (r - 1) * (r - 2))
                else:
                    continue
                assert (inv.dci, inv.dcii) == expected, (r, d)


def test_criterion_5_oracle_equivalence():
    with criterion(5, "oracle equivalence"):
        reports = sweep_verify(10, 60)
        assert len(reports) == sum(61 - r for r in range(2, 11))
        assert all(rep.ok for rep in reports)
        for r in range(2, 11):
            for d in range(r, 61):
                m = intersection_matrix(build_resolution_graph(r, d))
                assert check_negative_definite(m), (r, d)


def _random_arrangement_profile(rng):
    """Profile of a random non-pencil arrangement over a small line pool."""
    while True:
        d = rng.randint(3, 30)
        lines = set()
        while len(lines) < d:
            a, b, c = (rng.randint(-3, 3) for _ in range(3))
            if (a, b, c) != (0, 0, 0):
                lines.add(Line.of(a, b, c))
        p = profile_of(Arrangement(tuple(sorted(lines, key=str))))
        if not is_pencil(p):
            return p


def test_criterion_6_trichotomy():
    with criterion(6, "Miyaoka-Yau trichotomy"):
        for d in range(4, 41):
            p = catalog_profile("pencil", d).profile
            assert my_tilde(p) == 2 * d * (3 - d) < 0
            assert verdict(p).my_sign == -1
        for d in range(3, 41):
            p = catalog_profile("near-pencil", d).profile
            assert my_tilde(p) == 4 * d * (d - 1) > 0
        p3 = catalog_profile("pencil", 3).profile
        assert my_tilde(p3) == 0 and chern_numbers(p3) == (0, 0)
        assert verdict(p3).my_sign == 0
        rng = random.Random(20260823)
        for _ in range(200):
            p = _random_arrangement_profile(rng)
            assert my_tilde(p) > 0, p


def test_criterion_7_structural_identities():
    with criterion(7, "structural identities"):
        for d in range(2, 41):
            for r in range(2, d + 1):
                wd = weight_data(r, d)
                # genus of the central curve, two expressions
                w = (wd.w1, wd.w1, wd.w3)  # the weights (w1, w2, w3), w2 = w1
                alt = Fraction(wd.N ** 2, w[0] * w[1] * w[2])
                for i in range(3):
                    for j in range(i + 1, 3):
                        alt -= Fraction(wd.N * gcd(w[i], w[j]), w[i] * w[j])
                alt += sum(Fraction(gcd(wd.N, wi), wi) for wi in w)
                alt -= 1
                assert alt / 2 == wd.genus0 == Fraction((r - 2) * (wd.g - 1), 2)
                # matrix product: determinant one and pinned second column
                exp = hj_expand(wd.w1, wd.beta)
                g = g_product(exp.terms)
                assert g.det() == 1
                assert (g.a, g.c) == (wd.w1, wd.beta)
                assert g.b == wd.w3 - wd.w1
                assert g.d == (1 + wd.w3 * wd.beta) // wd.w1 - wd.beta
        for d in range(2, 61):
            for r in range(2, d + 1):
                assert local_invariants(r, d).e > -2 * r * (r - 1), (r, d)
        for d in range(4, 201):
            assert local_invariants(3, d).e >= 4 * (d - 3), d
        # 12 | c1^2 + c2 for every balanced profile with d <= 400: with t_2
        # eliminated, c1^2 + c2 is the generic value plus, for each r >= 3,
        # t_r times the change that one r-fold point makes in place of C(r, 2)
        # nodes; chi loses (d-1)(r-1)^2 and gets (d-1) C(r, 2) back
        for d in range(2, 401):
            pairs = comb(d, 2)
            generic = sum(chern_numbers(validate_profile(d, {2: pairs})))
            assert generic % 12 == 0, d
            node = local_invariants(2, d)
            for r in range(3, d + 1):
                inv = local_invariants(r, d)
                change = (inv.dci + inv.dcii - (d - 1) * (r - 1) ** 2
                          - comb(r, 2) * (node.dci + node.dcii - (d - 1)))
                assert change % 12 == 0, (d, r)
                if d <= 40:
                    t = {k: c for k, c in ((2, pairs - comb(r, 2)), (r, 1)) if c}
                    assert change == sum(chern_numbers(validate_profile(d, t))) - generic
        entries = ([catalog_profile("hesse")]
                   + [catalog_profile("ceva", m) for m in range(2, 13)]
                   + [catalog_profile("braid", n) for n in range(2, 11)])
        for entry in entries:
            assert entry.q is not None
            c1sq, c2 = chern_numbers(entry.profile)
            assert (c1sq + c2 + 12 * (entry.q - 1)) % 12 == 0
            hodge_diamond(entry.profile, entry.q)  # must not raise


def test_criterion_8_nodes_triples_monotonicity():
    with criterion(8, "nodes/triples ratio monotonicity"):
        for d in (7, 10, 13):
            pairs = comb(d, 2)
            previous = None
            for t3 in range(pairs // 3 + 1):
                t = {r: c for r, c in ((2, pairs - 3 * t3), (3, t3)) if c}
                p = validate_profile(d, t)
                gi = global_invariants(p)
                assert gi.chern_ratio is not None
                if previous is not None:
                    assert gi.chern_ratio >= previous, (d, t3)
                previous = gi.chern_ratio
                assert verdict(p).general_type == "Yes", (d, t3)
