"""Global invariants, verdicts, Hodge numbers, and ratio decomposition tests."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from linesurf import (
    Profile,
    base_invariants,
    catalog_profile,
    chern_numbers,
    chern_ratio_analysis,
    global_invariants,
    hodge_diamond,
    is_pencil,
    local_invariants,
    my_tilde,
    surface,
    validate_profile,
    verdict,
)
from linesurf.arrangement import CATALOG
from linesurf.errors import (
    NegativeHodgeNumber,
    UnbalancedProfile,
    ZeroSecondChern,
)


def balanced_profiles(draw):
    """Draw a balanced profile by splitting d(d-1)/2 pairs greedily."""
    d = draw(st.integers(min_value=3, max_value=24))
    remaining = d * (d - 1) // 2
    t: dict[int, int] = {}
    while remaining > 0:
        top = max(r for r in range(2, d + 1) if r * (r - 1) // 2 <= remaining)
        r = draw(st.integers(min_value=2, max_value=top))
        t[r] = t.get(r, 0) + 1
        remaining -= r * (r - 1) // 2
    return validate_profile(d, t)


profiles = st.composite(balanced_profiles)()


class TestBaseInvariants:
    def test_hesse(self):
        p = catalog_profile("hesse").profile
        assert base_invariants(p) == (768, 201, -165)

    def test_generic_small(self):
        p = catalog_profile("generic", 4).profile
        k2, chi, my = base_invariants(p)
        assert (k2, chi) == (0, 6)
        assert my == 3 * chi - k2

    def test_refuses_unbalanced(self):
        # an unbalanced profile cannot be built, so no operation sees one
        with pytest.raises(UnbalancedProfile):
            Profile(5, ((2, 3),))


class TestChernNumbers:
    def test_published_values(self):
        assert chern_numbers(catalog_profile("hesse").profile) == (336, 360)
        assert chern_numbers(catalog_profile("ceva", 2).profile) == (0, 36)
        assert chern_numbers(catalog_profile("ceva", 3).profile) == (117, 135)
        assert chern_numbers(catalog_profile("braid", 4).profile) == (270, 390)

    def test_d3_pencil_is_trivial(self):
        assert chern_numbers(catalog_profile("pencil", 3).profile) == (0, 0)

    @given(profiles)
    def test_my_identity(self, p):
        gi = global_invariants(p)
        assert gi.my_tilde == 3 * gi.c2 - gi.c1sq
        assert gi.my_tilde == my_tilde(p)
        assert gi.my_bar == 3 * gi.chi_bar - gi.k2_bar


class TestVerdict:
    def test_pencil_signs(self):
        for d in (4, 9, 20):
            p = catalog_profile("pencil", d).profile
            v = verdict(p)
            assert v.pencil and v.my_sign == -1
            assert my_tilde(p) == 2 * d * (3 - d)

    def test_near_pencil_positive(self):
        for d in (4, 7, 15):
            p = catalog_profile("near-pencil", d).profile
            assert my_tilde(p) == 4 * d * (d - 1)
            assert verdict(p).my_sign == 1

    def test_sign_from_its_own_chern_numbers(self, monkeypatch):
        # MY = 3 c2 - c1^2 from verdict's one chern_numbers call; the sum of
        # E is my_tilde's, and global_invariants checks one against the other
        calls = []

        def counted(p):
            calls.append(p)
            return chern_numbers(p)

        def refuse(p):
            pytest.fail("verdict called my_tilde")

        monkeypatch.setattr(surface, "chern_numbers", counted)
        monkeypatch.setattr(surface, "my_tilde", refuse)
        for name, param, sign in (("pencil", 5, -1), ("pencil", 3, 0), ("hesse", None, 1)):
            p = catalog_profile(name, param).profile
            calls.clear()
            assert verdict(p).my_sign == sign and calls == [p]

    def test_d3_pencil(self):
        v = verdict(catalog_profile("pencil", 3).profile)
        assert v.my_sign == 0 and v.general_type == "No"
        assert not v.ball_quotient_possible

    def test_general_type_routes(self):
        assert verdict(catalog_profile("hesse").profile).general_type == "Yes"
        assert verdict(catalog_profile("hesse").profile).reason == "c1sq-exceeds-9"
        braid7 = catalog_profile("braid", 7).profile
        assert verdict(braid7).general_type == "Yes"
        small = catalog_profile("generic", 4).profile  # c1^2 = 0, d < 7
        assert verdict(small).general_type == "Unknown"

    def test_nodes_and_triples_always_general_type(self):
        # the paper's criterion for d >= 7 falls under c1^2 > 9: with
        # t_3 <= d(d-1)/6, c1^2 >= d[(d-4)^2 - d(d-1)/6] >= 14
        count = 0
        for d in range(7, 61):
            pairs = comb(d, 2)
            for t3 in range(pairs // 3 + 1):
                t = {r: c for r, c in ((2, pairs - 3 * t3), (3, t3)) if c}
                p = validate_profile(d, t)
                v = verdict(p)
                assert (v.general_type, v.reason) == ("Yes", "c1sq-exceeds-9"), (d, t3)
                c1sq, _ = chern_numbers(p)
                assert 6 * c1sq >= d * (6 * (d - 4) ** 2 - d * (d - 1)) >= 6 * 14, (d, t3)
                count += 1
        assert count == 12033

    def test_triple_point_dci_closed_form(self):
        # DCI_{3,d} = -(d - d mod 3): see the verdict docstring
        for d in [*range(3, 3001), 10 ** 40, 10 ** 40 + 1, 10 ** 40 + 2]:
            assert local_invariants(3, d).dci == -(d - d % 3), d

    def test_ball_quotient_never_possible(self):
        for name, param in (("hesse", None), ("pencil", 3), ("pencil", 8),
                            ("generic", 10), ("braid", 5)):
            p = catalog_profile(name, param).profile
            assert not verdict(p).ball_quotient_possible


class TestHodge:
    def test_hesse(self):
        hd = hodge_diamond(catalog_profile("hesse").profile, 3)
        assert (hd.pg, hd.h11) == (60, 250)
        assert hd.c2 == 360

    def test_ceva(self):
        assert hodge_diamond(catalog_profile("ceva", 2).profile, 1).pg == 3
        assert hodge_diamond(catalog_profile("ceva", 2).profile, 1).h11 == 32
        hd = hodge_diamond(catalog_profile("ceva", 3).profile, 2)
        assert (hd.pg, hd.h11) == (22, 97)

    def test_negative_q(self):
        with pytest.raises(NegativeHodgeNumber):
            hodge_diamond(catalog_profile("hesse").profile, -1)

    def test_unrealizable_pair(self):
        # the d = 3 pencil has c1^2 = c2 = 0, so q = 0 would force pg = -1
        with pytest.raises(NegativeHodgeNumber):
            hodge_diamond(catalog_profile("pencil", 3).profile, 0)

    @given(profiles, st.integers(min_value=0, max_value=3))
    def test_euler_consistency(self, p, q):
        try:
            hd = hodge_diamond(p, q)
        except NegativeHodgeNumber:
            return
        _, c2 = chern_numbers(p)
        assert 2 - 4 * q + 2 * hd.pg + hd.h11 == c2


class TestChernRatio:
    def test_hesse_ratio(self):
        out = chern_ratio_analysis(catalog_profile("hesse").profile)
        assert out["ratio"] == Fraction(14, 15)
        assert out["nodes_triples_form"] is None

    def test_zero_c2(self):
        with pytest.raises(ZeroSecondChern):
            chern_ratio_analysis(catalog_profile("pencil", 3).profile)

    def test_nodes_triples_decomposition(self):
        p = catalog_profile("braid", 4).profile  # d = 10, only t_2, t_3
        out = chern_ratio_analysis(p)
        form = out["nodes_triples_form"]
        assert form is not None
        assert out["ratio"] == Fraction(1, 3) * (1 + Fraction(2 * form["numer"], form["denom"]))

    def test_global_invariants_ratio_field(self):
        gi = global_invariants(catalog_profile("pencil", 3).profile)
        assert gi.chern_ratio is None
        gi = global_invariants(catalog_profile("hesse").profile)
        assert gi.chern_ratio == Fraction(14, 15)


# --- the report path against the generator sums over local_invariants ---

CATALOG_PARAMS = {"hesse": [None], "ceva": range(2, 9), "braid": range(2, 7),
                  "pencil": range(2, 13), "near-pencil": range(3, 13), "generic": range(2, 13)}


def seeded_profile(rng, d_lo, d_hi):
    """A balanced profile: up to four higher multiplicities, nodes for the rest."""
    d = rng.randint(d_lo, d_hi)
    left, t = comb(d, 2), {}
    for _ in range(rng.randint(0, 4)):
        r = rng.randint(3, min(d, 12))
        if comb(r, 2) <= left:
            k = rng.randint(1, max(1, left // comb(r, 2) // 4))
            t[r] = t.get(r, 0) + k
            left -= k * comb(r, 2)
    if left:
        t[2] = left
    return validate_profile(d, t)


def report_inputs():
    for name, params in CATALOG_PARAMS.items():
        for param in params:
            entry = catalog_profile(name, param)
            yield entry.profile, entry.q
    rng = random.Random(2101)
    for _ in range(200):
        yield seeded_profile(rng, 4, 40), None
    for _ in range(4):
        yield seeded_profile(rng, 2800, 3200), None


class TestReportReference:
    def test_report_matches_the_generator_sums(self):
        assert CATALOG_PARAMS.keys() == CATALOG.keys()
        for p, q in report_inputs():
            d, t = p.d, p.t
            k2 = d * (d - 4) ** 2
            chi = d * (d * d - 4 * d + 6) - (d - 1) * sum(c * (r - 1) ** 2 for r, c in t)
            c1sq = k2 + sum(c * local_invariants(r, d).dci for r, c in t)
            c2 = chi + sum(c * local_invariants(r, d).dcii for r, c in t)
            my = sum(c * local_invariants(r, d).e for r, c in t)
            ratio = Fraction(c1sq, c2) if c2 else None
            assert base_invariants(p) == (k2, chi, 3 * chi - k2), p
            assert list(vars(global_invariants(p)).values()) == [
                k2, chi, 3 * chi - k2, c1sq, c2, my, ratio], p

            pencil = dict(t).get(d, 0) == 1
            v = verdict(p)
            assert (v.pencil, v.my_sign) == (pencil, (my > 0) - (my < 0)), p
            assert v.general_type == ("No" if pencil and d == 3 else
                                      "Yes" if c1sq > 9 else "Unknown"), p

            if c2:
                out = chern_ratio_analysis(p)
                assert out["ratio"] == ratio, p
                only_nodes_triples = set(p.multiplicities) <= {2, 3}
                assert (out["nodes_triples_form"] is not None) == only_nodes_triples, p
            else:
                with pytest.raises(ZeroSecondChern):
                    chern_ratio_analysis(p)

            if q is not None:
                pg = (c1sq + c2) // 12 - 1 + q
                h11 = (5 * c2 - c1sq) // 6 + 2 * q
                if min(pg, h11) < 0:
                    with pytest.raises(NegativeHodgeNumber):
                        hodge_diamond(p, q)
                else:
                    assert hodge_diamond(p, q) == (q, pg, h11), p

    def test_is_pencil_reads_the_last_multiplicity(self):
        for d in range(2, 61):
            assert is_pencil(catalog_profile("pencil", d).profile), d
            if d >= 3:
                assert not is_pencil(catalog_profile("near-pencil", d).profile), d
                assert not is_pencil(catalog_profile("generic", d).profile), d
