"""Closed-form local invariants and canonical coefficient tests."""

import pytest
from hypothesis import given, strategies as st

from linesurf import canonical_coefficients, hj_expand, hj_summary, local_invariants, weight_data
from linesurf.errors import BadMultiplicity
from linesurf.local import LocalInvariants
from linesurf.resolution import BLOWN_DOWN_STAR, STAR


def expansion_star_invariants(r, d):
    """(DCI, DCII) of a star from the full expansion's terms: the reference
    for ``local_invariants``, which reads only ``hj_summary``."""
    wd = weight_data(r, d)
    exp = hj_expand(wd.w1, wd.beta)
    dci = (-d * (r - 2) ** 2
           - r * (sum(exp.terms) - 2 * exp.length)
           + 2 * (r - 2) * (r - wd.g)
           + (r - wd.b))
    dcii = 1 + r * exp.length - (r - 2) * (wd.g - 1)
    return dci, dcii


def weight_system_row(r, d):
    """(DCI, DCII) by the rule ``local_invariants`` followed before it took
    d = 0 (mod r) in closed form: the blown-down row when d = 1 (mod r), else
    the star forms from the public ``weight_data`` and ``hj_summary``."""
    if d % r == 1:
        return -(d - 1) * (r - 2) ** 2, d - 1
    wd = weight_data(r, d)
    lam, term_sum = hj_summary(wd.w1, wd.beta)
    dci = (-d * (r - 2) ** 2
           - r * (term_sum - 2 * lam)
           + 2 * (r - 2) * (r - wd.g)
           + (r - wd.b))
    return dci, 1 + r * lam - (r - 2) * (wd.g - 1)


# degrees far past any graph the oracle could build: only the closed forms answer
HUGE_DEGREES = [10**40 + 1, 10**40 + 2, 3**90, 2**130, 2**130 + 1]

rd_pairs = st.integers(min_value=2, max_value=60).flatmap(
    lambda d: st.tuples(st.integers(min_value=2, max_value=d), st.just(d)))


class TestCanonicalCoefficients:
    def test_chain_is_crepant(self):
        # the A_5 chain of (2, 6) is a star: a_0, a_1 and a_2 all vanish
        cc = canonical_coefficients(2, 6)
        assert cc.shape == STAR
        assert cc.values == (0, 0, 0)

    def test_star_example(self):
        cc = canonical_coefficients(3, 3)
        assert cc.shape == STAR
        assert cc.values == (-1,)
        cc = canonical_coefficients(3, 5)
        assert cc.values[0] == -3 and cc.values[-1] == -1

    def test_blown_down_progression(self):
        cc = canonical_coefficients(3, 7)
        assert cc.shape == BLOWN_DOWN_STAR
        assert cc.values == (-2, -1)
        cc = canonical_coefficients(4, 13)
        assert cc.values == (-6, -4, -2)
        # the star's coefficients with a_0 dropped form the arithmetic
        # progression a_k = -(r-2)(lambda+1-k) on every blown-down pair
        for d in range(3, 301):
            for r in range(2, d):
                if d % r == 1:
                    lam = (d - 1) // r
                    progression = tuple(-(r - 2) * (lam + 1 - k) for k in range(1, lam + 1))
                    cc = canonical_coefficients(r, d)
                    assert cc.shape == BLOWN_DOWN_STAR, (r, d)
                    assert cc.values == progression, (r, d)

    @given(rd_pairs)
    def test_tail_value(self, pair):
        r, d = pair
        cc = canonical_coefficients(r, d)
        if r == 2:
            assert set(cc.values) <= {0}
        elif cc.values:
            assert cc.values[-1] == -(r - 2)

    @given(rd_pairs)
    def test_discrepancies_in_range(self, pair):
        # the singularities are log canonical but not terminal for r >= 3:
        # every coefficient lies in [a_0, 0]
        r, d = pair
        cc = canonical_coefficients(r, d)
        assert all(min(cc.values, default=0) <= v <= 0 for v in cc.values)


class TestLocalInvariants:
    def test_node_row(self):
        # a node takes the blown-down-star forms for d odd and the star forms
        # for d even; both must give the crepant A_{d-1} row
        for d in [*range(2, 20001), 10**40, 10**40 + 1]:
            inv = local_invariants(2, d)
            assert (inv.dci, inv.dcii) == (0, d - 1), d
            assert inv.e == inv.dmy + (d - 1)

    def test_divisible_row(self):
        for r in range(3, 11):
            for d in range(r, 121, r):
                inv = local_invariants(r, d)
                assert inv.dci == -d * (r - 2) ** 2
                assert inv.dcii == d - (r - 1) ** 2

    def test_one_more_row(self):
        for r in range(3, 11):
            for d in [*range(r + 1, 121, r), r * 10**40 + 1]:
                inv = local_invariants(r, d)
                assert inv.dci == -(d - 1) * (r - 2) ** 2
                assert inv.dcii == d - 1

    def test_one_less_row(self):
        for r in range(3, 11):
            for d in range(2 * r - 1, 121, r):
                inv = local_invariants(r, d)
                assert inv.dci == -d * (r - 2) ** 2 + (2 * r - 5) * (r - 1)
                assert inv.dcii == d + (r - 1) * (r - 2)

    def test_row_is_the_namedtuple_it_names(self):
        # local_invariants builds its row with tuple.__new__, bypassing the
        # NamedTuple's own __new__: the row must be indistinguishable from one
        # built through it, on every small pair and on test_resolution's huge ones
        huge = [(r, d) for d in (10**40 + 1, 3**90, 2**130 + 3)
                for r in (2, 3, 4, 5, 6, 9, 27, 1000, d // 3, d - 1, d)]
        small = [(r, d) for d in range(2, 301) for r in range(2, d + 1)]
        for r, d in small + huge:
            row = local_invariants(r, d)
            built = LocalInvariants(*row)
            assert type(row) is LocalInvariants and row == built, (r, d)
            assert row._asdict() == built._asdict() and repr(row) == repr(built), (r, d)

    def test_equals_the_weight_system_rule(self):
        # the rows for d = 0, 1 (mod r) read no weights; on every residue they
        # must equal the star forms of weight_data and hj_summary
        huge = [(r, d) for d in HUGE_DEGREES for r in (*range(2, 13), d - 1, d)]
        small = [(r, d) for d in range(2, 301) for r in range(2, d + 1)]
        for r, d in small + huge:
            inv = local_invariants(r, d)
            assert (inv.dci, inv.dcii) == weight_system_row(r, d), (r, d)

    def test_worked_example(self):
        inv = local_invariants(3, 5)
        assert (inv.dci, inv.dcii, inv.dmy, inv.e) == (-3, 7, 24, 24)

    def test_my_consistency(self):
        for r in range(2, 9):
            for d in range(r, 40):
                inv = local_invariants(r, d)
                assert inv.dmy == 3 * inv.dcii - inv.dci
                assert inv.e == inv.dmy + (d - 1) * (r - 1) * (3 - r)

    def test_tail_star_dci(self):
        # DCI of a star from its closed form, with the expansion taken one
        # term per step as in hj_expand, not by the runs of 2s of hj_summary
        for r in range(3, 7):
            for d in range(2800, 3201):
                if d % r == 1:
                    continue
                wd = weight_data(r, d)
                a, b, excess = wd.w1, wd.beta, 0
                while b > 0:
                    n = -(-a // b)
                    a, b, excess = b, n * b - a, excess + n - 2
                dci = (-d * (r - 2) ** 2 - r * excess
                       + 2 * (r - 2) * (r - wd.g) + (r - wd.b))
                assert local_invariants(r, d).dci == dci, (r, d)

    def test_stars_match_expansion_formula(self):
        # on d = 1 (mod r) the O(1) blown-down row is the star's before the
        # contraction of its (-1)-centre, which adds 1 to c_1^2 and removes 1
        # from the Euler number
        for d in range(2, 201):
            for r in range(2, d + 1):
                dci, dcii = expansion_star_invariants(r, d)
                if d % r == 1:
                    dci, dcii = dci + 1, dcii - 1
                inv = local_invariants(r, d)
                assert (inv.dci, inv.dcii) == (dci, dcii), (r, d)

    def test_huge_degree(self):
        # lambda is about 10**40 here, so only the run-skipping summary can
        # answer.  On d = 3 (mod 5), DCI and DCII are affine in d with slopes
        # -(r-2)^2 = -9 and 1, checked below from d = 18 to 198; extrapolate
        # from d = 198.
        big = 10**40 + 3
        small = [local_invariants(5, d) for d in range(18, 201, 5)]
        for a, b in zip(small, small[1:]):
            assert (b.dci - a.dci, b.dcii - a.dcii) == (-45, 5)
        base, inv = local_invariants(5, 198), local_invariants(5, big)
        assert inv.dci == base.dci - 9 * (big - 198)
        assert inv.dcii == base.dcii + (big - 198)
        assert inv.dmy == 3 * inv.dcii - inv.dci

    def test_bounds(self):
        with pytest.raises(BadMultiplicity):
            local_invariants(5, 4)

    @pytest.mark.parametrize("r, d", [(0, 5), (-1, 5), (1, 5), (6, 5)])
    def test_refused_before_the_residue(self, r, d):
        # d % r would raise ZeroDivisionError at r = 0 and give a row at r = 1
        with pytest.raises(BadMultiplicity):
            local_invariants(r, d)


def geometric_genus(r, d):
    """p_g of G_r(u, v) + t^d = 0 as the sum over s of (s - 1) floor(d (r - s) / r)."""
    return sum((s - 1) * (d * (r - s) // r) for s in range(2, r))


def laufer_holds(r, d):
    inv = local_invariants(r, d)
    return (r - 1) ** 2 * (d - 1) == 12 * geometric_genus(r, d) + inv.dci + inv.dcii


class TestLaufer:
    """Laufer's formula mu = 12 p_g + K^2 + chi(E) - 1 reads
    (r - 1)^2 (d - 1) = 12 p_g + DCI + DCII for this weighted-homogeneous germ:
    its Milnor number (Milnor-Orlik) and its geometric genus (Merle-Teissier)
    share nothing with the run walk or the eliminator."""

    def test_sum_is_the_lattice_count(self):
        # p_g = #{a, b, c >= 1 : d (a + b) + r c <= r d}; each of a, b < r and c < d
        for d in range(2, 25):
            for r in range(2, d + 1):
                count = sum(1 for a in range(1, r) for b in range(1, r) for c in range(1, d)
                            if d * (a + b) + r * c <= r * d)
                assert geometric_genus(r, d) == count, (r, d)

    def test_identity_to_d_200(self):
        for d in range(2, 201):
            for r in range(2, d + 1):
                assert laufer_holds(r, d), (r, d)

    @pytest.mark.parametrize("d", HUGE_DEGREES)
    def test_identity_at_huge_degree(self, d):
        for r in range(2, 13):
            assert laufer_holds(r, d), (r, d)
