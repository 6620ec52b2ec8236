"""Continued fraction expansion and summary tests; evaluation and the matrix
product are checked as the test-side reference helpers in ``hj_reference``."""

from math import gcd

import pytest
from hypothesis import given, strategies as st

from hj_reference import TwoByTwo, g_product, hj_evaluate
from linesurf import HJExpansion, hj_expand, hj_summary, modular_beta, weight_data
from linesurf.errors import BetaOutOfRange, NotCoprime


def reference_expand(alpha, beta):
    """The terms of alpha/beta, one term per step of the remainder recurrence
    alpha_{i+1} = n_i alpha_i - alpha_{i-1}: the loop ``hj_expand`` runs,
    kept here so that a fault in it cannot reach the reference."""
    a, b, terms = alpha, beta, []
    while b > 0:
        n = -(-a // b)
        terms.append(n)
        a, b = b, n * b - a
    return tuple(terms)


def assert_matches_reference(alpha, beta):
    """``hj_expand`` equals the reference, and ``hj_summary`` its length and sum."""
    exp = hj_expand(alpha, beta)
    assert exp.terms == reference_expand(alpha, beta), (alpha, beta)
    assert hj_summary(alpha, beta) == (len(exp.terms), sum(exp.terms)), (alpha, beta)


def coprime_pairs(max_alpha):
    """Strategy producing coprime (alpha, beta) with 0 < beta < alpha."""
    return (
        st.integers(min_value=2, max_value=max_alpha)
        .flatmap(lambda a: st.tuples(st.just(a), st.integers(min_value=1, max_value=a - 1)))
        .filter(lambda pair: gcd(pair[0], pair[1]) == 1)
    )


class TestExpand:
    def test_small_examples(self):
        assert hj_expand(2, 1).terms == (2,)
        assert hj_expand(3, 1).terms == (3,)
        assert hj_expand(3, 2).terms == (2, 2)
        assert hj_expand(5, 3).terms == (2, 3)
        assert hj_expand(12, 7).terms == (2, 4, 2)
        assert hj_expand(12, 5).terms == (3, 2, 3)

    def test_trivial_pair(self):
        exp = hj_expand(1, 0)
        assert exp == HJExpansion(1, 0, ())
        assert exp.length == 0

    def test_rejects_bad_input(self):
        with pytest.raises(BetaOutOfRange):
            hj_expand(5, 0)
        with pytest.raises(BetaOutOfRange):
            hj_expand(5, 5)
        with pytest.raises(NotCoprime):
            hj_expand(6, 4)

    @given(coprime_pairs(500))
    def test_round_trip(self, pair):
        alpha, beta = pair
        exp = hj_expand(alpha, beta)
        assert all(n >= 2 for n in exp.terms)
        assert hj_evaluate(exp.terms) == (alpha, beta)


class TestRunsOfTwos:
    def test_all_small_pairs(self):
        for alpha in range(2, 301):
            for beta in range(1, alpha):
                if gcd(alpha, beta) == 1:
                    assert_matches_reference(alpha, beta)

    def test_tail_weight_data(self):
        # the large-d pairs of full reports: expansions of about 700 terms
        for r in range(3, 7):
            for d in range(2800, 3201):
                wd = weight_data(r, d)
                assert_matches_reference(wd.w1, wd.beta)

    @pytest.mark.parametrize("d", [2, 3, 4, 1000, 99_999, 100_000])
    def test_one_run_and_one_term(self, d):
        assert hj_expand(d, d - 1).terms == (2,) * (d - 1)
        assert hj_summary(d, d - 1) == (d - 1, 2 * (d - 1))
        assert hj_expand(d, 1).terms == (d,)
        assert hj_summary(d, 1) == (1, d)

    @pytest.mark.parametrize("head", [(3,), (2, 7), (5, 2, 4)])
    @pytest.mark.parametrize("k", [1, 2, 999, 4000])
    def test_run_ending_at_zero(self, head, k):
        alpha, beta = hj_evaluate(head + (2,) * k)
        assert alpha <= 100_000
        assert hj_expand(alpha, beta).terms == head + (2,) * k
        assert_matches_reference(alpha, beta)


class TestSummary:
    def test_trivial_pair(self):
        assert hj_summary(1, 0) == (0, 0)

    @pytest.mark.parametrize("alpha, beta, error", [
        (5, 0, BetaOutOfRange), (5, 5, BetaOutOfRange), (5, 7, BetaOutOfRange),
        (5, -1, BetaOutOfRange), (1, 1, BetaOutOfRange), (0, 0, BetaOutOfRange),
        (2, 0, BetaOutOfRange), (6, 4, NotCoprime), (9, 3, NotCoprime),
        (10**40, 2, NotCoprime)])
    def test_rejects_bad_input(self, alpha, beta, error):
        # the same checks, and errors, as hj_expand
        for fn in (hj_expand, hj_summary):
            with pytest.raises(error):
                fn(alpha, beta)

    def test_huge_run(self):
        # one run of 10**40 - 1 twos: no term is stored
        assert hj_summary(10**40, 10**40 - 1) == (10**40 - 1, 2 * (10**40 - 1))


class TestEvaluate:
    def test_empty_is_one_zero(self):
        assert hj_evaluate(()) == (1, 0)

    def test_known_values(self):
        assert hj_evaluate((2, 2, 2)) == (4, 3)
        assert hj_evaluate((5,)) == (5, 1)

    def test_rejects_small_terms(self):
        with pytest.raises(ValueError):
            hj_evaluate((2, 1))
        with pytest.raises(ValueError):
            hj_evaluate((2.0,))


class TestModularBeta:
    def test_convention_for_alpha_one(self):
        assert modular_beta(1, 1) == 0
        assert modular_beta(1, 7) == 0

    def test_defining_congruence(self):
        for alpha in range(2, 40):
            for bprime in range(1, alpha):
                if gcd(alpha, bprime) != 1:
                    continue
                beta = modular_beta(alpha, bprime)
                assert 0 < beta < alpha
                assert (bprime * beta + 1) % alpha == 0

    def test_rejects_non_coprime(self):
        with pytest.raises(NotCoprime):
            modular_beta(6, 3)
        with pytest.raises(BetaOutOfRange):
            modular_beta(0, 1)


class TestGProduct:
    def test_identity_for_empty(self):
        assert g_product(()) == TwoByTwo.identity()

    @given(st.lists(st.integers(min_value=2, max_value=6), max_size=12))
    def test_determinant_one_and_first_column(self, terms):
        g = g_product(terms)
        assert g.det() == 1
        alpha, beta = hj_evaluate(terms)
        assert (g.a, g.c) == (alpha, beta)

    def test_second_column_from_modular_inverse(self):
        # when beta is the modular datum for (alpha, b'), the second column
        # is (b' - alpha, (1 + b' beta)/alpha - beta)
        for alpha in range(2, 30):
            for bprime in range(1, alpha):
                if gcd(alpha, bprime) != 1:
                    continue
                beta = modular_beta(alpha, bprime)
                g = g_product(hj_expand(alpha, beta).terms)
                assert g.b == bprime - alpha
                assert g.d == (1 + bprime * beta) // alpha - beta
