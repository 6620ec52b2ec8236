"""Tests for the matrix-based oracle and the closed-form comparison sweep."""

from fractions import Fraction

import pytest

from linesurf import (
    build_resolution_graph,
    coefficients_from_matrix,
    local_invariants,
    local_invariants_from_graph,
    sweep_verify,
)
from linesurf import verify
from linesurf.errors import BadParameter, LineSurfError, NotSymmetric, SingularMatrix
from linesurf.verify import (
    adjunction_rhs,
    expected_vertex_coefficients,
    solve_exact,
)


class TestSolveExact:
    def test_small_system(self):
        # -2x + y = 0 and x - 2y = -3 give (x, y) = (1, 2)
        x = solve_exact([[-2, 1], [1, -2]], [0, -3])
        assert x == [Fraction(1), Fraction(2)]

    def test_rational_result(self):
        x = solve_exact([[2, 1], [1, 2]], [1, 0])
        assert x == [Fraction(2, 3), Fraction(-1, 3)]

    def test_singular(self):
        # the second system cancels a row to all zeros, rhs included
        for matrix, rhs in (([[1, 1], [1, 1]], [1, 2]), ([[1, 1], [1, 1]], [1, 1]),
                            ([[0]], [1])):
            with pytest.raises(SingularMatrix):
                solve_exact(matrix, rhs)

    @pytest.mark.parametrize("matrix", [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [0]]])
    def test_rejects_asymmetric(self, matrix):
        with pytest.raises(NotSymmetric):
            solve_exact(matrix, [1, 1])

    @pytest.mark.parametrize("matrix, rhs", [([[-0.5]], [1]), ([[2]], [0.5])])
    def test_rejects_non_integer(self, matrix, rhs):
        with pytest.raises(LineSurfError):
            solve_exact(matrix, rhs)

    @pytest.mark.parametrize("matrix, rhs", [([[1]], [1, 2]), ([[1, 0], [0, 1]], [1])])
    def test_rejects_rhs_of_wrong_length(self, matrix, rhs):
        with pytest.raises(BadParameter):
            solve_exact(matrix, rhs)


class TestOracle:
    def test_adjunction_rhs(self):
        g = build_resolution_graph(4, 12)
        # central: genus 3, weight 4 -> 2*3 - 2 + 4 = 8; arm vertices rational
        rhs = adjunction_rhs(g)
        assert rhs[0] == 8
        assert all(v == w - 2 for v, (_, _, w) in zip(rhs[1:], list(g.iter_vertices())[1:]))

    def test_chain_coefficients_vanish(self):
        g = build_resolution_graph(2, 9)
        assert coefficients_from_matrix(g) == (0,) * 8

    def test_star_example(self):
        g = build_resolution_graph(3, 5)
        assert coefficients_from_matrix(g) == (-3, -2, -1, -2, -1, -2, -1)
        assert local_invariants_from_graph(g) == (-3, 7)

    def test_blown_down_example(self):
        g = build_resolution_graph(3, 7)
        inv = local_invariants(3, 7)
        assert local_invariants_from_graph(g) == (inv.dci, inv.dcii)

    def test_expected_vector_matches_order(self):
        assert expected_vertex_coefficients(3, 5) == (-3, -2, -1, -2, -1, -2, -1)
        assert expected_vertex_coefficients(2, 4) == (0, 0, 0)


class TestSweep:
    def test_small_sweep_all_ok(self):
        reports = sweep_verify(4, 12)
        assert len(reports) == sum(12 - r + 1 for r in range(2, 5))
        assert all(rep.ok for rep in reports)

    def test_one_solve_per_pair(self, monkeypatch):
        calls = []

        def counting(matrix, rhs):
            calls.append(matrix)
            return solve_exact(matrix, rhs)

        monkeypatch.setattr(verify, "solve_exact", counting)
        reports = sweep_verify(4, 12)
        assert len(calls) == len(reports)

    def test_report_fields(self):
        rep = sweep_verify(3, 5)[-1]
        assert (rep.r, rep.d) == (3, 5)
        assert (rep.oracle_dci, rep.oracle_dcii) == (-3, 7)

    def test_parameter_validation(self):
        with pytest.raises(BadParameter):
            sweep_verify(1, 10)
        with pytest.raises(BadParameter):
            sweep_verify(5, 4)
