"""Tests for the matrix-based oracle and the closed-form comparison sweep."""

from collections import OrderedDict
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from linesurf import (
    build_resolution_graph,
    check_negative_definite,
    coefficients_from_matrix,
    intersection_matrix,
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
        x = solve_exact([{0: -2, 1: 1}, {0: 1, 1: -2}], [0, -3])
        assert x == [Fraction(1), Fraction(2)]

    def test_rational_result(self):
        x = solve_exact([{0: 2, 1: 1}, {0: 1, 1: 2}], [1, 0])
        assert x == [Fraction(2, 3), Fraction(-1, 3)]

    def test_singular(self):
        # the second system cancels a row to all zeros, rhs included
        ones = [{0: 1, 1: 1}, {0: 1, 1: 1}]
        for matrix, rhs in ((ones, [1, 2]), (ones, [1, 1]), ([{0: 0}], [1])):
            with pytest.raises(SingularMatrix):
                solve_exact(matrix, rhs)

    @pytest.mark.xfail(strict=True, raises=SingularMatrix,
                       reason="eliminate makes no row exchanges, so a zero pivot stops it")
    def test_zero_pivot_with_unique_solution(self):
        # y = 1 and x = 1: nonsingular, but the first pivot, the last diagonal entry, is 0
        assert solve_exact([{1: 1}, {0: 1}], [1, 1]) == [1, 1]

    @pytest.mark.parametrize("matrix", [[{0: 1, 1: 1}, {1: 1}], [{0: 1}, {0: 1, 1: 1}],
                                        [{0: 1}, {1: 1, 2: 1}]])  # the last is not square
    def test_rejects_asymmetric(self, matrix):
        with pytest.raises(NotSymmetric):
            solve_exact(matrix, [1, 1])

    @pytest.mark.parametrize("matrix, rhs", [([{0: -0.5}], [1]), ([{0: 2}], [0.5])])
    def test_rejects_non_integer(self, matrix, rhs):
        with pytest.raises(LineSurfError):
            solve_exact(matrix, rhs)

    @pytest.mark.parametrize("matrix, rhs", [([{0: 1}], [1, 2]), ([{0: 1}, {1: 1}], [1])])
    def test_rejects_rhs_of_wrong_length(self, matrix, rhs):
        with pytest.raises(BadParameter):
            solve_exact(matrix, rhs)

    def test_rejects_zero_like_non_integer(self):
        # zero-like entries are checked too, not skipped as zeros
        with pytest.raises(BadParameter):
            solve_exact([{0: -2, 1: None}, {0: None, 1: -2}], [2, 2])

    def test_integral_components_are_ints(self):
        m = [{0: 2, 1: 1}, {0: 1, 1: 2}]
        x = solve_exact(m, [3, 3])
        assert x == [1, 1] and all(type(v) is int for v in x)
        assert [type(v) for v in solve_exact(m, [1, 0])] == [Fraction, Fraction]

    def test_sparse_rows(self):
        # stored zeros are dropped
        assert solve_exact([{0: -2, 1: 1}, {0: 1, 1: -2, 2: 0}, {2: 1}], [0, -3, 5]) == [1, 2, 5]
        rows = [{0: -2, 1: 1}, {0: 1, 1: -2}]
        solve_exact(rows, [0, -3])
        assert rows == [{0: -2, 1: 1}, {0: 1, 1: -2}]  # the caller's rows are copied

    @pytest.mark.parametrize("rows, error", [
        ([{0: -2, 1: 1}, {0: 1, 1: -2.0}], BadParameter),   # non-int entry
        ([{0: -2, 1.0: 1}, {0: 1, 1: -2}], BadParameter),   # non-int column
        ([{0: -2, 1: True}, {0: 1, 1: -2}], BadParameter),  # bool is not an int entry
        ([{0: -2, 1: 1}, [1, -2]], BadParameter),           # a dense row among dicts
        ([[-2, 1], OrderedDict({0: 1, 1: -2})], BadParameter),
        ([{0: -2, 2: 1}, {1: -2}], NotSymmetric),           # column out of range
        ([{0: -2, -1: 1}, {0: 1, 1: -2}], NotSymmetric),    # negative column
        ([{0: -2, 1: 1}, {1: -2}], NotSymmetric),
    ])
    def test_rejects_bad_sparse_rows(self, rows, error):
        with pytest.raises(error):
            solve_exact(rows, [0, 0])

    def test_rejects_dense_rows(self):
        # one matrix form: dense rows are not a second input format
        dense = [[-2, 1], [1, -2]]
        with pytest.raises(BadParameter):
            check_negative_definite(dense)
        with pytest.raises(BadParameter):
            solve_exact(dense, [0, -3])


def reference_solve(matrix, rhs):
    """Plain Fraction Gauss elimination, highest index first and without row
    exchanges, in the order of ``eliminate``; None at a zero pivot."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for k in reversed(range(n)):
        if a[k][k] == 0:
            return None
        for i in range(k):
            factor = a[i][k] / a[k][k]
            for j in range(n + 1):
                a[i][j] -= factor * a[k][j]
    x = []
    for i in range(n):
        x.append((a[i][n] - sum(a[i][j] * x[j] for j in range(i))) / a[i][i])
    return x


def reference_determinant(matrix):
    """Fraction Gauss elimination with row exchanges."""
    a = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            factor = a[i][k] / a[k][k]
            for j in range(k, len(a)):
                a[i][j] -= factor * a[k][j]
    return det


def reference_negative_definite(matrix):
    """Sylvester: (-1)^k det M_k > 0 for every leading minor M_k."""
    return all((-1) ** k * reference_determinant([row[:k] for row in matrix[:k]]) > 0
               for k in range(1, len(matrix) + 1))


@st.composite
def symmetric_systems(draw):
    """Symmetric integer systems with n <= 6: sparse entries, and a diagonal
    shifted down by a random amount, so that definite, indefinite and
    singular matrices all occur."""
    n = draw(st.integers(min_value=0, max_value=6))
    entry = st.one_of(st.just(0), st.integers(min_value=-4, max_value=4))
    shift = draw(st.integers(min_value=0, max_value=12))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = m[j][i] = draw(entry) - (shift if i == j else 0)
    rhs = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n))
    return m, rhs


class TestAgainstFractionReference:
    @given(symmetric_systems())
    def test_solve_and_definiteness(self, system):
        matrix, rhs = system
        rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
        expected = reference_solve(matrix, rhs)
        if expected is None:
            with pytest.raises(SingularMatrix):
                solve_exact(rows, rhs)
        else:
            assert solve_exact(rows, rhs) == expected
        assert check_negative_definite(rows) == reference_negative_definite(matrix)


class TestGraphRows:
    def test_rows_are_weights_and_edges(self):
        # each row stores -weight on its diagonal and 1 at exactly the graph's
        # neighbours, symmetrically, and nothing else
        for d in range(2, 61):
            for r in range(2, d + 1):
                g = build_resolution_graph(r, d)
                rows = intersection_matrix(g)
                diagonal = [row.pop(i) for i, row in enumerate(rows)]
                assert diagonal == [-w for w in g.weights()], (r, d)
                assert set(chain.from_iterable(map(dict.values, rows))) <= {1}, (r, d)
                stored = {(i, j) for i, row in enumerate(rows) for j in row}
                edges = set(g.edge_list())
                assert stored == edges | {(j, i) for i, j in edges}, (r, d)


class TestOracle:
    def test_adjunction_rhs(self):
        g = build_resolution_graph(4, 12)
        # central: genus 3, weight 4 -> 2*3 - 2 + 4 = 8; arm vertices rational
        rhs = adjunction_rhs(g)
        assert rhs[0] == 8
        assert all(v == w - 2 for v, (_, _, w) in zip(rhs[1:], list(g.iter_vertices())[1:]))
        assert rhs == [2 * genus - 2 + w for _, genus, w in g.iter_vertices()]

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
