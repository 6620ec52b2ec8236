"""Resolution graph shapes, intersection matrices, and definiteness tests."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from linesurf import (
    build_resolution_graph,
    check_negative_definite,
    intersection_matrix,
    to_dot,
    weight_data,
)
from linesurf.errors import BadMultiplicity, LineSurfError, NotSymmetric
from linesurf.resolution import BLOWN_DOWN_STAR, CHAIN, STAR

rd_pairs = st.integers(min_value=2, max_value=40).flatmap(
    lambda d: st.tuples(st.integers(min_value=2, max_value=d), st.just(d)))


class TestWeightData:
    def test_example_r4_d12(self):
        wd = weight_data(4, 12)
        assert (wd.g, wd.alpha, wd.bprime) == (4, 3, 1)
        assert wd.beta == 2
        assert (wd.b, wd.genus0, wd.N) == (4, 3, 12)
        assert (wd.w1, wd.w2, wd.w3) == (3, 3, 1)

    def test_bounds(self):
        with pytest.raises(BadMultiplicity):
            weight_data(1, 5)
        with pytest.raises(BadMultiplicity):
            weight_data(6, 5)

    @given(rd_pairs)
    def test_central_weight_positive(self, pair):
        r, d = pair
        wd = weight_data(r, d)
        assert wd.g == gcd(r, d)
        assert wd.alpha * wd.g == d and wd.bprime * wd.g == r
        if wd.alpha > 1:
            assert wd.b >= 1


class TestShapes:
    def test_chain_for_nodes(self):
        g = build_resolution_graph(2, 5)
        assert g.shape == CHAIN and g.central is None
        assert g.arms == ((2, 2, 2, 2),)
        assert g.vertex_count == 4

    def test_star_generic(self):
        g = build_resolution_graph(3, 5)
        assert g.shape == STAR
        assert g.central == (0, 2)
        assert g.arms == ((2, 3),) * 3
        assert g.vertex_count == 7

    def test_star_with_empty_arms(self):
        # r = d: alpha = 1, no arm vertices, just the central curve
        g = build_resolution_graph(4, 4)
        assert g.shape == STAR and g.lam == 0
        assert g.vertex_count == 1 and g.edge_list() == ()

    def test_blown_down_star(self):
        # d = 1 (mod r): arm root weight drops from r+1 to r
        g = build_resolution_graph(3, 7)
        assert g.shape == BLOWN_DOWN_STAR and g.central is None
        assert all(arm[0] == 3 for arm in g.arms)
        roots = g.arm_root_indices()
        clique = {(i, j) for i in roots for j in roots if i < j}
        assert clique <= set(g.edge_list())

    @given(rd_pairs)
    def test_minimality_no_minus_one_curves(self, pair):
        # a rational vertex of weight 1 with at most one neighbor would be a
        # contractible (-1)-curve; central curves of weight 1 need genus > 0
        # or three or more branches
        r, d = pair
        g = build_resolution_graph(r, d)
        degree = {}
        for i, j in g.edge_list():
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
        for idx, (_, genus, weight) in enumerate(g.iter_vertices()):
            if weight == 1 and genus == 0:
                assert degree.get(idx, 0) >= 3


class TestIntersectionMatrix:
    def test_a4_chain(self):
        m = intersection_matrix(build_resolution_graph(2, 5))
        assert m == [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]]

    def test_star_layout(self):
        m = intersection_matrix(build_resolution_graph(3, 5))
        assert m[0][0] == -2                      # central, weight b = 2
        assert m[0][1] == m[0][3] == m[0][5] == 1  # arm roots
        assert m[1][2] == 1 and m[1][3] == 0       # arms do not touch

    def test_negative_definite_sweep(self):
        for d in range(2, 61):
            for r in range(2, d + 1):
                m = intersection_matrix(build_resolution_graph(r, d))
                assert check_negative_definite(m), (r, d)

    def test_rejects_non_definite(self):
        assert not check_negative_definite([[0]])
        assert not check_negative_definite([[1]])
        assert not check_negative_definite([[-1, 2], [2, -1]])
        assert not check_negative_definite([[-2, 1, 1], [1, 0, 0], [1, 0, -2]])
        assert not check_negative_definite([[-1, 1], [1, -1]])  # row cancels to zero
        assert check_negative_definite([[-2, 1], [1, -2]])
        assert check_negative_definite([])

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            check_negative_definite([[-2, 1], [0, -2]])
        with pytest.raises(NotSymmetric):
            check_negative_definite([[-2, 1]])

    def test_rejects_non_integer(self):
        with pytest.raises(LineSurfError):
            check_negative_definite([[-0.5]])

    @settings(max_examples=50)
    @given(rd_pairs)
    def test_determinant_sign_via_pivots(self, pair):
        # sanity on a second route: negating a negative definite matrix must
        # stay definite, flipping one diagonal entry must not
        r, d = pair
        m = intersection_matrix(build_resolution_graph(r, d))
        assert check_negative_definite(m)
        spoiled = [row[:] for row in m]
        spoiled[0][0] = 1
        assert not check_negative_definite(spoiled)


class TestDot:
    def test_chain_names_and_edges(self):
        dot = to_dot(build_resolution_graph(2, 4))
        assert 'graph "resolution_r2_d4"' in dot
        assert "a1_1 -- a1_2;" in dot and "a1_2 -- a1_3;" in dot
        assert "c " not in dot

    def test_star_central_label(self):
        dot = to_dot(build_resolution_graph(4, 12))
        assert 'c [label="w=4 g=3"];' in dot
        assert "c -- a1_1;" in dot and "c -- a4_1;" in dot

    def test_deterministic(self):
        assert to_dot(build_resolution_graph(5, 13)) == to_dot(build_resolution_graph(5, 13))
