"""Resolution graph shapes, intersection matrices, and definiteness tests."""

import sys
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from linesurf import (
    build_resolution_graph,
    check_negative_definite,
    intersection_matrix,
    local_invariants,
    sweep_verify,
    to_dot,
    weight_data,
)
from linesurf.errors import BadMultiplicity, BadParameter, LineSurfError, NotSymmetric
from linesurf.hjcf import _neg_inverse, _run_walk, hj_expand, hj_summary, modular_beta
from linesurf.resolution import (
    BLOWN_DOWN_STAR,
    STAR,
    ResolutionGraph,
    _weights,
    graph_size,
)

rd_pairs = st.integers(min_value=2, max_value=40).flatmap(
    lambda d: st.tuples(st.integers(min_value=2, max_value=d), st.just(d)))


def star_criterion(r, d, b=None):
    """Orlik-Wagreich / Neumann: a star with central weight b and r arms whose
    weights expand alpha/beta is negative definite iff b - r beta/alpha > 0.
    A blown-down star is judged by its star before blow-down, where b = 1."""
    wd = weight_data(r, d)
    return Fraction(wd.b if b is None else b) - Fraction(r * wd.beta, wd.w1) > 0


def connected(n, edges):
    """Whether the graph on vertices 0..n-1 with these edges is connected."""
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    components = n
    for i, j in edges:
        a, b = root(i), root(j)
        if a != b:
            parent[a] = b
            components -= 1
    return components == 1


def unblown_star(r, d, b):
    """The star of (r, d) before any blow-down, with central weight b."""
    wd = weight_data(r, d)
    return ResolutionGraph(r, d, STAR, (wd.genus0, b), (hj_expand(wd.w1, wd.beta).terms,) * r)


class TestWeightData:
    def test_example_r4_d12(self):
        wd = weight_data(4, 12)
        assert (wd.g, wd.w1, wd.w3) == (4, 3, 1)
        assert wd.beta == 2
        assert (wd.b, wd.genus0, wd.N) == (4, 3, 12)

    def test_bounds(self):
        with pytest.raises(BadMultiplicity):
            weight_data(1, 5)
        with pytest.raises(BadMultiplicity):
            weight_data(6, 5)

    @pytest.mark.parametrize("call, args", [
        (local_invariants, (3, 10.0)), (local_invariants, (2, 4.0)), (local_invariants, (3, 9.0)),
        (local_invariants, (2.0, 5)), (local_invariants, (True, 3)),
        (build_resolution_graph, (3, 10.0)),
        (weight_data, (3, 7.0)), (weight_data, (3.0, 7)), (weight_data, (True, 7)),
        (weight_data, ("3", 7)), (graph_size, (3, 7.0)),
        (sweep_verify, (3, 10.0)), (sweep_verify, (3.0, 10)), (sweep_verify, (True, 10)),
    ])
    def test_refuses_non_int(self, call, args):
        with pytest.raises(BadParameter):
            call(*args)

    def test_one_check_covers_the_run_walk(self):
        # _check_germ is the one check of (r, d), and _weights runs it before
        # it takes beta from the unchecked _neg_inverse and hands its (alpha,
        # beta) to the unchecked run walk; local_invariants reads them only
        # when d mod r >= 2.  modular_beta's and hj_summary's own checks must
        # pass on every such pair, each helper must agree with its checked
        # form, and weight_data must equal its fields rebuilt through modular_beta
        huge = [(r, d) for d in (10**40 + 1, 3**90, 2**130 + 3)
                for r in (2, 3, 4, 5, 6, 9, 27, 1000, d // 3, d - 1, d)]
        small = [(r, d) for d in range(2, 301) for r in range(2, d + 1)]
        for r, d in chain(small, huge):
            wd = weight_data(r, d)
            assert wd[2:] == _weights(r, d), (r, d)
            g = gcd(r, d)
            alpha, bprime = d // g, r // g
            beta = modular_beta(alpha, bprime)
            assert _neg_inverse(alpha, bprime) == beta, (r, d)
            assert wd == (r, d, g, alpha, bprime, r * d // g, beta,
                          g * (1 + bprime * beta) // alpha, (r - 2) * (g - 1) // 2), (r, d)
            assert hj_summary(wd.w1, wd.beta) == _run_walk(wd.w1, wd.beta), (r, d)

    @given(rd_pairs)
    def test_central_weight_positive(self, pair):
        r, d = pair
        wd = weight_data(r, d)
        assert wd.g == gcd(r, d)
        assert wd.w1 * wd.g == d and wd.w3 * wd.g == r
        if wd.w1 > 1:
            assert wd.b >= 1


class TestShapes:
    def test_star_shapes_for_nodes(self):
        # d odd: two arms of 2s whose roots meet; d even: a genus-0 centre of
        # weight 2 between two arms of 2s
        g = build_resolution_graph(2, 5)
        assert g.shape == BLOWN_DOWN_STAR and g.central is None
        assert g.arms == ((2, 2), (2, 2))
        assert g.vertex_count == 4
        g = build_resolution_graph(2, 6)
        assert g.shape == STAR and g.central == (0, 2)
        assert g.arms == ((2, 2), (2, 2))
        assert g.vertex_count == 5

    def test_star_generic(self):
        g = build_resolution_graph(3, 5)
        assert g.shape == STAR
        assert g.central == (0, 2)
        assert g.arms == ((2, 3),) * 3
        assert g.vertex_count == 7

    def test_star_with_empty_arms(self):
        # r = d: alpha = 1, no arm vertices, just the central curve
        g = build_resolution_graph(4, 4)
        assert g.shape == STAR and g.lam == 0 and g.arms == ()
        assert g.vertex_count == 1 and g.edge_list() == ()

    @pytest.mark.parametrize("n", [10**9, sys.maxsize + 2])
    def test_star_with_empty_arms_costs_no_arm_copies(self, n):
        # the central curve alone, for an r that no tuple of r arms could hold
        g = build_resolution_graph(n, n)
        assert (g.shape, g.central, g.arms) == (STAR, ((n - 2) * (n - 1) // 2, n), ())
        assert graph_size(n, n) == g.vertex_count == 1

    def test_blown_down_star(self):
        # d = 1 (mod r): arm root weight drops from r+1 to r
        g = build_resolution_graph(3, 7)
        assert g.shape == BLOWN_DOWN_STAR and g.central is None
        assert all(arm[0] == 3 for arm in g.arms)
        roots = g.arm_root_indices()
        clique = {(i, j) for i in roots for j in roots if i < j}
        assert clique <= set(g.edge_list())

    def test_roots_and_edges_from_the_vertex_order(self):
        # the documented order: the centre first, when present, then each arm
        # from root to tip; edges run from the centre along each arm, then
        # pairwise between a blown-down star's roots
        seen = set()
        for d in range(2, 61):
            for r in range(2, d + 1):
                g = build_resolution_graph(r, d)
                hub = ["centre"] if g.central is not None else []
                order = hub + [(i, k) for i, arm in enumerate(g.arms) for k in range(len(arm))]
                index = {vertex: n for n, vertex in enumerate(order)}
                arms = [[index[i, k] for k in range(len(arm))] for i, arm in enumerate(g.arms)]
                roots = tuple(arm[0] for arm in arms)
                edges = []
                for arm in arms:
                    path = [index[v] for v in hub] + arm
                    edges += zip(path, path[1:])
                if g.shape == BLOWN_DOWN_STAR:
                    edges += [(a, b) for x, a in enumerate(roots) for b in roots[x + 1:]]
                assert g.arm_root_indices() == roots, (r, d)
                assert g.edge_list() == tuple(edges), (r, d)
                seen.add((g.shape, r == 2, g.lam == 0))
        # both node shapes, the centre alone (r = d), and wider stars and blown-down stars
        assert seen == {(STAR, True, False), (BLOWN_DOWN_STAR, True, False), (STAR, True, True),
                        (STAR, False, True), (STAR, False, False), (BLOWN_DOWN_STAR, False, False)}

    def test_graph_size_counts_vertices_and_edges(self):
        for d in range(2, 61):
            for r in range(2, d + 1):
                g = build_resolution_graph(r, d)
                assert graph_size(r, d) == g.vertex_count + len(g.edge_list()), (r, d)

    def test_graph_size_of_the_chain(self):
        # a node is the A_{d-1} singularity: its star (d even) or blown-down
        # star (d odd) is a chain of d - 1 rational (-2)-curves
        for d in range(2, 2001):
            g = build_resolution_graph(2, d)
            assert g.shape == (STAR if d % 2 == 0 else BLOWN_DOWN_STAR), d
            assert g.central in (None, (0, 2)) and set(g.weights()) == {2}, d
            edges = g.edge_list()
            assert (g.vertex_count, len(edges)) == (d - 1, d - 2), d
            assert max(Counter(chain.from_iterable(edges)).values(), default=0) <= 2, d
            assert connected(g.vertex_count, edges), d
            assert graph_size(2, d) == g.vertex_count + len(edges), d

    def test_graph_size_without_building(self):
        # a star whose arms expand 1500500/1500499 into 1500499 2s, and a
        # node's chain of 10^12 - 1 vertices: both counted in O(log d) steps
        assert graph_size(3, 4501500) == 2 * (1 + 3 * 1500499) - 1
        assert graph_size(2, 10 ** 12) == 2 * 10 ** 12 - 3
        with pytest.raises(BadMultiplicity):
            graph_size(5, 4)

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
        # the blown-down star of (2, 5): the arm roots 0 and 2 meet
        m = intersection_matrix(build_resolution_graph(2, 5))
        assert m == [{0: -2, 1: 1, 2: 1}, {1: -2, 0: 1}, {2: -2, 3: 1, 0: 1}, {3: -2, 2: 1}]

    def test_star_layout(self):
        m = intersection_matrix(build_resolution_graph(3, 5))
        assert m[0][0] == -2                      # central, weight b = 2
        assert m[0][1] == m[0][3] == m[0][5] == 1  # arm roots
        assert m[1][2] == 1 and 3 not in m[1]     # arms do not touch

    def test_negative_definite_sweep(self):
        for d in range(2, 61):
            for r in range(2, d + 1):
                m = intersection_matrix(build_resolution_graph(r, d))
                assert check_negative_definite(m), (r, d)
                assert star_criterion(r, d), (r, d)

    def test_rejects_non_definite(self):
        assert not check_negative_definite([{0: 0}])
        assert not check_negative_definite([{0: 1}])
        assert not check_negative_definite([{0: -1, 1: 2}, {0: 2, 1: -1}])
        assert not check_negative_definite([{0: -2, 1: 1, 2: 1}, {0: 1}, {0: 1, 2: -2}])
        assert not check_negative_definite([{0: -1, 1: 1}, {0: 1, 1: -1}])  # row cancels to zero
        assert check_negative_definite([{0: -2, 1: 1}, {0: 1, 1: -2}])
        assert check_negative_definite([])

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            check_negative_definite([{0: -2, 1: 1}, {1: -2}])
        with pytest.raises(NotSymmetric):
            check_negative_definite([{0: -2, 1: 1}])  # one row, two columns: not square

    def test_rejects_non_integer(self):
        with pytest.raises(LineSurfError):
            check_negative_definite([{0: -0.5}])

    @pytest.mark.parametrize("zero", ["", 0.0])
    def test_rejects_zero_like_non_integer(self, zero):
        # zero-like entries are checked too, not skipped as zeros
        with pytest.raises(BadParameter):
            check_negative_definite([{0: -2, 1: zero}, {0: zero, 1: -2}])

    def test_graph_rows(self):
        assert intersection_matrix(build_resolution_graph(3, 5)) == [
            {0: -2, 1: 1, 3: 1, 5: 1}, {1: -2, 0: 1, 2: 1}, {2: -3, 1: 1},
            {3: -2, 0: 1, 4: 1}, {4: -3, 3: 1}, {5: -2, 0: 1, 6: 1}, {6: -3, 5: 1}]
        assert check_negative_definite(intersection_matrix(build_resolution_graph(5, 21)))

    @settings(max_examples=50)
    @given(rd_pairs)
    def test_determinant_sign_via_pivots(self, pair):
        # sanity on a second route: negating a negative definite matrix must
        # stay definite, flipping one diagonal entry must not
        r, d = pair
        m = intersection_matrix(build_resolution_graph(r, d))
        assert check_negative_definite(m)
        spoiled = list(map(dict, m))
        spoiled[0][0] = 1
        assert not check_negative_definite(spoiled)


class TestStarCriterion:
    def test_blown_down_central_weight_is_one(self):
        # the centre is a (-1)-curve exactly on the blown-down pairs, the fact
        # that lets canonical_coefficients contract it by dropping a_0
        for d in range(2, 201):
            for r in range(2, d + 1):
                assert (weight_data(r, d).b == 1) == (d % r == 1), (r, d)

    def test_agrees_with_elimination_off_the_graphs(self):
        # lowering the central weight by one makes some stars indefinite; the
        # criterion and the elimination must still agree on every one
        verdicts = set()
        for d in range(3, 41):
            for r in range(3, d + 1):
                for b in (weight_data(r, d).b - 1, weight_data(r, d).b):
                    verdict = star_criterion(r, d, b)
                    assert verdict == check_negative_definite(
                        intersection_matrix(unblown_star(r, d, b))), (r, d, b)
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_holds_to_d_200(self):
        for d in range(3, 201):
            for r in range(3, d + 1):
                assert star_criterion(r, d), (r, d)


class TestDot:
    def test_chain_names_and_edges(self):
        # the A_3 chain of (2, 4) is a star: a1_1 -- c -- a2_1
        dot = to_dot(build_resolution_graph(2, 4))
        assert 'graph "resolution_r2_d4"' in dot
        assert 'c [label="w=2 g=0"];' in dot
        assert "c -- a1_1;" in dot and "c -- a2_1;" in dot
        assert dot.count(" -- ") == 2

    def test_star_central_label(self):
        dot = to_dot(build_resolution_graph(4, 12))
        assert 'c [label="w=4 g=3"];' in dot
        assert "c -- a1_1;" in dot and "c -- a4_1;" in dot

    def test_deterministic(self):
        assert to_dot(build_resolution_graph(5, 13)) == to_dot(build_resolution_graph(5, 13))
