"""Tests for the matrix-based oracle and the closed-form comparison sweep."""

from collections import OrderedDict
from copy import deepcopy
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from linesurf import (
    OracleReport,
    ResolutionGraph,
    build_resolution_graph,
    check_negative_definite,
    coefficients_from_matrix,
    intersection_matrix,
    local_invariants,
    local_invariants_from_graph,
    sweep_verify,
)
from linesurf import resolution, verify
from linesurf.errors import BadParameter, LineSurfError, NotSymmetric, SingularMatrix
from linesurf.resolution import BLOWN_DOWN_STAR, STAR, _pivots, eliminate
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

    @pytest.mark.parametrize("matrix, rhs", [([{0: -0.5}], [1]), ([{0: 2}], [0.5]),
                                             ([{0: 2}], [True])])
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

    @pytest.mark.parametrize("entry", [check_negative_definite, lambda m: solve_exact(m, [0]),
                                       lambda m: eliminate(m, [0])],
                             ids=["check_negative_definite", "solve_exact", "eliminate"])
    @pytest.mark.parametrize("matrix", [None, 5, 1.5])
    def test_rejects_a_matrix_with_no_length(self, entry, matrix):
        # refused as bad input, not left to escape as the TypeError of len()
        with pytest.raises(BadParameter):
            entry(matrix)

    def test_rejects_dense_rows(self):
        # one matrix form: dense rows are not a second input format
        dense = [[-2, 1], [1, -2]]
        with pytest.raises(BadParameter):
            check_negative_definite(dense)
        with pytest.raises(BadParameter):
            solve_exact(dense, [0, -3])

    @pytest.mark.parametrize("matrix, rhs", [
        ([{0: -1}], {0: 5}),                              # read as its keys, [0]
        ([{0: -2, 1: 1}, {0: 1, 1: -2}], {1: 7, 0: 9}),   # read as [1, 0]
        ([{0: -2, 1: 1}, {0: 1, 1: -2}], {9, 5}),         # read in hash order
        ([{0: -2, 1: 1}, {0: 1, 1: -2}], frozenset({9, 5})),
    ], ids=["dict", "dict-of-two", "set", "frozenset"])
    def test_rejects_a_mapping_or_set_rhs(self, matrix, rhs):
        for call in (eliminate, solve_exact):
            with pytest.raises(BadParameter, match="must be a sequence"):
                call(matrix, rhs)

    def test_accepts_a_sequence_or_iterator_rhs(self):
        m = [{0: -2, 1: 1}, {0: 1, 1: -2}]
        for rhs in ([0, -3], (0, -3), iter([0, -3]), (v for v in (0, -3)), {0: 0, 1: -3}.values()):
            assert solve_exact(m, rhs) == [1, 2]


ENTRY_POINTS = {
    "eliminate": eliminate,
    "solve_exact": solve_exact,
    "check_negative_definite": lambda matrix, _: check_negative_definite(matrix),
}
GENERIC = "need a list of row dicts with int columns and entries, and an int right-hand side"


class TestErrorOrder:
    """Each refused system raises the first of its faults, in this order: no
    length or a row that is not a dict, a non-int column or entry, a column
    out of range, a right-hand side of another length, the first asymmetric
    pair in row order, a zero pivot.  check_negative_definite makes its own
    zero right-hand side, so an rhs fault never reaches it.  The messages
    are pinned."""

    CASES = [  # (matrix, rhs, refusal through eliminate and solve_exact, through the test)
        ([{0: -2, 1: 1}, {0: 2, 1: -2.0}], [0, 0],          # asymmetric, then a float entry
         (BadParameter, GENERIC), (BadParameter, GENERIC)),
        ([{0: -2, 1: True}, {0: 2, 1: -2}], [0, 0],         # a bool entry, asymmetric
         (BadParameter, GENERIC), (BadParameter, GENERIC)),
        ([{0: 1.5}, [1]], [0, 0],                           # a float entry, then a dense row
         (BadParameter, "matrix rows must be dicts {column: entry}"),
         (BadParameter, "matrix rows must be dicts {column: entry}")),
        ([{0: -2, 1: 1}, {0: 2, 1: -2, 2: 1}], [0, 0],      # asymmetric, then out of range
         (NotSymmetric, "matrix is not square"), (NotSymmetric, "matrix is not square")),
        ([{0: -2, -1: 1}, {0: 1, 1: -2}], [0],              # a negative column, a short rhs
         (NotSymmetric, "matrix is not square"), (NotSymmetric, "matrix is not square")),
        ([{0: -2, 2: 1}, {0: 1, 1: -2}], [0, 0.5],          # out of range, a float rhs entry
         (BadParameter, GENERIC), (NotSymmetric, "matrix is not square")),
        ([{0: -2, 1: 1}, {0: 2, 1: -2}], [0],               # asymmetric, a short rhs
         (BadParameter, "right-hand side has 1 entries for 2 rows"),
         (NotSymmetric, "entries (0,1) and (1,0) differ")),
        ([{0: -2, 1: 0}, {0: 1, 1: -2}], [0, 0],            # a stored zero, a nonzero mirror
         (NotSymmetric, "entries (1,0) and (0,1) differ"),
         (NotSymmetric, "entries (1,0) and (0,1) differ")),
        ([{0: -2, 1: 1}, {0: 2, 1: 0}], [0, 0],             # asymmetric, a zero pivot
         (NotSymmetric, "entries (0,1) and (1,0) differ"),
         (NotSymmetric, "entries (0,1) and (1,0) differ")),
        ([{0: -2, 2: 1}, {1: -2, 0: 3}, {0: 1, 2: -2}], [0, 0, 0],  # the first pair in row order
         (NotSymmetric, "entries (1,0) and (0,1) differ"),
         (NotSymmetric, "entries (1,0) and (0,1) differ")),
        ([{0: 0, 1: 1}, {0: 1, 1: 0}], [1, 1],              # symmetric, a zero pivot
         (SingularMatrix, "zero pivot at index 1"), None),
    ]

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("matrix, rhs, solve_error, definite_error", CASES)
    def test_first_fault_is_raised(self, entry, matrix, rhs, solve_error, definite_error):
        error = definite_error if entry == "check_negative_definite" else solve_error
        if error is None:  # the definiteness test reads a zero pivot as not definite
            assert check_negative_definite(matrix) is False
            return
        with pytest.raises(error[0]) as caught:
            ENTRY_POINTS[entry](matrix, rhs)
        assert str(caught.value) == error[1]

    def test_stored_zeros_on_both_sides_are_accepted(self):
        matrix = [{0: -2, 1: 0}, {0: 0, 1: -2}]
        assert eliminate(matrix, [2, 4]) == ([{0: -2}, {1: -2}], [2, 4])
        assert solve_exact(matrix, [2, 4]) == [-1, -2]
        assert check_negative_definite(matrix) is True
        assert matrix == [{0: -2, 1: 0}, {0: 0, 1: -2}]  # the caller's rows keep their zeros


class TestTypePassAtTheFarEnd:
    """The exact-int test reads every column, entry and right-hand side entry:
    one bad value placed last in a graph matrix of 40 or more rows is refused.
    The graphs are a chain (2, 41), a blown-down star with a 20-root clique
    (20, 41) and a star (4, 42)."""

    GRAPHS = [(2, 41), (20, 41), (4, 42)]

    @staticmethod
    def rows(r, d, column=None, entry=None):
        """The graph's rows with the last stored item of the last row given a
        bad column key or a bad entry."""
        rows = intersection_matrix(build_resolution_graph(r, d))
        key, value = rows[-1].popitem()
        placed = (key if column is None else column, value if entry is None else entry)
        rows[-1][placed[0]] = placed[1]
        assert len(rows) >= 40 and list(rows[-1].items())[-1] == placed
        return rows

    @pytest.mark.parametrize("pair", GRAPHS)
    @pytest.mark.parametrize("bad", [{"column": 1.0}, {"column": True},
                                     {"entry": 0.0}, {"entry": True}])
    def test_bad_last_matrix_value(self, pair, bad):
        rows = self.rows(*pair, **bad)
        zeros = [0] * len(rows)
        for call in (lambda: eliminate(rows, zeros), lambda: solve_exact(rows, zeros),
                     lambda: check_negative_definite(rows)):
            with pytest.raises(BadParameter):
                call()

    @pytest.mark.parametrize("pair", GRAPHS)
    def test_bad_last_rhs_entry(self, pair):
        rows = self.rows(*pair)
        rhs = [0] * (len(rows) - 1) + [True]
        for call in (eliminate, solve_exact):
            with pytest.raises(BadParameter):
                call(rows, rhs)
        # the same system with an int in that place is accepted
        assert check_negative_definite(rows)
        solve_exact(rows, rhs[:-1] + [1])


def reference_rows(matrix, rhs):
    """Plain Fraction Gauss elimination, highest index first and without row
    exchanges, in the order of ``eliminate``: the rows [M | rhs], now lower
    triangular, or None at a zero pivot.  Rows with a zero in the pivot
    column are left alone."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for k in reversed(range(n)):
        if a[k][k] == 0:
            return None
        for i in filter(lambda i: a[i][k], range(k)):
            factor = a[i][k] / a[k][k]
            for j in range(n + 1):
                a[i][j] -= factor * a[k][j]
    return a


def reference_solve(a):
    """Forward substitution through the rows that ``reference_rows`` returns."""
    n = len(a)
    x = []
    for i in range(n):
        x.append((a[i][n] - sum(a[i][j] * x[j] for j in range(i))) / a[i][i])
    return x


def reference_determinant(matrix):
    """Fraction Gauss elimination with row exchanges; rows with a zero in the
    pivot column are left alone."""
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
        for i in filter(lambda i: a[i][k], range(k + 1, len(a))):
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


@st.composite
def hub_trees(draw):
    """Weighted trees on 9 to 12 vertices with a hub of degree >= 8, labelled
    at random, so that most pivots have one lower neighbour: the leaf pivots
    of ``eliminate``.  The diagonal is shifted down by a random amount, as in
    ``symmetric_systems``, so that zero and positive pivots, definite matrices
    and complete eliminations all occur."""
    n = draw(st.integers(min_value=9, max_value=12))
    shift = draw(st.integers(min_value=0, max_value=20))
    # before relabelling, vertices 1..8 hang on the hub 0 and the rest anywhere
    parents = [0] * 8 + [draw(st.integers(min_value=0, max_value=v - 1)) for v in range(9, n)]
    label = draw(st.permutations(range(n)))
    diagonal = draw(st.lists(st.integers(min_value=-4, max_value=2), min_size=n, max_size=n))
    edges = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=n - 1, max_size=n - 1))
    m = [[0] * n for _ in range(n)]
    for v, w in zip(label, diagonal):
        m[v][v] = w - shift
    for v, parent, e in zip(range(1, n), parents, edges):
        i, j = label[v], label[parent]
        m[i][j] = m[j][i] = e
    rhs = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n))
    return m, rhs


@st.composite
def zero_free_systems(draw, max_n=8):
    """Symmetric integer systems with n <= max_n and no zero entry, which
    ``_pivots`` eliminates on the lists of their lower triangles: every
    entry is drawn nonzero, from a random range, and the diagonal is shifted
    down by a random amount that leaves it nonzero, so that definite,
    indefinite and singular matrices all occur."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    size = draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=-size, max_value=size).filter(bool)
    shift = draw(st.integers(min_value=0, max_value=size * n))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            m[i][j] = m[j][i] = draw(entry)
        m[i][i] = draw(entry.filter(lambda v: v != shift)) - shift
    rhs = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n))
    return m, rhs


@st.composite
def scaled_zero_free_systems(draw):
    """``zero_free_systems`` with n <= 12 whose matrix entries share a common
    factor of up to 2^128, as does the rhs half of the time, so that the
    content each pivot divides out is a multi-digit int."""
    matrix, rhs = draw(zero_free_systems(max_n=12))
    factor = draw(st.integers(min_value=2, max_value=2 ** 128))
    rhs_factor = draw(st.sampled_from([1, factor]))
    return [[factor * v for v in row] for row in matrix], [rhs_factor * v for v in rhs]


def assert_matches_reference(matrix, rhs):
    """eliminate, solve_exact and check_negative_definite on the sparse rows
    of a dense symmetric system agree with the Fraction references: each row
    of eliminate is a positive multiple of the reference row, with the same
    entries stored, and a zero pivot raises SingularMatrix at its index."""
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    before = deepcopy((rows, rhs))
    expected = reference_rows(matrix, rhs)
    if expected is None:
        with pytest.raises(SingularMatrix) as raised:
            solve_exact(rows, rhs)
        # the pivots from the last index down to k need only the trailing block at k
        index = int(str(raised.value).rsplit(" ", 1)[1])
        for k, singular in ((index, True), (index + 1, False)):
            block = [row[k:] for row in matrix[k:]]
            assert (reference_rows(block, rhs[k:]) is None) == singular
    else:
        eliminated, b = eliminate(rows, rhs)
        for i, (row, ref) in enumerate(zip(eliminated, expected)):
            assert set(row) == {j for j in range(i + 1) if ref[j]}
            q = ref[i] / row[i]
            assert q > 0 and all(ref[j] == q * v for j, v in row.items()) and ref[-1] == q * b[i]
        assert solve_exact(rows, rhs) == reference_solve(expected)
    assert check_negative_definite(rows) == reference_negative_definite(matrix)
    assert (rows, rhs) == before  # the three entry points work on copies


class TestAgainstFractionReference:
    @given(symmetric_systems())
    def test_solve_and_definiteness(self, system):
        assert_matches_reference(*system)

    @settings(max_examples=60)
    @given(hub_trees())
    def test_hub_trees(self, system):
        assert_matches_reference(*system)

    @given(zero_free_systems())
    def test_zero_free_systems(self, system):
        assert all(map(all, system[0]))
        assert_matches_reference(*system)

    @settings(max_examples=60)
    @given(scaled_zero_free_systems())
    def test_zero_free_systems_with_a_common_factor(self, system):
        assert all(map(all, system[0]))
        assert_matches_reference(*system)

    @pytest.mark.parametrize("matrix, rhs, index", [
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], [1, 1, 1], 1),   # row 1 and its rhs cancel to zeros
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], [1, 2, 3], 1),   # row 1 cancels, its rhs does not
        ([[3, 2, 1], [2, 1, 1], [1, 1, 1]], [0, 0, 0], 1),   # only row 1's diagonal cancels
        # the trailing 2x2 block cancels
        ([[-5, 1, 2, 2], [1, -3, 1, 1], [2, 1, -2, 2], [2, 1, 2, -2]], [1, 0, 0, 1], 2),
    ])
    def test_zero_free_schur_row_cancels(self, monkeypatch, matrix, rhs, index):
        # an update on the list path cancels a later pivot, or its whole row;
        # assert_matches_reference requires the raise at the reference's index
        dense = counting_dense_pivots(monkeypatch)
        with pytest.raises(SingularMatrix, match=f"^zero pivot at index {index}$"):
            eliminate([dict(enumerate(row)) for row in matrix], rhs)
        assert dense == [len(matrix)]
        assert_matches_reference(matrix, rhs)

    def test_a_cancelled_entry_rebuilds_the_row(self):
        # pivot 2 = -2 has two lower entries; it folds 2 into row 1 = {0: 1, 2: 1},
        # whose a_10 becomes 2 * 1 - (-1)(-2) = 0, so the row is rebuilt without it
        matrix = [[6, 1, -2], [1, 0, 1], [-2, 1, -2]]
        rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
        rhs = [-2, 3, 1]
        assert eliminate(rows, rhs) == ([{0: 8}, {1: 1}, {0: -2, 1: 1, 2: -2}], [-3, 7, 1])
        assert solve_exact(rows, rhs) == [Fraction(-3, 8), 7, Fraction(27, 8)]
        assert_matches_reference(matrix, rhs)  # the Fraction reference gives the same


def counting_dense_pivots(monkeypatch) -> list:
    """Patch ``resolution._dense_pivots``, the list path of ``_pivots``, to
    record the size of each matrix it is given; return the record."""
    calls, dense_pivots = [], resolution._dense_pivots

    def counting(rows, b):
        calls.append(len(rows))
        return dense_pivots(rows, b)

    monkeypatch.setattr(resolution, "_dense_pivots", counting)
    return calls


class TestListPath:
    """``_pivots`` eliminates on list rows exactly when every row holds all
    n columns after ``_checked_rows``: the cliques K_r of the (r, r + 1)
    blown-down stars and the 1x1 matrices of r = d."""

    @pytest.mark.parametrize("matrix", [
        [{0: -3, 1: 1}, {0: 1, 1: -3, 2: 1}, {1: 1, 2: -3}],                # one off-diagonal zero
        [{0: -3, 1: 1, 2: 0}, {0: 1, 1: -3, 2: 1}, {0: 0, 1: 1, 2: -3}],    # the same, stored
        [{0: -3, 1: 1, 2: 1}, {0: 1, 1: 0, 2: 1}, {0: 1, 1: 1, 2: -3}],     # a stored zero diagonal
    ])
    def test_a_zero_entry_stays_on_the_dict_path(self, monkeypatch, matrix):
        dense = counting_dense_pivots(monkeypatch)
        before = deepcopy(matrix)
        full = [[row.get(j, 0) for j in range(3)] for row in matrix]
        assert solve_exact(matrix, [1, 2, 3]) == reference_solve(reference_rows(full, [1, 2, 3]))
        assert check_negative_definite(matrix) == reference_negative_definite(full)
        assert dense == [] and matrix == before

    def test_zero_free_matrix_takes_the_list_path(self, monkeypatch):
        dense = counting_dense_pivots(monkeypatch)
        matrix = [{0: -3, 1: 1, 2: 1}, {0: 1, 1: -3, 2: 1}, {0: 1, 1: 1, 2: -3}]
        assert check_negative_definite(matrix)
        # M = J - 4I: the entries sum to s = -6, and x_i = (s - b_i) / 4
        assert solve_exact(matrix, [1, 2, 3]) == [Fraction(-7, 4), -2, Fraction(-9, 4)]
        assert dense == [3, 3]

    def test_a_cancelled_entry_is_not_stored(self, monkeypatch):
        # the pivot 2 turns a_10 into 2 * 1 - 1 * 2 = 0, a_11 into -7 and a_00 into
        # -14, so row 1, divided by the block's content 7 with a zero rhs, comes
        # back as {1: -1}
        dense = counting_dense_pivots(monkeypatch)
        matrix = [[-5, 1, 2], [1, -3, 1], [2, 1, 2]]
        rows, _ = eliminate([dict(enumerate(row)) for row in matrix], [0, 0, 0])
        assert rows[1] == {1: -1} and dense == [3]
        assert_matches_reference(matrix, [1, -1, 2])

    def test_graphs_that_take_the_list_path(self, monkeypatch):
        # through the public check and the oracle, which hands _pivots the graph's rows:
        # every graph with d <= 30, then the two zero-free ones for each d <= 61
        dense = counting_dense_pivots(monkeypatch)
        for d in range(2, 62):
            for r in range(2, d + 1) if d <= 30 else (d - 1, d):
                g = build_resolution_graph(r, d)
                check_negative_definite(intersection_matrix(g))
                coefficients_from_matrix(g)
                # the clique K_r of the (r, r + 1) graph, or the lone centre of r = d
                assert dense == ([] if d - r > 1 else [1 if r == d else r] * 2), (r, d)
                dense.clear()

    def test_zero_free_graphs_match_the_closed_forms(self):
        # every zero-free graph of the wide-clique sweep's range, r <= 60 and
        # d <= 61: the lone centre of (r, r) and the clique K_r of (r, r + 1)
        for r in range(2, 61):
            for d in (r, r + 1):
                g = build_resolution_graph(r, d)
                assert coefficients_from_matrix(g) == expected_vertex_coefficients(r, d), (r, d)
                closed = local_invariants(r, d)
                assert local_invariants_from_graph(g) == (closed.dci, closed.dcii), (r, d)
            # the (r, r + 1) matrix, K_r = -(r + 1) I + J: each pivot's content
            # keeps its eliminated rows and rhs within r
            matrix = intersection_matrix(g)
            for rhs in ([0] * r, adjunction_rhs(g)):
                rows, b = eliminate(matrix, rhs)
                entries = [*b, *chain.from_iterable(map(dict.values, rows))]
                assert max(map(abs, entries)) <= r, (r, rhs)


class TestLeafPivots:
    """A pivot with one lower neighbour updates only that row's multiplier,
    diagonal and right-hand side."""

    @pytest.mark.parametrize("matrix, index", [
        ([{0: -1, 1: 1}, {0: 1, 1: -1}], 0),                       # no off-diagonal left
        ([{0: -2, 1: 1}, {0: 1, 1: -1, 2: 1}, {1: 1, 2: -1}], 1),  # one left, multiplier 1
        ([{0: -2, 1: 1}, {0: 1, 1: -2, 2: 2}, {1: 2, 2: -2}], 1),  # multiplier 2
    ])
    def test_update_that_zeroes_the_diagonal(self, matrix, index):
        with pytest.raises(SingularMatrix, match=f"^zero pivot at index {index}$"):
            solve_exact(matrix, [1] * len(matrix))
        assert not check_negative_definite(matrix)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_leaf_updates_then_clique_update(self, sign):
        # roots 0, 1, 2 form a clique, as in a blown-down star; leaves 3 and 4
        # scale row 1's multiplier and leaf 5 row 2's, then pivot 2 updates
        # rows 0 and 1 together.  Either sign gives positive and negative leaf pivots
        matrix = [[-4, 1, 1, 0, 0, 0],
                  [1, -5, 1, 1, 2, 0],
                  [1, 1, -4, 0, 0, 1],
                  [0, 1, 0, 3 * sign, 0, 0],
                  [0, 2, 0, 0, 3 * sign, 0],
                  [0, 0, 1, 0, 0, -2 * sign]]
        rhs = [1, -2, 3, 0, 5, -1]
        assert_matches_reference(matrix, rhs)


class TestForward:
    """``_forward`` on hand-made lower-triangular rows, as ``_pivots`` returns
    them: x_i = (b_i - sum_j a_ij x_j) / a_ii, an int when integral."""

    @staticmethod
    def reference(rows, b):
        x = []
        for i, row in enumerate(rows):
            num = Fraction(b[i]) - sum(Fraction(v) * x[j] for j, v in row.items() if j != i)
            x.append(num / row[i])
        return x

    def solved(self, rows, b):
        expected = self.reference(rows, b)
        x = verify._forward(rows, b)
        assert x == expected
        assert [type(v) for v in x] == [int if v.denominator == 1 else Fraction for v in expected]
        # each diagonal is popped; the rest of the row is left as it was
        assert all(i not in row for i, row in enumerate(rows))
        return x

    def test_empty_system(self):
        assert self.solved([], []) == []

    def test_row_whose_entries_cancel(self):
        # 3 x_0 - 3 x_1 = 0 in row 2, so x_2 is b_2 over its pivot alone
        x = self.solved([{0: 2}, {0: 1, 1: 1}, {0: 3, 1: -3, 2: 5}], [4, 4, 10])
        assert x == [2, 2, 2]

    def test_fraction_feeds_an_integral_component(self):
        # x_0 = 1/2, and 4 - 2 * (1/2) = 3 is integral, so x_1 = 3/3 is an int
        x = self.solved([{0: 2}, {0: 2, 1: 3}, {1: 1, 2: 2}], [1, 4, 1])
        assert x == [Fraction(1, 2), 1, 0]
        assert [type(v) for v in x] == [Fraction, int, int]

    def test_negative_pivots(self):
        # x_0 = 6 / -3 = -2, x_1 = (1 + 2) / -4 = -3/4, x_2 = (2 - 8 + 3) / -1 = 3
        # and x_3 = (0 - 6) / -7 = 6/7: floor division and Fraction both see the sign
        x = self.solved([{0: -3}, {0: 1, 1: -4}, {0: -4, 1: 4, 2: -1}, {2: 2, 3: -7}],
                        [6, 1, 2, 0])
        assert x == [-2, Fraction(-3, 4), 3, Fraction(6, 7)]
        assert [type(v) for v in x] == [int, Fraction, int, Fraction]


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

    def test_public_entry_points_leave_the_callers_lists(self):
        # eliminate, solve_exact and check_negative_definite check and copy
        # the caller's rows and rhs before any pivot updates them in place
        for d in range(2, 41):
            for r in range(2, d + 1):
                g = build_resolution_graph(r, d)
                rows, rhs = intersection_matrix(g), adjunction_rhs(g)
                before = deepcopy((rows, rhs))
                for call in (eliminate, solve_exact, lambda m, _: check_negative_definite(m)):
                    call(rows, rhs)
                    assert (rows, rhs) == before, (r, d, call)

    def test_core_on_graph_rows_matches_eliminate(self):
        # the oracle hands the rows that intersection_matrix builds straight
        # to _pivots: the same rows, in the same order, and rhs as through eliminate
        for d in range(2, 61):
            for r in range(2, d + 1):
                g = build_resolution_graph(r, d)
                for rhs in ([0] * g.vertex_count, adjunction_rhs(g)):
                    rows, b = eliminate(intersection_matrix(g), rhs)
                    core_rows, core_b = _pivots(intersection_matrix(g), list(rhs))
                    assert core_b == b, (r, d, rhs)
                    assert list(map(list, map(dict.items, core_rows))) \
                        == list(map(list, map(dict.items, rows))), (r, d, rhs)


class TestOracle:
    def test_adjunction_rhs(self):
        g = build_resolution_graph(4, 12)
        # central: genus 3, weight 4 -> 2*3 - 2 + 4 = 8; arm vertices rational
        rhs = adjunction_rhs(g)
        assert rhs[0] == 8
        assert all(v == w - 2 for v, (_, _, w) in zip(rhs[1:], list(g.iter_vertices())[1:]))
        assert rhs == [2 * genus - 2 + w for _, genus, w in g.iter_vertices()]

    @pytest.mark.parametrize("d", [2, 9, 10, 400, 401])
    def test_node_coefficients_vanish(self, d):
        # a node is crepant through both shapes: a star for d even, a
        # blown-down star for d odd
        g = build_resolution_graph(2, d)
        assert coefficients_from_matrix(g) == expected_vertex_coefficients(2, d) == (0,) * (d - 1)

    def test_star_example(self):
        g = build_resolution_graph(3, 5)
        assert coefficients_from_matrix(g) == (-3, -2, -1, -2, -1, -2, -1)
        assert local_invariants_from_graph(g) == (-3, 7)

    def test_blown_down_example(self):
        g = build_resolution_graph(3, 7)
        inv = local_invariants(3, 7)
        assert local_invariants_from_graph(g) == (inv.dci, inv.dcii)

    # the fields of build_resolution_graph(3, 5) and (3, 7)
    STAR_3_5 = {"r": 3, "d": 5, "shape": STAR, "central": (0, 2), "arms": ((2, 3),) * 3}
    BLOWN_3_7 = {"r": 3, "d": 7, "shape": BLOWN_DOWN_STAR, "central": None,
                 "arms": ((3, 2),) * 3}

    def test_hand_built_graphs_equal_the_built_ones(self):
        assert ResolutionGraph(**self.STAR_3_5) == build_resolution_graph(3, 5)
        assert ResolutionGraph(**self.BLOWN_3_7) == build_resolution_graph(3, 7)
        assert not hasattr(ResolutionGraph, "_replace")

    @pytest.mark.parametrize("fields", [
        {"central": ("1", 4)},              # a str genus
        {"central": (1, None)},             # no central weight
        {"central": (0, 4.0)},              # a float central weight
        {"arms": ((2, 3), (2,), (2, 3))},   # arms of two lengths
        {"arms": ((True, 3),) * 3},         # a bool weight
        {"arms": ((2.0, 3),) * 3},          # a float weight
        {"central": (1,)},                  # no central weight at all
        {"central": 5},                     # no central pair
        {"arms": (5,)},                     # an arm that is no tuple
        {"arms": None},                     # no arms tuple
        {"shape": "chain"},                 # an unknown shape
        {"arms": ((2, 3),) * 2},            # two arms for r = 3
        {**BLOWN_3_7, "r": "3"},            # a str r
        {**BLOWN_3_7, "central": (0, 1)},   # a blown-down star with a centre
        {**BLOWN_3_7, "arms": ()},          # a blown-down star with no arms
        {**BLOWN_3_7, "arms": ((),) * 3},   # ... or with arms of no vertex
    ])
    def test_refuses_a_malformed_graph(self, fields):
        # the hand-built graph, the star (3, 5) with these fields, checks
        # itself when it is built, so no TypeError, IndexError or
        # InternalCheckError escapes from deeper down
        with pytest.raises(BadParameter):
            ResolutionGraph(**{**self.STAR_3_5, **fields})

    def test_refuses_asymmetric_rows(self, monkeypatch):
        # the oracle checks the symmetry of the rows it builds before it
        # eliminates them, so a fault in intersection_matrix cannot pass
        def lopsided(graph):
            rows = intersection_matrix(graph)
            rows[1][0] = 2  # its mirror (0, 1) stays 1
            return rows

        monkeypatch.setattr(verify, "intersection_matrix", lopsided)
        g = build_resolution_graph(3, 5)
        for call in (coefficients_from_matrix, local_invariants_from_graph):
            with pytest.raises(NotSymmetric, match=r"^entries \(0,1\) and \(1,0\) differ$"):
                call(g)

    def test_expected_vector_matches_order(self):
        assert expected_vertex_coefficients(3, 5) == (-3, -2, -1, -2, -1, -2, -1)
        assert expected_vertex_coefficients(2, 4) == (0, 0, 0)


class TestSweep:
    def test_small_sweep_all_ok(self):
        reports = sweep_verify(4, 12)
        assert len(reports) == sum(12 - r + 1 for r in range(2, 5))
        assert all(rep.ok for rep in reports)

    def test_one_solve_per_pair(self, monkeypatch):
        # every elimination runs the core _pivots, the oracle's straight from
        # verify and a public solve's through eliminate, so a second solve on
        # either path is counted
        calls = []

        def counting(rows, b):
            calls.append(rows)
            return _pivots(rows, b)

        monkeypatch.setattr(verify, "_pivots", counting)
        monkeypatch.setattr(resolution, "_pivots", counting)
        reports = sweep_verify(4, 12)
        assert len(calls) == len(reports)

    def test_one_graph_read_per_pair(self, monkeypatch):
        # the sweep builds one graph per pair, whose weights and edges are
        # computed once, when it is built, and read from there
        built = []
        init = ResolutionGraph.__init__

        def counting(graph, *args):
            built.append(args[:2])
            init(graph, *args)

        monkeypatch.setattr(ResolutionGraph, "__init__", counting)
        reports = sweep_verify(4, 12)
        assert built == [(rep.r, rep.d) for rep in reports]
        for g in map(build_resolution_graph, (3, 3, 2, 5), (5, 7, 9, 5)):
            assert g.weights() is g.weights() and g.edge_list() is g.edge_list()

    def test_matches_the_public_per_graph_path(self):
        # each report equals the one built from the public per-graph calls,
        # which read the graph again for each quantity
        reports = sweep_verify(10, 60)
        assert len(reports) == 495
        for rep in reports:
            g = build_resolution_graph(rep.r, rep.d)
            oracle_dci, oracle_dcii = local_invariants_from_graph(g)
            closed = local_invariants(rep.r, rep.d)
            assert rep == OracleReport(
                rep.r, rep.d,
                coefficients_match=coefficients_from_matrix(g)
                == expected_vertex_coefficients(rep.r, rep.d),
                dci_match=oracle_dci == closed.dci,
                dcii_match=oracle_dcii == closed.dcii,
                oracle_dci=oracle_dci,
                oracle_dcii=oracle_dcii,
            ), (rep.r, rep.d)

    def test_report_fields(self):
        rep = sweep_verify(3, 5)[-1]
        # built positionally through tuple.__new__: the NamedTuple itself
        assert type(rep) is OracleReport and rep == OracleReport(*rep) and rep.ok
        assert (rep.r, rep.d) == (3, 5)
        assert (rep.oracle_dci, rep.oracle_dcii) == (-3, 7)

    def test_parameter_validation(self):
        with pytest.raises(BadParameter):
            sweep_verify(1, 10)
        with pytest.raises(BadParameter):
            sweep_verify(5, 4)
