"""Minimal-resolution dual graphs for the germ G_r(u, v) + t^d = 0.

The weighted-homogeneous resolution is a star: a central curve of genus
(r-2)(gcd(r,d)-1)/2 and self-intersection -b, carrying r identical arms whose
weights are the continued fraction terms of alpha/beta.  The star is already
minimal unless d = 1 (mod r), in which case the central curve is a (-1)-curve
and blowing it down leaves r chains whose roots are pairwise adjacent, with
the root weight dropped by one.  A node, r = 2, is the A_{d-1} singularity and
takes the same two shapes by the parity of d: for d even a genus-0 centre of
weight 2 with two arms of 2s, for d odd two arms of 2s whose roots meet.

``ResolutionGraph`` is a record that checks itself once, when it is built,
so every caller trusts it.  ``_check_germ`` is the one check of the types and
range of (r, d).  Every internal caller that needs the weights reads
``_weights``, the checked plain tuple behind the public ``WeightData``
NamedTuple, which runs that check first; ``local_invariants`` runs it alone
on the rows with d = 0, 1 (mod r), which need no weights.

Vertex order is fixed everywhere: central first (when present), then arm 1
root to tip, arm 2, and so on; only DOT names the nodes: ``c`` and
``a<arm>_<pos>``.  A matrix has one form everywhere: a list of sparse integer
rows {column: nonzero entry}.  ``intersection_matrix`` builds these rows from
the weights and edges in O(vertices + edges); it and ``to_dot`` refuse any
argument but a ``ResolutionGraph`` through ``errors._need``, the package's
one refusal of a wrong argument kind.  ``eliminate`` checks and copies such
rows, in one loop over their entries, for the package's one exact
elimination, its core ``_pivots``, which trusts its caller and updates them
in place: the definiteness test reads its pivot signs, and the oracle in
:mod:`linesurf.verify` checks the symmetry of the rows that
``intersection_matrix`` has just built and hands them over.  Each row carries
a positive multiplier for its off-diagonal entries, so a pivot with one
lower neighbour, such as an arm vertex, updates that neighbour in O(1), and
a star's centre costs O(r), not O(r^2).  A matrix with no zero entry, such as
the clique K_r of the (r, r + 1) blown-down star, has nothing for dict rows
to skip: ``_pivots`` eliminates it on lists of its lower triangle, with one
content divided out per pivot, and hands back the same sparse rows.
"""

from __future__ import annotations

from collections.abc import Mapping, Set as AbstractSet
from itertools import chain, combinations, repeat
from math import gcd
from typing import NamedTuple, Optional

from .errors import (BadMultiplicity, BadParameter, InternalCheckError, NotSymmetric,
                     SingularMatrix, _need)
from .hjcf import _neg_inverse, _run_walk, hj_expand
from .record import Record, _repr, _str, set_field

STAR = "star"
BLOWN_DOWN_STAR = "blown_down_star"


class WeightData(NamedTuple):
    """Weights and central-vertex data for the germ with parameters (r, d)."""

    r: int
    d: int
    g: int          # gcd(r, d)
    w1: int         # = w2 = d/g, the alpha of the arms' alpha/beta
    w3: int         # = r/g, the b' of beta * b' = -1 (mod alpha)
    N: int          # degree r*d/g
    beta: int       # modular inverse datum, 0 when w1 = 1
    b: int          # central self-intersection weight g (1 + b'beta)/alpha
    genus0: int     # genus of the central curve


class ResolutionGraph(Record):
    """Dual graph of the minimal resolution, a star or a blown-down star.

    central is (genus, weight) for the star shape, None otherwise.  arms
    holds r weight chains of one length, root to tip; a star with lambda = 0,
    which is r = d, is its central curve alone and stores no arms.  The
    graph checks this structure and every type once, when it is built, and
    raises BadParameter; it does not check minimality.  It then stores its
    vertex weights, arm roots and edges.
    """

    _fields = ("r", "d", "shape", "central", "arms")
    _derived = ("_vertex_weights", "_arm_roots", "_edges")

    def __init__(self, r: int, d: int, shape: str, central: Optional[tuple[int, int]],
                 arms: tuple[tuple[int, ...], ...]):
        if not type(r) is type(d) is int:
            raise BadParameter(f"r and d must be ints, got {_repr(r)} and {_repr(d)}")
        if shape == STAR:
            if not (type(central) is tuple and len(central) == 2 and type(central[0]) is int):
                raise BadParameter("a star's central must be an int pair (genus, weight), "
                                   f"got {_repr(central)}")
            head = central[1:]
        elif shape == BLOWN_DOWN_STAR:
            if central is not None:
                raise BadParameter(f"a blown-down star has no central, got {_repr(central)}")
            head = ()
        else:
            raise BadParameter(f"shape must be {STAR!r} or {BLOWN_DOWN_STAR!r}, got {_repr(shape)}")
        if type(arms) is not tuple or not {tuple}.issuperset(map(type, arms)):
            raise BadParameter(f"arms must be a tuple of weight tuples, got {_repr(arms)}")
        if (arms or central is None) and (len(arms) != r or len(set(map(len, arms))) != 1
                                          or central is None and not arms[0]):
            raise BadParameter(f"need r={_repr(r)} arms of one length, none or empty only on "
                               f"a star, got lengths {_repr(tuple(map(len, arms)))}")
        weights = head + tuple(chain.from_iterable(arms))
        if not {int}.issuperset(map(type, weights)):
            bad = next(w for w in weights if type(w) is not int)
            raise BadParameter(f"weights must be ints, got {_repr(bad)}")
        lam, end = len(arms[0]) if arms else 0, len(weights)
        roots = tuple(range(len(head), end, lam or 1))
        # the arms, then a clique, are cut from one list of steps (k, k + 1)
        edges = list(zip(range(end - 1), range(1, end)))
        if central is None:
            del edges[lam - 1::lam]  # the steps from one arm's tip to the next root
            edges.extend(combinations(roots, 2))
        elif lam:
            edges[lam::lam] = zip(repeat(0), roots[1:])  # a step into a later root: its spoke
        values = (r, d, shape, central, arms, weights, roots, tuple(edges))
        for name, value in zip(self._fields + self._derived, values):
            set_field(self, name, value)

    @property
    def lam(self) -> int:
        """Arm length, the number of vertices on each arm."""
        return len(self.arms[0]) if self.arms else 0

    @property
    def vertex_count(self) -> int:
        return len(self._vertex_weights)

    def weights(self) -> tuple[int, ...]:
        """Vertex weights in the documented order; only the centre has a genus."""
        return self._vertex_weights

    def iter_vertices(self):
        """Yield (name, genus, weight) in the documented order, for DOT."""
        if self.central is not None:
            yield ("c", self.central[0], self.central[1])
        for ai, arm in enumerate(self.arms, start=1):
            for k, w in enumerate(arm, start=1):
                yield (f"a{ai}_{k}", 0, w)

    def arm_root_indices(self) -> tuple[int, ...]:
        return self._arm_roots

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Undirected edges as index pairs: each arm, then a clique of roots."""
        return self._edges


def weight_data(r: int, d: int) -> WeightData:
    """Compute the weight system, beta, central weight b and central genus."""
    return WeightData(r, d, *_weights(r, d))


def _check_germ(r: int, d: int) -> None:
    """The one check of the types and range of (r, d): ints with
    2 <= r <= d, else BadParameter or BadMultiplicity.  ``_weights`` runs
    it, and so does ``local_invariants`` before it reads d mod r, since its
    rows for d = 0, 1 (mod r) need no weights."""
    if not type(r) is type(d) is int:  # one chained test: profile reports call this often
        raise BadParameter(f"r and d must be ints, got {type(r).__name__} and {type(d).__name__}")
    if r < 2 or r > d:
        raise BadMultiplicity(f"need 2 <= r <= d, got r={_repr(r)}, d={_repr(d)}")


def _weights(r: int, d: int) -> tuple[int, int, int, int, int, int, int]:
    """The fields of ``weight_data(r, d)`` after (r, d), as a plain tuple,
    once ``_check_germ`` has passed (r, d).  alpha = d/g and b' = r/g are
    coprime by construction, so beta comes from ``hjcf._neg_inverse``
    unchecked, and the (alpha, beta) that alpha | 1 + b'beta then certifies
    goes to ``hjcf._run_walk`` unchecked."""
    _check_germ(r, d)
    g = gcd(r, d)
    alpha = d // g
    bprime = r // g
    beta = _neg_inverse(alpha, bprime)
    # the package's one divisibility check, alpha | 1 + b'beta; b = g * quotient,
    # and canonical_coefficients reads the quotient back as b // g
    quotient, rem = divmod(1 + bprime * beta, alpha)
    if rem != 0:
        raise InternalCheckError(f"alpha does not divide 1 + b'beta for (r, d)=({r}, {d})")
    twice_genus = (r - 2) * (g - 1)
    if twice_genus % 2 != 0:
        raise InternalCheckError(f"central genus not integral for (r, d)=({r}, {d})")
    return g, alpha, bprime, r * d // g, beta, g * quotient, twice_genus // 2


def build_resolution_graph(r: int, d: int) -> ResolutionGraph:
    """Build the minimal dual graph, blowing the central vertex down when
    d = 1 (mod r)."""
    _, alpha, _, _, beta, b, genus0 = _weights(r, d)
    exp = hj_expand(alpha, beta)
    if d % r == 1:
        # here w1 = d, w3 = r, beta = (d-1)/r and n_1 = r+1, so the
        # blown-down root weight r >= 2 is no (-1)-curve: no cascading blow-downs
        if not exp.terms or exp.terms[0] != r + 1:
            raise InternalCheckError(f"blown-down root weight is not r for (r, d)=({r}, {d})")
        arm = (exp.terms[0] - 1,) + exp.terms[1:]
        return ResolutionGraph(r, d, BLOWN_DOWN_STAR, None, (arm,) * r)
    # lambda = 0 when r = d: the central curve alone, in O(log d) for any r
    arms = (exp.terms,) * r if exp.terms else ()
    return ResolutionGraph(r, d, STAR, (genus0, b), arms)


def graph_size(r: int, d: int) -> int:
    """Vertices plus edges of ``build_resolution_graph(r, d)``, in O(log d)
    steps without building it: d - 1 vertices for the blown-down star, whose
    r arm roots also form a clique, and 1 + r*lambda for the star, a tree.
    A node, r = 2, takes one of the two by the parity of d, and either gives
    the A_{d-1} path: d - 1 vertices and d - 2 edges."""
    _, alpha, _, _, beta, _, _ = _weights(r, d)
    if d % r == 1:
        return (d - 1) + (d - 1 - r) + r * (r - 1) // 2
    vertices = 1 + r * _run_walk(alpha, beta)[0]
    return 2 * vertices - 1


def intersection_matrix(graph: ResolutionGraph) -> list[dict[int, int]]:
    """Symmetric sparse rows {column: entry}: diagonal -weight, 1 on adjacent
    vertex pairs, no stored zeros off the diagonal."""
    _need(graph, ResolutionGraph, "intersection_matrix")
    rows = [{i: -weight} for i, weight in enumerate(graph.weights())]
    for i, j in graph.edge_list():
        rows[i][j] = rows[j][i] = 1
    return rows


def _checked_rows(matrix, b: list) -> list[dict[int, int]]:
    """``eliminate``'s checks, and its copy of ``matrix`` as sparse rows
    {column: nonzero entry}.  After a C-level pass that every row is a dict,
    one loop over the entries raises TypeError at a non-int column or entry
    and notes a column out of range, the first nonzero entry in row order
    that differs from its mirror ``rows[j].get(i, 0)``, and any stored zero;
    the notes raise after the type pass over ``b``, in ``eliminate``'s
    order.  With no stored zero, as from ``intersection_matrix``, the copy
    is ``list(map(dict, matrix))``."""
    if not all(map(isinstance, matrix, repeat(dict))):
        raise BadParameter("matrix rows must be dicts {column: entry}")
    rows = list(map(dict, matrix))
    n, square, pair, zeros = len(rows), True, None, False
    for i, row in enumerate(rows):
        for j, v in row.items():
            if not type(j) is type(v) is int:
                raise TypeError("need int columns and entries")
            if not 0 <= j < n:
                square = False
            elif v:
                if rows[j].get(i, 0) != v and pair is None:
                    pair = i, j
            else:
                zeros = True
    if not {int}.issuperset(map(type, b)):
        raise TypeError("need int right-hand side entries")
    if not square:
        raise NotSymmetric("matrix is not square")
    if len(b) != n:
        raise BadParameter(f"right-hand side has {len(b)} entries for {n} rows")
    if pair:
        i, j = pair
        raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    if zeros:
        return [{j: v for j, v in row.items() if v} for row in rows]
    return rows


def eliminate(matrix, rhs) -> tuple[list[dict[int, int]], list[int]]:
    """Integer elimination of the symmetric system M x = rhs, highest index first.

    ``matrix``, a list of row dicts {column: entry} such as
    ``intersection_matrix`` returns, and ``rhs``, a sequence, are checked and
    copied by ``_checked_rows``, and ``_pivots`` eliminates the copies in
    place, so the caller's lists are left as they were.  The first fault in
    this order raises: a matrix with no length, a mapping or set ``rhs``
    (which ``list`` reads as its keys, or in hash order) or a row that is
    not a dict, BadParameter; a non-int column or entry of the matrix or
    ``rhs``, a bool included, BadParameter; a column out of range,
    NotSymmetric; an ``rhs`` of another length, BadParameter; the first
    asymmetric pair in row order, NotSymmetric; a zero pivot, SingularMatrix.
    """
    try:
        len(matrix)  # a matrix with no length, such as a generator, is refused
        if isinstance(rhs, (Mapping, AbstractSet)):
            raise BadParameter(f"right-hand side must be a sequence, got a {type(rhs).__name__}")
        b = list(rhs)
        rows = _checked_rows(matrix, b)
    except TypeError:
        raise BadParameter("need a list of row dicts with int columns and entries, "
                           "and an int right-hand side") from None
    return _pivots(rows, b)


def _pivots(rows: list[dict[int, int]], b: list[int]) -> tuple[list[dict[int, int]], list[int]]:
    """``eliminate``'s core, in place, which checks only its pivots and
    trusts its caller for square symmetric sparse int rows, with no stored
    zero off the diagonal, and an int rhs of their length: ``eliminate``'s
    checked copies, or the oracle's fresh graph rows.  Pivot p = a_kk turns
    each row i < k into |p| row_i - sign(p) a_ik row_k and divides it and
    rhs_i by a common factor, so every row stays a positive multiple of its
    rational counterpart.  Row i stores its off-diagonal entries divided by a
    positive multiplier m_i, so a pivot whose one lower entry is at column i,
    read from the pivot row with no list built, changes only m_i, a_ii and
    rhs_i, in O(1), and divides the three by their gcd.  m_i is folded into
    row i when it becomes the pivot (a leaf pivot's into its one entry) and
    before a pivot with several lower entries updates it; a row is rebuilt
    only when an entry cancels.  A leaf pivot runs as straight-line code,
    the other steps as plain loops over a row's few entries.  Returns
    the sparse rows, now lower triangular, and the rhs; rows[k][k] has the
    sign of the k-th pivot.  Intersection matrices lose arm tips first and
    get no fill-in.  A zero pivot, from a singular matrix or one that needs
    a row exchange, raises SingularMatrix.  A matrix whose every row holds
    all n columns, with no zero entry, goes to ``_dense_pivots``, on its
    lower triangle with one content per pivot: the clique of a blown-down
    star with one-vertex arms, and a 1x1 matrix.  The test reads only the
    input and needs no size constant, and on any other graph
    ``len(rows[-1]) != n`` ends it in O(1): the last row is an arm tip's.
    """
    n = len(rows)
    if n and len(rows[-1]) == n and all(map(n.__eq__, map(len, rows))):
        return _dense_pivots(rows, b)
    mult = [1] * n  # row i's off-diagonal entries stand for mult[i] times their value
    for k in range(n - 1, -1, -1):
        pivot_row = rows[k]
        p = pivot_row.pop(k, 0)
        if p == 0:
            raise SingularMatrix(f"zero pivot at index {k}")
        scale, bk, m = abs(p), b[k], mult[k]
        if len(pivot_row) == 1:  # a leaf pivot: only row i's multiplier, diagonal and rhs change
            (i, v), = pivot_row.items()
            if m != 1:  # fold the multiplier into the one entry
                v = pivot_row[i] = m * v
            pivot_row[k] = p
            row = rows[i]
            factor = mult[i] * (row.pop(k) if p > 0 else -row.pop(k))
            di = scale * row.pop(i, 0) - factor * v
            bi = scale * b[i] - factor * bk
            mi = scale * mult[i] if row else 0  # a lone diagonal needs no multiplier
            g = gcd(mi, di, bi) or 1  # 0 when a lone diagonal and its rhs cancelled
            row[i], b[i], mult[i] = di // g, bi // g, mi // g or 1
            continue
        if m != 1:  # fold the multiplier into the new pivot row
            for j in pivot_row:
                pivot_row[j] *= m
        lower = list(pivot_row.items())  # the columns above k are gone already
        pivot_row[k] = p
        for i, _ in lower:
            row = rows[i]
            factor = mult[i] * (row.pop(k) if p > 0 else -row.pop(k))
            fold, mult[i] = scale * mult[i], 1
            if fold != 1:  # scale the diagonal and fold the multiplier into the rest
                di = row.pop(i, 0)
                for j in row:
                    row[j] *= fold
                row[i] = scale * di
            for j, v in lower:
                row[j] = row.get(j, 0) - factor * v
            bi = scale * b[i] - factor * bk
            g = gcd(bi, *row.values()) or 1  # 0 when the row cancelled to zeros
            if g > 1:
                for j in row:
                    row[j] //= g
            b[i] = bi // g
            if 0 in row.values():
                rows[i] = {j: v for j, v in row.items() if v}
    return rows, b


def _dense_pivots(rows: list[dict[int, int]],
                  b: list[int]) -> tuple[list[dict[int, int]], list[int]]:
    """``_pivots`` on rows that each hold all n columns, on lists of their
    lower triangles: Schur complements of a symmetric matrix stay symmetric
    (Golub & Van Loan, 4.1), so pivot p = a_kk turns each a_ij, j <= i < k,
    into |p| a_ij - sign(p) a_ki a_kj from the pivot row, with no dict
    operation in the O(n^3) loop.  A per-row gcd would scale row i but not
    column i, so one content g of the block and rhs that a pivot leaves is
    divided out inside the next update, as (|p| x - sign(p) a_ki y) // g^2,
    and from the pivot row, p and rhs_k before the row goes back into
    ``rows`` as ``_pivots``' sparse dict, zeros dropped.  A cancelled entry
    stays in its list as a 0, where the dict path drops it and may take a
    leaf pivot, so the paths' rows can differ by a positive factor; the
    solution, the pivot signs and the SingularMatrix index are the same."""
    lower = [list(map(row.__getitem__, range(i + 1))) for i, row in enumerate(rows)]
    g = 1  # the content of the block and rhs that the last pivot left, not yet divided out
    for k in range(len(rows) - 1, -1, -1):
        head = lower.pop()
        p = head.pop()
        if p == 0:
            raise SingularMatrix(f"zero pivot at index {k}")
        scale, bk, square, content = abs(p), b[k], g * g, 0
        for i, row in enumerate(lower):
            factor = head[i] if p > 0 else -head[i]
            row = lower[i] = [(scale * x - factor * y) // square for x, y in zip(row, head)]
            bi = b[i] = (scale * b[i] - factor * bk) // square
            if content != 1:
                content = gcd(content, bi, *row)
        if g > 1:
            head, p, b[k] = [y // g for y in head], p // g, bk // g
        sparse = dict(enumerate(head)) if 0 not in head else {j: v for j, v in enumerate(head) if v}
        sparse[k] = p
        rows[k] = sparse
        g = content or 1  # 0 when the block and rhs cancelled to zeros
    return rows, b


def check_negative_definite(m) -> bool:
    """Exact Sylvester test: (-1)^k det M_k > 0 for all leading minors M_k.

    ``m`` is a list of row dicts, refused as ``eliminate`` refuses it with a
    zero right-hand side, but a zero pivot reads as False.  True iff every
    pivot of ``eliminate`` is negative: its pivots are ratios of consecutive
    leading minors of the index-reversed matrix, a symmetric permutation of M
    with the same definiteness.
    """
    try:  # a matrix with no length, such as None, gets no rhs; eliminate refuses it
        rows, _ = eliminate(m, [0] * len(m) if hasattr(m, "__len__") else [])
    except SingularMatrix:
        return False
    return all(row[k] < 0 for k, row in enumerate(rows))


def to_dot(graph: ResolutionGraph) -> str:
    """Deterministic DOT rendering of the dual graph."""
    _need(graph, ResolutionGraph, "to_dot")
    out = [f'graph "resolution_r{_str(graph.r)}_d{_str(graph.d)}" {{']
    names = []
    for name, genus, weight in graph.iter_vertices():
        label = f"w={_str(weight)}"
        if name == "c":
            label += f" g={_str(genus)}"
        out.append(f'  {name} [label="{label}"];')
        names.append(name)
    for i, j in graph.edge_list():
        out.append(f"  {names[i]} -- {names[j]};")
    out.append("}")
    return "\n".join(out) + "\n"
