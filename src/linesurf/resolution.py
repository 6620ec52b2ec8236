"""Minimal-resolution dual graphs for the germ G_r(u, v) + t^d = 0.

The weighted-homogeneous resolution is a star: a central curve of genus
(r-2)(gcd(r,d)-1)/2 and self-intersection -b, carrying r identical arms whose
weights are the continued fraction terms of alpha/beta.  The star is already
minimal unless d = 1 (mod r), in which case the central curve is a (-1)-curve
and blowing it down leaves r chains whose roots are pairwise adjacent, with
the root weight dropped by one.  A node, r = 2, is the A_{d-1} singularity and
takes the same two shapes by the parity of d: for d even a genus-0 centre of
weight 2 with two arms of 2s, for d odd two arms of 2s whose roots meet.

``ResolutionGraph`` is a NamedTuple, built on every graph call.  Every
internal caller reads ``_weights``, the checked plain tuple behind the public
``WeightData`` NamedTuple.

Vertex order is fixed everywhere: central first (when present), then arm 1
root to tip, arm 2, and so on; only DOT names the nodes: ``c`` and
``a<arm>_<pos>``.  A matrix has one form everywhere: a list of sparse
integer rows {column: nonzero entry}.  ``intersection_matrix`` builds these
rows from the weights and edges in O(vertices + edges), and ``eliminate``,
the package's one exact elimination, takes only such rows and updates a copy
in place: the definiteness test reads its pivot signs and the oracle solve in
:mod:`linesurf.verify` its rows.  Each row carries a positive multiplier for
its off-diagonal entries, so a pivot with one lower neighbour, such as an arm
vertex, updates that neighbour in O(1), and a star's centre costs O(r), not
O(r^2).
"""

from __future__ import annotations

from itertools import chain, combinations, repeat
from math import gcd
from typing import NamedTuple, Optional

from .errors import BadMultiplicity, BadParameter, InternalCheckError, NotSymmetric, SingularMatrix
from .hjcf import _neg_inverse, _run_walk, hj_expand
from .record import _repr, _str

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


class ResolutionGraph(NamedTuple):
    """Dual graph of the minimal resolution, a star or a blown-down star.

    central is (genus, weight) for the star shape, None otherwise.
    arms holds the weight chains root to tip.  A star with lambda = 0, which
    is r = d, is its central curve alone and stores no arms.
    """

    r: int
    d: int
    shape: str
    central: Optional[tuple[int, int]]
    arms: tuple[tuple[int, ...], ...]

    @property
    def lam(self) -> int:
        """Arm length, the number of vertices on each arm."""
        return len(self.arms[0]) if self.arms else 0

    @property
    def vertex_count(self) -> int:
        return (1 if self.central is not None else 0) + sum(len(a) for a in self.arms)

    def weights(self) -> tuple[int, ...]:
        """Vertex weights in the documented order; only the central curve,
        when present, has nonzero genus."""
        central = () if self.central is None else (self.central[1],)
        return central + tuple(chain.from_iterable(self.arms))

    def iter_vertices(self):
        """Yield (name, genus, weight) in the documented order, for DOT."""
        if self.central is not None:
            yield ("c", self.central[0], self.central[1])
        for ai, arm in enumerate(self.arms, start=1):
            for k, w in enumerate(arm, start=1):
                yield (f"a{ai}_{k}", 0, w)

    def arm_root_indices(self) -> tuple[int, ...]:
        offset = 1 if self.central is not None else 0
        return tuple(offset + ai * self.lam for ai in range(len(self.arms)))

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Undirected edges as index pairs, deterministic order."""
        lam = self.lam
        if lam == 0:
            return ()
        edges = []
        roots = self.arm_root_indices()
        for base in roots:
            if self.central is not None:
                edges.append((0, base))
            edges.extend(zip(range(base, base + lam - 1), range(base + 1, base + lam)))
        if self.shape == BLOWN_DOWN_STAR:
            edges.extend(combinations(roots, 2))
        return tuple(edges)


def weight_data(r: int, d: int) -> WeightData:
    """Compute the weight system, beta, central weight b and central genus."""
    return WeightData(r, d, *_weights(r, d))


def _weights(r: int, d: int) -> tuple[int, int, int, int, int, int, int]:
    """The fields of ``weight_data(r, d)`` after (r, d), as a plain tuple:
    the one place where (r, d) is checked.  alpha = d/g and b' = r/g are
    coprime by construction, so beta comes from ``hjcf._neg_inverse``
    unchecked, and the (alpha, beta) that alpha | 1 + b'beta then certifies
    goes to ``hjcf._run_walk`` unchecked."""
    if not type(r) is type(d) is int:  # one chained test: profile reports call this often
        raise BadParameter(f"r and d must be ints, got {type(r).__name__} and {type(d).__name__}")
    if r < 2 or r > d:
        raise BadMultiplicity(f"need 2 <= r <= d, got r={_repr(r)}, d={_repr(d)}")
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
    vertex pairs, no stored zeros."""
    rows = [{i: -weight} for i, weight in enumerate(graph.weights())]
    for i, j in graph.edge_list():
        rows[i][j] = rows[j][i] = 1
    return rows


def _sparse_rows(matrix, rhs: list) -> list[dict[int, int]]:
    """Copy a square matrix of row dicts {column: entry} into sparse rows
    {column: nonzero entry}.  Every row, column and entry, and every entry of
    the right-hand side list ``rhs``, is checked in C-level passes, zeros
    included: a row that is not a dict, such as a dense list, raises
    BadParameter, and a non-int column or entry, a bool included, TypeError."""
    n = len(matrix)
    if not all(map(isinstance, matrix, repeat(dict))):
        raise BadParameter("matrix rows must be dicts {column: entry}")
    cols = list(chain.from_iterable(matrix))
    entries = list(chain.from_iterable(map(dict.values, matrix)))
    if not set(map(type, chain(cols, entries, rhs))) <= {int}:
        raise TypeError("sparse rows and right-hand side need int columns and entries")
    if cols and (min(cols) < 0 or max(cols) >= n):
        raise NotSymmetric("matrix is not square")
    if 0 in entries:
        return [{j: v for j, v in row.items() if v} for row in matrix]
    # no stored zeros, as in intersection_matrix: a plain copy, about 3% of an oracle sweep
    return list(map(dict, matrix))


def eliminate(matrix, rhs) -> tuple[list[dict[int, int]], list[int]]:
    """Integer elimination of the symmetric system M x = rhs, highest index first.

    ``matrix``, a list of row dicts {column: entry} such as
    ``intersection_matrix`` returns, is copied into sparse rows, which are
    then updated in place.  Pivot p = a_kk turns each row i < k into |p| row_i
    - sign(p) a_ik row_k and divides it and rhs_i by a common factor, so every
    row stays a positive multiple of its rational counterpart.  Row i stores
    its off-diagonal entries divided by a positive multiplier m_i, so a pivot
    whose one lower entry is at column i changes only m_i, a_ii and rhs_i, in
    O(1), and divides the three by their gcd.  m_i is folded into row i when
    it becomes the pivot, and before a pivot with several lower entries
    updates it; a row is rebuilt only when an entry cancels.  Returns the
    sparse rows, now lower triangular, and the rhs; rows[k][k] has the sign
    of the k-th pivot.  Intersection matrices lose arm tips first and get no
    fill-in.  A matrix that is not square and symmetric raises NotSymmetric,
    a row that is not a dict, a non-int entry of the matrix or the right-hand
    side, a bool included, or a right-hand side of another length
    BadParameter, and a zero pivot, from a singular matrix or one that needs
    a row exchange, SingularMatrix.
    """
    n = len(matrix)
    try:
        b = list(rhs)
        rows = _sparse_rows(matrix, b)
    except TypeError:
        raise BadParameter("matrix and right-hand side entries must be integers") from None
    if len(b) != n:
        raise BadParameter(f"right-hand side has {len(b)} entries for {n} rows")
    for i, row in enumerate(rows):
        for j, v in row.items():
            if rows[j].get(i) != v:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    mult = [1] * n  # row i's off-diagonal entries stand for mult[i] times their value
    for k in range(n - 1, -1, -1):
        pivot_row = rows[k]
        p = pivot_row.pop(k, 0)
        if p == 0:
            raise SingularMatrix(f"zero pivot at index {k}")
        if mult[k] != 1:  # fold the multiplier into the new pivot row
            for j in pivot_row:
                pivot_row[j] *= mult[k]
        lower = list(pivot_row.items())  # the columns above k are gone already
        pivot_row[k] = p
        scale, bk = abs(p), b[k]
        if len(lower) == 1:
            # a leaf pivot changes only row i's multiplier, diagonal and rhs
            (i, v), = lower
            row = rows[i]
            factor = mult[i] * (row.pop(k) if p > 0 else -row.pop(k))
            di = scale * row.pop(i, 0) - factor * v
            bi = scale * b[i] - factor * bk
            mi = scale * mult[i] if row else 0  # a lone diagonal needs no multiplier
            g = gcd(mi, di, bi) or 1  # 0 when a lone diagonal and its rhs cancelled
            row[i], b[i], mult[i] = di // g, bi // g, mi // g or 1
            continue
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


def check_negative_definite(m) -> bool:
    """Exact Sylvester test: (-1)^k det M_k > 0 for all leading minors M_k.

    ``m`` is a list of row dicts, as ``eliminate`` takes.  True iff every
    pivot of ``eliminate`` is negative: its pivots are ratios of consecutive
    leading minors of the index-reversed matrix, a symmetric permutation of M
    with the same definiteness.
    """
    try:
        rows, _ = eliminate(m, [0] * len(m))
    except SingularMatrix:
        return False
    return all(row[k] < 0 for k, row in enumerate(rows))


def to_dot(graph: ResolutionGraph) -> str:
    """Deterministic DOT rendering of the dual graph."""
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
