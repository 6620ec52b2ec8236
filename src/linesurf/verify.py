"""Independent oracle: recompute local invariants from the intersection matrix.

Nothing here reuses the closed forms.  The coefficient vector comes from
solving M a = k exactly, through the elimination the definiteness test also
uses, where k_v = 2 g(v) - 2 + w(v) is the adjunction right-hand side; DCI is
then the quadratic form a^T M a and DCII is the Euler characteristic of the
exceptional configuration minus one.  Each public function that takes a graph
refuses any argument but a ``ResolutionGraph`` through ``errors._need``, the
package's one refusal of a wrong argument kind, and trusts the graph, which
checked itself when it was built.  ``coefficients_from_matrix`` checks the
symmetry of the fresh rows of ``intersection_matrix``, the one check they
need, and eliminates them with no type pass or copy, through
``resolution._pivots`` and the forward substitution ``_forward``, the two
that ``solve_exact`` runs after ``eliminate``'s checks and copy.  The sweep
solves each pair once, and ``_invariants`` reads DCI and DCII from the
coefficients.  It compares the results against the closed forms in
:mod:`linesurf.local`, one ``OracleReport`` NamedTuple per pair, built
positionally through ``tuple.__new__``.  The graphs take their arms from
``hj_expand``, one term per step, and the closed forms read ``hj_summary``'s
run walk, which takes each run of 2s in one step, so the sweep also checks
these two independent walks against each other.  ``canonical_coefficients``
runs the star recurrence for every pair and drops a_0 on a blown-down star,
so the solve on the blown-down graphs checks that recurrence and the
contraction step too.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import BadParameter, InternalCheckError, NotSymmetric, _need
from .local import canonical_coefficients, local_invariants
from .record import _repr
from .resolution import (
    BLOWN_DOWN_STAR,
    STAR,
    ResolutionGraph,
    _pivots,
    build_resolution_graph,
    eliminate,
    intersection_matrix,
)


class OracleReport(NamedTuple):
    r: int
    d: int
    coefficients_match: bool
    dci_match: bool
    dcii_match: bool
    oracle_dci: int
    oracle_dcii: int

    @property
    def ok(self) -> bool:
        return self.coefficients_match and self.dci_match and self.dcii_match


def solve_exact(matrix, rhs) -> list[int | Fraction]:
    """Exact solve of a symmetric integer system M x = rhs, given as row dicts
    {column: entry}: forward substitution through the lower-triangular rows
    of ``eliminate``, which checks and copies the rows and rhs, so the
    caller's are left as they were, and refuses a matrix that is not
    symmetric.  Each component is an ``int`` when integral and a ``Fraction``
    otherwise.  A zero pivot raises SingularMatrix even if a row exchange
    gives a unique solution."""
    return _forward(*eliminate(matrix, rhs))


def _forward(rows: list[dict[int, int]], b: list[int]) -> list[int | Fraction]:
    """Forward substitution through the lower-triangular rows and rhs that
    ``resolution._pivots`` returns, popping each diagonal.  Component i is
    (b_i - sum_j a_ij x_j) / a_ii, an ``int`` when a_ii divides it and a
    ``Fraction`` otherwise, also when a ``Fraction`` x_j fed it.  An
    eliminated star row holds one or two entries besides its diagonal, so
    each is subtracted in a plain loop, with no iterator set up per row."""
    x: list = []
    for i, row in enumerate(rows):
        p = row.pop(i)
        num = b[i]
        for j in row:
            num -= row[j] * x[j]
        x.append(num // p if num % p == 0 else Fraction(num, p))
    return x


def adjunction_rhs(graph: ResolutionGraph) -> list[int]:
    """k_v = E_v . K = 2 g(v) - 2 + w(v) for every vertex."""
    _need(graph, ResolutionGraph, "adjunction_rhs")
    rhs = [weight - 2 for weight in graph.weights()]
    if graph.central is not None:
        rhs[0] += 2 * graph.central[0]
    return rhs


def coefficients_from_matrix(graph: ResolutionGraph) -> tuple[int, ...]:
    """Solve M a = k on the graph's rows, built here and so handed to
    ``_pivots`` as they are once they are checked symmetric (NotSymmetric
    otherwise); return the (checked integral) coefficients."""
    _need(graph, ResolutionGraph, "coefficients_from_matrix")
    rows = intersection_matrix(graph)
    for i, row in enumerate(rows):
        for j, v in row.items():
            if rows[j].get(i) != v:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    solution = _forward(*_pivots(rows, adjunction_rhs(graph)))
    if not set(map(type, solution)) <= {int}:
        raise InternalCheckError(f"non-integral coefficients {solution} for (r, d)="
                                 f"({graph.r}, {graph.d})")
    return tuple(solution)


def local_invariants_from_graph(graph: ResolutionGraph) -> tuple[int, int]:
    """(oracle DCI, oracle DCII) from the matrix and configuration alone."""
    _need(graph, ResolutionGraph, "local_invariants_from_graph")
    return _invariants(graph, coefficients_from_matrix(graph))


def _invariants(graph: ResolutionGraph, a: tuple[int, ...]) -> tuple[int, int]:
    """(DCI, DCII) from the graph and its solved coefficients a.  Each edge is
    an ordinary double point, but a blown-down star's r roots meet in one."""
    weights, edges = graph.weights(), graph.edge_list()
    cross = 0  # the edge sum of a^T M a, whose off-diagonal entries are 1
    for i, j in edges:
        cross += a[i] * a[j]
    dci = 2 * cross - sum(map(mul, map(mul, a, a), weights))
    genus = graph.central[0] if graph.central is not None else 0
    excess = len(edges)
    if graph.shape == BLOWN_DOWN_STAR:
        excess -= (graph.r - 1) * (graph.r - 2) // 2  # its C(r, 2) clique edges count r - 1
    return dci, 2 * len(weights) - 2 * genus - excess - 1


def expected_vertex_coefficients(r: int, d: int) -> tuple[int, ...]:
    """Closed-form coefficients expanded to the documented vertex order."""
    cc = canonical_coefficients(r, d)
    if cc.shape == STAR:
        return (cc.values[0],) + cc.values[1:] * r
    return cc.values * r


def sweep_verify(r_max: int, d_max: int) -> list[OracleReport]:
    """Compare oracle and closed forms over 2 <= r <= min(r_max, d) <= d <= d_max."""
    if not type(r_max) is type(d_max) is int or r_max < 2 or d_max < r_max:
        raise BadParameter(f"need ints r_max >= 2 and d_max >= r_max, "
                           f"got ({_repr(r_max)}, {_repr(d_max)})")
    reports = []
    for r in range(2, r_max + 1):
        for d in range(r, d_max + 1):
            graph = build_resolution_graph(r, d)
            solved = coefficients_from_matrix(graph)
            oracle_dci, oracle_dcii = _invariants(graph, solved)
            closed = local_invariants(r, d)
            # positionally, in one C call, as ``local_invariants`` builds its row
            reports.append(tuple.__new__(OracleReport, (
                r, d, solved == expected_vertex_coefficients(r, d),
                oracle_dci == closed.dci, oracle_dcii == closed.dcii, oracle_dci, oracle_dcii)))
    return reports
