"""Independent oracle: recompute local invariants from the intersection matrix.

Nothing here reuses the closed forms.  The coefficient vector comes from
solving M a = k exactly, through the elimination the definiteness test also
uses, where k_v = 2 g(v) - 2 + w(v) is the adjunction right-hand side; DCI is
then the quadratic form a^T M a and DCII is the Euler characteristic of the
exceptional configuration minus one.  The sweep solves each (r, d) once and
compares these against the closed forms in :mod:`linesurf.local`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameter
from .local import canonical_coefficients, local_invariants
from .resolution import (
    BLOWN_DOWN_STAR,
    CHAIN,
    STAR,
    ResolutionGraph,
    build_resolution_graph,
    eliminate,
    intersection_matrix,
)


@dataclass(frozen=True)
class OracleReport:
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


def solve_exact(matrix, rhs) -> list[Fraction]:
    """Exact solve of a symmetric integer system M x = rhs: forward substitution
    through the lower-triangular rows of ``eliminate``, which refuses a matrix
    that is not symmetric.  Integral components stay ``int`` until the end, so
    an integral solution needs no ``Fraction`` arithmetic."""
    rows, b = eliminate(matrix, rhs)
    x: list = []
    for i, row in enumerate(rows):
        num = b[i] - sum(v * x[j] for j, v in row.items() if j < i)
        x.append(num // row[i] if num % row[i] == 0 else Fraction(num) / row[i])
    return [Fraction(v) for v in x]


def adjunction_rhs(graph: ResolutionGraph) -> list[int]:
    """k_v = E_v . K = 2 g(v) - 2 + w(v) for every vertex."""
    return [2 * genus - 2 + weight for _, genus, weight in graph.iter_vertices()]


def coefficients_from_matrix(graph: ResolutionGraph) -> tuple[int, ...]:
    """Solve M a = k and return the (asserted integral) coefficient vector."""
    solution = solve_exact(intersection_matrix(graph), adjunction_rhs(graph))
    if any(value.denominator != 1 for value in solution):
        raise AssertionError(f"non-integral coefficients {solution} for (r, d)="
                             f"({graph.r}, {graph.d})")
    return tuple(int(value) for value in solution)


def local_invariants_from_graph(graph: ResolutionGraph) -> tuple[int, int]:
    """(oracle DCI, oracle DCII) from the matrix and configuration alone."""
    return _oracle_invariants(graph, coefficients_from_matrix(graph))


def _oracle_invariants(graph: ResolutionGraph, a: tuple[int, ...]) -> tuple[int, int]:
    """DCI = a^T M a and DCII from the solved coefficients a of ``graph``."""
    vertices = list(graph.iter_vertices())
    dci = -sum(a[i] * a[i] * weight for i, (_, _, weight) in enumerate(vertices))
    dci += 2 * sum(a[i] * a[j] for i, j in graph.edge_list())

    chi_curves = sum(2 - 2 * genus for _, genus, _ in vertices)
    if graph.shape == BLOWN_DOWN_STAR:
        # the r arm roots meet in one common point of multiplicity r;
        # arm-internal edges are ordinary double points
        roots = set(graph.arm_root_indices())
        simple = sum(1 for i, j in graph.edge_list()
                     if not (i in roots and j in roots))
        excess = simple + (graph.r - 1)
    else:
        excess = len(graph.edge_list())
    dcii = (chi_curves - excess) - 1
    return dci, dcii


def expected_vertex_coefficients(r: int, d: int) -> tuple[int, ...]:
    """Closed-form coefficients expanded to the documented vertex order."""
    cc = canonical_coefficients(r, d)
    if cc.shape == STAR:
        return (cc.values[0],) + cc.values[1:] * r
    if cc.shape == BLOWN_DOWN_STAR:
        return cc.values * r
    if cc.shape != CHAIN:
        raise AssertionError(f"unknown shape {cc.shape!r} for (r, d)=({r}, {d})")
    return cc.values


def sweep_verify(r_max: int, d_max: int) -> list[OracleReport]:
    """Compare oracle and closed forms over 2 <= r <= min(r_max, d) <= d <= d_max."""
    if r_max < 2 or d_max < r_max:
        raise BadParameter(f"need r_max >= 2 and d_max >= r_max, got ({r_max}, {d_max})")
    reports = []
    for r in range(2, r_max + 1):
        for d in range(r, d_max + 1):
            graph = build_resolution_graph(r, d)
            solved = coefficients_from_matrix(graph)
            oracle_dci, oracle_dcii = _oracle_invariants(graph, solved)
            closed = local_invariants(r, d)
            reports.append(OracleReport(
                r, d,
                coefficients_match=solved == expected_vertex_coefficients(r, d),
                dci_match=oracle_dci == closed.dci,
                dcii_match=oracle_dcii == closed.dcii,
                oracle_dci=oracle_dci,
                oracle_dcii=oracle_dcii,
            ))
    return reports
