"""Every public entry point answers a wrong argument with a LineSurfError.

Each callable in ``linesurf.__all__`` runs once on valid arguments, then
with None, "x" and [1] in each argument slot in turn, valid values
elsewhere: it must return or raise a ``LineSurfError``, never an
``AttributeError`` or ``TypeError`` from deeper down.  The NamedTuple and
plain result rows, which a caller reads rather than builds, are out of scope.
"""

import pytest

import linesurf
from linesurf import (build_resolution_graph, catalog_profile, intersection_matrix,
                      parse_arrangement)
from linesurf.errors import BadParameter, LineSurfError
from linesurf.verify import adjunction_rhs

HESSE = catalog_profile("hesse").profile
GRAPH = build_resolution_graph(3, 7)
TRIANGLE = parse_arrangement("1 0 0\n0 1 0\n0 0 1\n")

VALID = {
    "Arrangement": (TRIANGLE.lines,),
    "Line": (1, 0, 0),
    "Profile": (3, ((2, 3),)),
    "catalog_profile": ("ceva", 3),
    "is_pencil": (HESSE,),
    "parse_arrangement": ("1 0 0\n0 1 0\n",),
    "profile_of": (TRIANGLE,),
    "validate_profile": (3, {2: 3}),
    "hj_expand": (7, 3),
    "hj_summary": (7, 3),
    "modular_beta": (7, 3),
    "canonical_coefficients": (3, 7),
    "local_invariants": (3, 7),
    "build_resolution_graph": (3, 7),
    "check_negative_definite": (intersection_matrix(GRAPH),),
    "intersection_matrix": (GRAPH,),
    "to_dot": (GRAPH,),
    "weight_data": (3, 7),
    "base_invariants": (HESSE,),
    "chern_numbers": (HESSE,),
    "chern_ratio_analysis": (HESSE,),
    "global_invariants": (HESSE,),
    "hodge_diamond": (HESSE, 3),
    "my_tilde": (HESSE,),
    "verdict": (HESSE,),
    "coefficients_from_matrix": (GRAPH,),
    "local_invariants_from_graph": (GRAPH,),
    "sweep_verify": (3, 5),
}
RESULT_ROWS = {"CatalogEntry", "HJExpansion", "CanonicalCoefficients", "LocalInvariants",
               "ResolutionGraph", "WeightData", "GlobalInvariants", "HodgeDiamond", "Verdict",
               "OracleReport"}
# the entry points that take a Profile or a ResolutionGraph test its exact type
# first, so they name themselves; adjunction_rhs is public in linesurf.verify
TYPED = {name: "Profile" for name in ("is_pencil", "base_invariants", "chern_numbers",
                                      "my_tilde", "global_invariants", "verdict",
                                      "hodge_diamond", "chern_ratio_analysis")}
TYPED.update((name, "ResolutionGraph") for name in (
    "intersection_matrix", "to_dot", "adjunction_rhs", "coefficients_from_matrix",
    "local_invariants_from_graph"))
CALLS = {**{name: getattr(linesurf, name) for name in VALID}, "adjunction_rhs": adjunction_rhs}
ARGS = {**VALID, "adjunction_rhs": (GRAPH,)}
BAD = (None, "x", [1])


def test_every_public_name_is_covered():
    assert set(linesurf.__all__) == set(VALID) | RESULT_ROWS | {"__version__"}
    assert set(TYPED) <= set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_wrong_argument_ends_as_a_linesurf_error(name):
    call, args = CALLS[name], ARGS[name]
    call(*args)
    for slot in range(len(args)):
        for bad in BAD:
            given = list(args)
            given[slot] = bad
            try:
                call(*given)
            except LineSurfError:
                pass


@pytest.mark.parametrize("name", sorted(TYPED))
@pytest.mark.parametrize("bad", BAD, ids=["None", "str", "list"])
def test_exact_type_test_names_the_entry_point(name, bad):
    expected = f"^{name} needs a {TYPED[name]}, got {type(bad).__name__}$"
    with pytest.raises(BadParameter, match=expected):
        CALLS[name](bad, *ARGS[name][1:])
