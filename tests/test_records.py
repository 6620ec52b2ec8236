"""The record contract: per-call value records are immutable NamedTuples.

A record that checks itself, or whose ``vars()`` a caller reads, stays a
frozen dataclass; ``tests/test_source.py`` pins which ones those are.
"""

import json

import pytest

from linesurf import (
    build_resolution_graph,
    canonical_coefficients,
    catalog_profile,
    global_invariants,
    hirzebruch_diagnostic,
    hj_expand,
    hodge_diamond,
    local_invariants,
    sweep_verify,
    validate_profile,
    verdict,
    weight_data,
)
from linesurf.cli import main

HESSE = catalog_profile("hesse").profile

# each record as a call returns it, with the field order of the dataclass it
# replaced; _asdict(), repr and positional construction all follow that order
RECORDS = {
    "WeightData": (lambda: weight_data(5, 12),
                   ("r", "d", "g", "w1", "w3", "N", "beta", "b", "genus0")),
    "ResolutionGraph": (lambda: build_resolution_graph(5, 12),
                        ("r", "d", "shape", "central", "arms")),
    "CanonicalCoefficients": (lambda: canonical_coefficients(5, 12),
                              ("r", "d", "shape", "values")),
    "LocalInvariants": (lambda: local_invariants(5, 12),
                        ("r", "d", "dci", "dcii", "dmy", "e")),
    "HJExpansion": (lambda: hj_expand(12, 5), ("alpha", "beta", "terms")),
    "HodgeDiamond": (lambda: hodge_diamond(HESSE, 3), ("q", "pg", "h11")),
    "OracleReport": (lambda: sweep_verify(3, 5)[-1],
                     ("r", "d", "coefficients_match", "dci_match", "dcii_match",
                      "oracle_dci", "oracle_dcii")),
    "CatalogEntry": (lambda: catalog_profile("hesse"), ("name", "profile", "q")),
    "HirzebruchDiagnostic": (lambda: hirzebruch_diagnostic(HESSE),
                             ("applicable", "lhs", "rhs", "holds")),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    make, fields = RECORDS[request.param]
    rec = make()
    assert type(rec).__name__ == request.param
    return rec, fields


def test_fields_are_read_only(record):
    rec, fields = record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_rebuilt_copy_is_equal_with_the_same_hash(record):
    rec, fields = record
    for copy in (type(rec)(*rec), type(rec)(**{name: getattr(rec, name) for name in fields})):
        assert copy == rec and hash(copy) == hash(rec)


def test_repr_names_each_field(record):
    rec, fields = record
    assert repr(rec) == (f"{type(rec).__name__}("
                         + ", ".join(f"{name}={getattr(rec, name)!r}" for name in fields) + ")")


def test_asdict_keeps_the_field_order(record):
    rec, fields = record
    assert list(rec._asdict()) == list(fields)
    assert rec._asdict() == {name: getattr(rec, name) for name in fields}


def test_is_a_plain_tuple_of_its_values(record):
    rec, fields = record
    values = tuple(getattr(rec, name) for name in fields)
    assert rec == values and tuple(rec) == values


def test_properties():
    assert hj_expand(12, 5).length == 3
    assert hj_expand(1, 0).length == 0
    star, chain = build_resolution_graph(5, 12), build_resolution_graph(2, 6)
    assert (star.lam, star.vertex_count) == (3, 16)
    assert (chain.lam, chain.vertex_count) == (5, 5)
    assert build_resolution_graph(4, 4).lam == 0
    assert hodge_diamond(HESSE, 3).c2 == 360
    reports = sweep_verify(4, 12)
    assert reports and all(rep.ok for rep in reports)
    assert not reports[0]._replace(dci_match=False).ok


def test_vars_order_of_the_dataclass_records():
    # the benchmark digests list(vars(gi).values()) and list(vars(v).values())
    profile = validate_profile(6, {2: 3, 3: 4})
    assert list(vars(global_invariants(profile))) == [
        "k2_bar", "chi_bar", "my_bar", "c1sq", "c2", "my_tilde", "chern_ratio"]
    assert list(vars(verdict(profile))) == [
        "pencil", "my_sign", "ball_quotient_possible", "general_type", "reason"]


def test_verify_json_prints_each_oracle_report(capsys):
    assert main(["verify", "--r-max", "4", "--d-max", "12", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    reports = sweep_verify(4, 12)
    assert payload["pairs"] == len(reports) and payload["mismatches"] == 0
    assert payload["reports"] == [rep._asdict() for rep in reports]
    assert all(list(printed) == sorted(RECORDS["OracleReport"][1])
               for printed in payload["reports"])
