"""The record contract: every result record is immutable.

Per-call value records are NamedTuples.  The six records that check
themselves or whose ``vars()`` a caller reads are plain classes on
``linesurf.record.Record``.
"""

import json
from fractions import Fraction

import pytest

from linesurf import (
    Arrangement,
    Line,
    Profile,
    build_resolution_graph,
    canonical_coefficients,
    catalog_profile,
    global_invariants,
    hj_expand,
    hj_summary,
    hodge_diamond,
    local_invariants,
    modular_beta,
    parse_arrangement,
    sweep_verify,
    validate_profile,
    verdict,
    weight_data,
)
from linesurf.cli import main
from linesurf.errors import (
    BadMultiplicity,
    BadParameter,
    BetaOutOfRange,
    LineSurfError,
    NegativeHodgeNumber,
    NotCoprime,
    UnbalancedProfile,
)
from linesurf.record import _str

HESSE = catalog_profile("hesse").profile

# each record as a call returns it, with the field order of the dataclass it
# replaced; _asdict(), repr and positional construction all follow that order
RECORDS = {
    "WeightData": (lambda: weight_data(5, 12),
                   ("r", "d", "g", "w1", "w3", "N", "beta", "b", "genus0")),
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
    star, node = build_resolution_graph(5, 12), build_resolution_graph(2, 6)
    assert (star.lam, star.vertex_count) == (3, 16)
    assert (node.lam, node.vertex_count) == (2, 5)
    assert build_resolution_graph(4, 4).lam == 0
    assert hodge_diamond(HESSE, 3).c2 == 360
    reports = sweep_verify(4, 12)
    assert reports and all(rep.ok for rep in reports)
    assert not reports[0]._replace(dci_match=False).ok


# the six plain-class records, with their field order; the benchmark
# digests list(vars(gi).values()) and list(vars(v).values()), and the
# invariants report prints dict(vars(v))
PLAIN_RECORDS = {
    "Line": (lambda: Line.of(1, "-1/2", 3), ("a", "b", "c")),
    "Arrangement": (lambda: parse_arrangement("1 0 0\n0 1 0\n0 0 1\n"), ("lines",)),
    "Profile": (lambda: validate_profile(6, {2: 3, 3: 4}), ("d", "t")),
    "ResolutionGraph": (lambda: build_resolution_graph(5, 12),
                        ("r", "d", "shape", "central", "arms")),
    "GlobalInvariants": (lambda: global_invariants(HESSE),
                         ("k2_bar", "chi_bar", "my_bar", "c1sq", "c2", "my_tilde",
                          "chern_ratio")),
    "Verdict": (lambda: verdict(HESSE),
                ("pencil", "my_sign", "ball_quotient_possible", "general_type", "reason")),
}


@pytest.fixture(params=sorted(PLAIN_RECORDS))
def plain_record(request):
    make, fields = PLAIN_RECORDS[request.param]
    rec = make()
    assert type(rec).__name__ == request.param
    return rec, fields


def test_plain_record_is_read_only(plain_record):
    rec, fields = plain_record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_plain_record_rebuilt_copy_is_equal_with_the_same_hash(plain_record):
    rec, fields = plain_record
    values = [getattr(rec, name) for name in fields]
    for copy in (type(rec)(*values), type(rec)(**dict(zip(fields, values)))):
        assert copy is not rec and copy == rec and hash(copy) == hash(rec)
    # equal only to its own class: not to a tuple or dict of the same values
    assert rec != tuple(values) and rec != dict(zip(fields, values))


def test_plain_record_repr_names_each_field(plain_record):
    rec, fields = plain_record
    assert repr(rec) == (f"{type(rec).__name__}("
                         + ", ".join(f"{name}={getattr(rec, name)!r}" for name in fields) + ")")


def test_repr_of_an_int_past_the_digit_limit():
    # repr refuses an int of more than 4300 digits; a record shows its bit length
    with pytest.raises(BadParameter, match=r"^Line\(a=<int of 14286 bits>, b=0, c=0\) is not"):
        Line(2 * 10 ** 4300, 0, 0)
    assert repr(parse_arrangement("1e4300 0 1\n0 1 0\n")) == (
        "Arrangement(lines=(Line(a=<int of 14285 bits>, b=0, c=1), Line(a=0, b=1, c=0)))")
    assert repr(Line(1, -(10 ** 4300), 0)) == "Line(a=1, b=<-int of 14285 bits>, c=0)"


def test_str_of_a_whole_fraction_past_the_digit_limit():
    # str refuses the numerator; a Fraction of denominator 1 prints it alone, every digit
    assert _str(Fraction(10**5000)) == "1" + "0" * 5000


BIG = 10**5000  # past the digit limit of int-to-str conversion

# each call takes a number that it refuses: an int past the digit limit of
# int-to-str conversion, which the message must render through record._repr,
# or a number that is no int; or a profile's t that is no iterable of pairs
BAD_NUMBERS = {
    "weight_data-huge": (lambda: weight_data(10**4301, 5), BadMultiplicity),
    "local_invariants-huge": (lambda: local_invariants(10**4301, 5), BadMultiplicity),
    "sweep_verify-huge": (lambda: sweep_verify(10**4301, 5), BadParameter),
    "hj_expand-huge": (lambda: hj_expand(10**4400, 10**4400), BetaOutOfRange),
    "modular_beta-huge": (lambda: modular_beta(10**4400, 2 * 10**4400), NotCoprime),
    "validate_profile-huge": (lambda: validate_profile(10**3000, {2: 1}), UnbalancedProfile),
    "hodge_diamond-huge": (lambda: hodge_diamond(HESSE, -10**4400), NegativeHodgeNumber),
    "hodge_diamond-float": (lambda: hodge_diamond(HESSE, 1.5), BadParameter),
    "hodge_diamond-bool": (lambda: hodge_diamond(HESSE, True), BadParameter),
    "hj_expand-float": (lambda: hj_expand(2.5, 1), BadParameter),
    "hj_summary-float": (lambda: hj_summary(5, 2.0), BadParameter),
    "modular_beta-float": (lambda: modular_beta(5.0, 2), BadParameter),
    # a value that is no bare int, but whose repr holds one past the digit limit
    "hodge_diamond-huge-inside": (lambda: hodge_diamond(HESSE, Fraction(BIG)), BadParameter),
    "Line-huge-inside": (lambda: Line(Fraction(BIG), 0, 0), BadParameter),
    "Line.of-huge-inside": (lambda: Line.of([BIG], 0, 0), BadParameter),
    "Arrangement-huge-inside": (lambda: Arrangement([(BIG, 0, 0), (0, 1, 0)]), BadParameter),
    "Profile-d-huge-inside": (lambda: Profile(Fraction(BIG), ()), BadParameter),
    "Profile-count-huge-inside": (lambda: Profile(5, ((2, Fraction(BIG)),)), BadParameter),
    "validate_profile-d-huge-inside": (lambda: validate_profile(Fraction(BIG), {2: 1}),
                                       BadParameter),
    "validate_profile-r-huge-inside": (lambda: validate_profile(5, {Fraction(BIG): 1}),
                                       BadParameter),
    "validate_profile-unsortable-huge-inside": (
        lambda: validate_profile(5, {Fraction(BIG): 1, "a": 1}), BadParameter),
    "hj_expand-huge-inside": (lambda: hj_expand(Fraction(BIG), 1), BadParameter),
    "hj_summary-huge-inside": (lambda: hj_summary(BIG + 1, Fraction(BIG)), BadParameter),
    "modular_beta-huge-inside": (lambda: modular_beta(Fraction(BIG), 1), BadParameter),
    "sweep_verify-huge-inside": (lambda: sweep_verify(Fraction(BIG), 5), BadParameter),
    "Profile-t-int": (lambda: Profile(3, 5), BadParameter),
    "Profile-t-none": (lambda: Profile(3, None), BadParameter),
    "Profile-t-short-pair": (lambda: Profile(3, [(3,)]), BadParameter),
    "Profile-t-long-pair": (lambda: Profile(3, [(3, 1, 0)]), BadParameter),
    "Profile-t-bare-ints": (lambda: Profile(3, [3, 1]), BadParameter),
}


@pytest.mark.parametrize("name", sorted(BAD_NUMBERS))
def test_bad_number_ends_as_its_error(name):
    call, error = BAD_NUMBERS[name]
    assert issubclass(error, LineSurfError)
    with pytest.raises(error) as info:
        call()
    if name.endswith("-huge"):
        assert " bits>" in str(info.value)
    elif name.endswith("-huge-inside"):
        assert " holding an int past the digit limit>" in str(info.value)


# the private attributes that a record derives from its fields, after them in vars()
DERIVED = {"ResolutionGraph": ["_vertex_weights", "_arm_roots", "_edges"]}


def test_plain_record_vars_keep_the_field_order(plain_record):
    rec, fields = plain_record
    derived = DERIVED.get(type(rec).__name__, [])
    assert vars(rec) == {name: getattr(rec, name) for name in (*fields, *derived)}
    assert list(vars(rec)) == [*fields, *derived]


def test_profile_freezes_its_pairs():
    # t may come as any iterable of pairs; it is stored as a tuple of tuples,
    # so the profile equals, and hashes like, the one built from tuples
    frozen = Profile(3, ((3, 1),))
    for t in ([[3, 1]], [(3, 1)], iter([(3, 1)]), ([3, 1] for _ in range(1))):
        p = Profile(3, t)
        assert p == frozen and hash(p) == hash(frozen) and p.t == ((3, 1),)
        assert type(p.t) is tuple and type(p.t[0]) is tuple
        assert global_invariants(p) == global_invariants(frozen)
        assert verdict(p) == verdict(frozen)
    assert len({frozen, Profile(3, [[3, 1]]), validate_profile(3, {3: 1})}) == 1


def test_plain_records_differ_by_value():
    assert Line(1, 0, 0) != Line(0, 1, 0)
    assert validate_profile(3, {2: 3}) != validate_profile(3, {3: 1})
    assert len({Line(1, 0, 0), Line.of(2, 0, 0), Line(0, 0, 1)}) == 2


def test_verify_json_prints_each_oracle_report(capsys):
    assert main(["verify", "--r-max", "4", "--d-max", "12", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    reports = sweep_verify(4, 12)
    assert payload["pairs"] == len(reports) and payload["mismatches"] == 0
    assert payload["reports"] == [rep._asdict() for rep in reports]
    assert all(list(printed) == sorted(RECORDS["OracleReport"][1])
               for printed in payload["reports"])
