"""Line parsing, profile extraction and catalog tests."""

import io
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import comb, lcm
from operator import mul

import pytest
from hypothesis import example, given, strategies as st

from linesurf import (
    Arrangement,
    Line,
    Profile,
    catalog_profile,
    is_pencil,
    parse_arrangement,
    profile_of,
    validate_profile,
)
from linesurf import arrangement
from linesurf.arrangement import CATALOG, FLOOR_KEY_BITS, MAX_EXPONENT, _rational
from linesurf.errors import (
    BadParameter,
    DuplicateLine,
    LineSurfError,
    MalformedLine,
    MultiplicityOutOfRange,
    TooFewLines,
    UnbalancedProfile,
    UnknownCatalogName,
    ZeroForm,
)

TRIANGLE = "1 0 0\n0 1 0\n0 0 1\n"
# the characters of coefficient tokens, with the Unicode digits three and
# zero (Arabic-Indic) and fullwidth one, which int() and Fraction accept,
# and the superscript two, which both refuse
TOKEN_ALPHABET = "0123456789+-/._eE\u0663\u00b2\uff11\u0660"
# the characters at which str.splitlines also breaks a line, besides \n and
# \r; in a coordinate file they are whitespace inside a line
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _reference_token(tok, lineno):
    """Reference token reader: the exponent bound, then ``Fraction``."""
    try:
        _, e, exponent = tok.lower().partition("e")
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise MalformedLine(f"line {lineno}: exponent of {tok!r} exceeds "
                                f"{MAX_EXPONENT} in magnitude")
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise MalformedLine(f"line {lineno}: {tok!r} is not a rational number") from None


def _reference_parse(text):
    """The line-list parser on ``Fraction``s over the lines of ``text`` as
    text mode reads them: only \\n, \\r\\n and \\r end a line."""
    return _reference_rows(io.StringIO(text, newline=None))


def _reference_rows(rows):
    """The line-list parser on ``Fraction``s over the file lines ``rows``:
    each token through ``_reference_token``, each row divided by its first
    nonzero entry and then scaled by the lcm of its denominators.  A repeated
    line is named by the file lines of its first repeat.  Returns the
    arrangement, or the type and message of the error raised."""
    try:
        lines, seen, repeat = [], {}, None
        for lineno, raw in enumerate(rows, start=1):
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            if len(tokens) != 3:
                raise MalformedLine(f"line {lineno}: expected 3 coefficients, got {len(tokens)}")
            coeffs = [_reference_token(tok, lineno) for tok in tokens]
            if not any(coeffs):
                raise ZeroForm(f"line {lineno}: all coefficients are zero")
            lead = next(v for v in coeffs if v)
            scaled = [v / lead for v in coeffs]
            scale = lcm(*(v.denominator for v in scaled))
            lines.append(Line(*(int(v * scale) for v in scaled)))
            first = seen.setdefault(lines[-1], lineno)
            if first != lineno and not repeat:
                repeat = first, lineno
        if repeat:
            raise DuplicateLine("lines %d and %d coincide" % repeat)
        return Arrangement(tuple(lines))
    except LineSurfError as exc:
        return type(exc), str(exc)


def _parse_outcome(text):
    try:
        return parse_arrangement(text)
    except LineSurfError as exc:
        return type(exc), str(exc)


@st.composite
def line_texts(draw):
    """Line-list texts of mostly three-token rows: small integers, p/q with a
    possibly signed or zero denominator, and arbitrary tokens, with one of
    the three line ends."""
    token = st.one_of(st.integers(-9, 9).map(str),
                      st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-2, 9)),
                      st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=6))
    rows = draw(st.lists(st.lists(token, min_size=2, max_size=4).map(" ".join), max_size=8))
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return end.join(row + draw(st.sampled_from(("", "  # c"))) for row in rows)


class TestLine:
    def test_canonical_scaling(self):
        assert Line.of(2, 4, 6) == Line.of(1, 2, 3)
        assert Line.of(0, -3, 9) == Line.of(0, 1, -3)
        assert Line.of(Fraction(1, 2), 0, 1) == Line.of(1, 0, 2)

    def test_integer_canonical_form(self):
        assert Line.of(2, 3, 0) == Line(2, 3, 0)
        assert Line.of(Fraction(1, 2), Fraction(1, 3), 0) == Line(3, 2, 0)
        assert Line.of(0, -3, 9) == Line(0, 1, -3)
        assert all(type(v) is int for v in (Line.of(Fraction(-4, 6), 2, 0).a, Line.of(1, 1, 1).c))
        with pytest.raises(BadParameter):
            Line(Fraction(1), 0, 0)

    @pytest.mark.parametrize("coeffs", [(2, 0, 0), (-1, 0, 0), (0, 0, 0)])
    def test_rejects_non_primitive_triple(self, coeffs):
        with pytest.raises(BadParameter):
            Line(*coeffs)

    def test_zero_form(self):
        with pytest.raises(ZeroForm):
            Line.of(0, 0, 0)

    @pytest.mark.parametrize("value", [1.5, "1", None, True])
    def test_refuses_non_int_coefficient(self, value):
        with pytest.raises(BadParameter, match="not a primitive integer triple"):
            Line(value, 0, 0)

    # Fraction reads a bool as 0 or 1; Line.of refuses it, as Line does
    @pytest.mark.parametrize("value", ["x", "1/0", float("nan"), float("inf"), None, True, False])
    def test_of_refuses_non_rational(self, value):
        with pytest.raises(BadParameter, match="coefficients must be rational"):
            Line.of(value, 0, 0)

    @pytest.mark.parametrize("value", ["1e10000000", "-2.5e-10000000", "1E4301",
                                       Decimal("1e10000000")])
    def test_of_refuses_huge_exponent(self, value):
        # refused before Fraction builds 10**k, as parse_arrangement refuses the token
        with pytest.raises(BadParameter, match=f"exceeds {MAX_EXPONENT}"):
            Line.of(value, 0, 1)

    def test_of_takes_the_largest_exponent(self):
        line = parse_arrangement("1e4300 0 1\n0 1 0\n").lines[0]
        assert Line.of("1e4300", 0, 1) == Line.of(Decimal("1e4300"), 0, 1) == line

    def test_arrangement_refuses_non_line(self):
        with pytest.raises(BadParameter, match=r"line 2 is not a Line: \(0, 1, 0\)"):
            Arrangement((Line(1, 0, 0), (0, 1, 0)))
        with pytest.raises(BadParameter, match="lines must be an iterable of Line"):
            Arrangement(None)

    def test_arrangement_names_indices_past_the_first(self):
        # the type and duplicate checks run over all lines at once; a refusal
        # still names the index of the first offender
        x, y, z, w = Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1), Line(1, 1, 1)
        with pytest.raises(BadParameter, match=r"^line 3 is not a Line: \(0, 0, 1\)$"):
            Arrangement((x, y, (0, 0, 1), w))
        with pytest.raises(DuplicateLine, match="^lines 2 and 4 coincide$"):
            Arrangement((x, y, z, Line(0, 1, 0), w))

    def test_arrangement_stores_a_tuple(self):
        arr = Arrangement([Line(1, 0, 0), Line(0, 1, 0)])
        assert arr.lines == (Line(1, 0, 0), Line(0, 1, 0))
        assert hash(arr) == hash(Arrangement((Line(1, 0, 0), Line(0, 1, 0))))


class TestParse:
    def test_comments_and_blanks(self):
        arr = parse_arrangement("# axes\n1 0 0  # x\n\n0 1 0\n0 0 1\n")
        assert arr.d == 3

    def test_rational_tokens(self):
        arr = parse_arrangement("1/2 0 1\n0 1 -2/3\n")
        assert arr.lines[0] == Line.of(1, 0, 2)

    def test_malformed(self):
        with pytest.raises(MalformedLine):
            parse_arrangement("1 0\n")
        with pytest.raises(MalformedLine):
            parse_arrangement("1 0 zebra\n")

    def test_exponent_bound(self):
        assert parse_arrangement("1e4300 0 1\n1e-4300 1 0\n").lines[0] == Line(10 ** 4300, 0, 1)
        for token in ("1e100000", "1e4301", "2.5E-4301"):
            with pytest.raises(MalformedLine, match="exponent"):
                parse_arrangement(f"{token} 0 1\n0 1 0\n")

    def test_zero_row_reports_line_number(self):
        with pytest.raises(ZeroForm, match="line 2"):
            parse_arrangement("1 0 0\n0 0 0\n")

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateLine):
            parse_arrangement("1 0 0\n2 0 0\n")

    def test_duplicates_name_file_lines(self):
        # comments and blanks count as file lines; a directly built
        # arrangement still names its own indices
        with pytest.raises(DuplicateLine, match="^lines 3 and 5 coincide$"):
            parse_arrangement("# header\n\n1 0 0\n0 1 0 # y\n2 0 0\n")
        with pytest.raises(DuplicateLine, match="^lines 1 and 3 coincide$"):
            Arrangement((Line(1, 0, 0), Line(0, 1, 0), Line(1, 0, 0)))

    def test_too_few(self):
        with pytest.raises(TooFewLines):
            parse_arrangement("1 0 0\n")

    def test_splitlines_only_breaks_are_exactly_these(self):
        breaks = {chr(i) for i in range(0x110000) if len(f"a{chr(i)}b".splitlines()) == 2}
        assert breaks == set("\n\r" + SPLITLINES_ONLY)

    @pytest.mark.parametrize("ch", SPLITLINES_ONLY, ids=lambda ch: f"U+{ord(ch):04X}")
    def test_comment_runs_to_the_line_end(self, ch):
        # the comment's tail is not a second line of coefficients
        text = f"1 0 0 # a comment{ch}with more words\n0 1 0\n"
        assert parse_arrangement(text) == parse_arrangement("1 0 0\n0 1 0\n")

    @pytest.mark.parametrize("ch", SPLITLINES_ONLY, ids=lambda ch: f"U+{ord(ch):04X}")
    def test_other_breaks_separate_tokens(self, ch):
        assert parse_arrangement(f"1{ch}0 0\n0 1{ch}0{ch}\n") == parse_arrangement("1 0 0\n0 1 0\n")

    def test_errors_after_a_page_break_name_newline_counted_lines(self):
        # grep -n counts the form feed's line once
        with pytest.raises(MalformedLine, match="^line 4: 'zebra' is not a rational number$"):
            parse_arrangement("1 0 0\n\f\n0 1 0\n0 0 zebra\n")
        with pytest.raises(DuplicateLine, match="^lines 1 and 3 coincide$"):
            parse_arrangement("1 0 0\n\f\n2 0 0\n")

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_line_ends(self, end):
        assert parse_arrangement(TRIANGLE.replace("\n", end)) == parse_arrangement(TRIANGLE)
        with pytest.raises(MalformedLine, match="^line 3: expected 3 coefficients, got 2$"):
            parse_arrangement(f"1 0 0{end}{end}0 1{end}")
        with pytest.raises(DuplicateLine, match="^lines 2 and 4 coincide$"):
            parse_arrangement(f"# x{end}1 0 0{end}0 1 0{end}3 0 0{end}")
        assert parse_arrangement("1 0 0\r0 1 0\r\n0 0 1\n").d == 3

    @pytest.mark.parametrize("text", [None, b"1 0 0\n0 1 0\n", ["1 0 0", "0 1 0"]],
                             ids=["none", "bytes", "list"])
    def test_refuses_non_str(self, text):
        with pytest.raises(BadParameter, match="text must be a str"):
            parse_arrangement(text)

    @given(st.one_of(st.text(), st.text(alphabet="0123456789+-./eE# \t\n")))
    def test_arbitrary_text(self, text):
        # any text parses to an arrangement or fails with a library error,
        # the same as the Fraction reference
        outcome = _parse_outcome(text)
        assert outcome == _reference_parse(text)
        assert isinstance(outcome, tuple) or outcome.d >= 2

    @given(line_texts())
    def test_matches_fraction_reference(self, text):
        assert _parse_outcome(text) == _reference_parse(text)

    @given(st.one_of(st.text(st.characters(blacklist_characters=SPLITLINES_ONLY)), line_texts()))
    def test_texts_without_other_breaks_parse_as_by_splitlines(self, text):
        # a text that holds none of SPLITLINES_ONLY has the same lines under
        # str.splitlines, the line model of earlier versions
        assert _parse_outcome(text) == _reference_rows(text.splitlines())

    @given(st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=10))
    @example("0/0")
    @example("1/-2")
    @example("+3/4")
    @example("1_000/3")
    @example("\u0661/\u0662")
    @example("\u00b2")
    @example("1e4301")
    @example("9" * 4301)
    @example("-" + "9" * 4301)
    @example("1/" + "9" * 4301)
    @example("5/")
    @example("/5")
    @example("-0/7")
    @example("1/+2")
    @example("1/0_0")
    @example("1__0")
    @example("1_")
    @example("_1")
    @example("0x10")
    @example("+-1")
    @example("\u0663/\u0664")
    @example("-1.25")
    @example("3E-2")
    @example(".5")
    @example("1.5/2")
    @example("2/1.5")
    @example("1e5/2")
    @example("1_0.5")
    def test_token_reader_matches_fraction(self, tok):
        # the same value, or the same error and message, as Fraction
        text = f"{tok} 1 0\n0 0 1\n"
        assert _parse_outcome(text) == _reference_parse(text)
        try:
            value = _reference_token(tok, 1)
        except MalformedLine:
            return
        p, q = _rational(tok, 1)
        assert q > 0 and Fraction(p, q) == value

    @pytest.mark.parametrize("tok", ["9" * 4301, "1/" + "9" * 4301],
                             ids=["4301-digits", "4301-digit-denominator"])
    def test_refuses_digit_strings_beyond_int_limit(self, tok):
        with pytest.raises(MalformedLine, match="line 1: .* is not a rational number"):
            parse_arrangement(f"{tok} 1 0\n0 0 1\n")


class TestProfile:
    def test_triangle(self):
        p = profile_of(parse_arrangement(TRIANGLE))
        assert (p.d, p.t) == (3, ((2, 3),))

    def test_pencil(self):
        # four lines through (0 : 0 : 1)
        arr = parse_arrangement("1 0 0\n0 1 0\n1 1 0\n1 -1 0\n")
        p = profile_of(arr)
        assert p.t == ((4, 1),)
        assert is_pencil(p)

    def test_near_pencil(self):
        arr = parse_arrangement("1 0 0\n0 1 0\n1 1 0\n0 0 1\n")
        p = profile_of(arr)
        assert p.t == ((2, 3), (3, 1))

    @pytest.mark.parametrize("arr", [None, TRIANGLE, (Line(1, 0, 0), Line(0, 1, 0))],
                             ids=["none", "text", "tuple"])
    def test_refuses_non_arrangement(self, arr):
        with pytest.raises(BadParameter, match="profile_of needs an Arrangement"):
            profile_of(arr)

    def test_generic_quadrilateral(self):
        arr = parse_arrangement("1 0 0\n0 1 0\n0 0 1\n1 1 1\n")
        assert profile_of(arr).t == ((2, 6),)

    def test_rational_braid3(self):
        # x, y, z, x - y, y - z, x - z: four triple points, three double points
        arr = parse_arrangement("1 0 0\n0 1 0\n0 0 1\n1 -1 0\n0 1 -1\n1 0 -1\n")
        assert profile_of(arr).t == ((2, 3), (3, 4))

    @pytest.mark.parametrize("d", [2, 3, 7])
    @pytest.mark.parametrize("centre", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    def test_pencil_through_each_centre(self, centre, d):
        # d lines through the centre, those with more zero coefficients first,
        # so that over the centres a line's first nonzero coefficient sits at
        # each index
        through = {Line.of(*row) for row in product(range(-3, 4), repeat=3)
                   if any(row) and sum(map(mul, row, centre)) == 0}
        rows = sorted(((line.a, line.b, line.c) for line in through),
                      key=lambda row: (row.count(0), row), reverse=True)
        assert profile_of(Arrangement(tuple(Line(*row) for row in rows[:d]))).t == ((d, 1),)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_fraction_grouping(self, seed):
        rows = _random_rows(seed)
        text = "".join(" ".join(str(v) for v in row) + "\n" for row in rows)
        assert dict(profile_of(parse_arrangement(text)).t) == _fraction_profile(rows)

    @pytest.mark.parametrize("bits", [8, FLOOR_KEY_BITS, 2 * FLOOR_KEY_BITS + 64],
                             ids=["8-bit", "cutover", "past-cutover"])
    @pytest.mark.parametrize("seed", range(3))
    def test_change_of_coordinates(self, seed, bits, monkeypatch):
        # an invertible integer matrix with entries of about `bits` bits moves
        # the lines and keeps every incidence; the profile matches the Fraction
        # grouping on the key the coefficients select and on each key forced
        rng = random.Random(seed)
        rows = _random_rows(seed)
        while True:
            m = [[rng.randrange(-2 ** bits, 2 ** bits) for _ in range(3)] for _ in range(3)]
            if sum(map(mul, m[0], _cross(m[1], m[2]))):
                break
        moved = [tuple(sum(map(mul, row, column)) for column in zip(*m)) for row in rows]
        text = "".join(" ".join(str(v) for v in row) + "\n" for row in moved)
        arr = parse_arrangement(text)
        top = max(abs(v) for line in arr.lines for v in (line.a, line.b, line.c)).bit_length()
        assert (top < FLOOR_KEY_BITS) == (bits == 8)
        expected = _fraction_profile(moved)
        assert expected == _fraction_profile(rows)
        assert dict(profile_of(arr).t) == expected
        for cutover in (0, 10 ** 9):
            monkeypatch.setattr(arrangement, "FLOOR_KEY_BITS", cutover)
            assert dict(profile_of(arr).t) == expected

    @given(st.randoms(use_true_random=False))
    def test_profile_invariant_under_reorder_and_rescale(self, rng):
        rows = ["1 0 0", "0 1 0", "0 0 1", "1 1 1", "1 2 3"]
        base = profile_of(parse_arrangement("\n".join(rows)))
        rng.shuffle(rows)
        scaled = []
        for row in rows:
            k = rng.choice([-3, -1, 2, 5, Fraction(1, 2)])
            scaled.append(" ".join(str(Fraction(tok) * k) for tok in row.split()))
        assert profile_of(parse_arrangement("\n".join(scaled))) == base


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _random_rows(seed):
    """Distinct lines as rational triples in a shuffled order: three concurrent
    families, one through a point at infinity (z = 0), free lines, and lines
    with coefficients in -3..3 and zeros favoured, so that some rows start
    with one or two zeros; each row scaled by a non-integral rational of
    random sign."""
    rng = random.Random(seed)
    centres = [(1, rng.randint(-3, 3), 0)] + [
        (rng.randint(-3, 3), rng.randint(-3, 3), 1) for _ in range(2)]
    rows = [_cross(centre, [rng.randint(-4, 4) for _ in range(3)])
            for centre in centres for _ in range(rng.randint(2, 6))]
    rows += [[rng.randint(-4, 4) for _ in range(3)] for _ in range(rng.randint(2, 10))]
    rows += [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(3)]
             for _ in range(rng.randint(2, 8))]
    rng.shuffle(rows)
    seen, out = set(), []
    for row in rows:
        if not any(row):
            continue
        lead = next(v for v in row if v)
        key = tuple(Fraction(v, lead) for v in row)
        if key not in seen:
            seen.add(key)
            scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
            out.append(tuple(Fraction(v) * scale for v in row))
    return out


def _fraction_profile(rows):
    """Reference grouping on Fraction points, first nonzero coordinate scaled
    to 1, with the set of lines through each point."""
    through = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            x, y, z = _cross(rows[i], rows[j])
            lead = next(v for v in (x, y, z) if v)
            through.setdefault((x / lead, y / lead, z / lead), set()).update((i, j))
    return dict(Counter(len(lines) for lines in through.values()))


def _is_valid(d, pairs):
    """Reference check of a (d, ((r, t_r), ...)) profile: ranges, strictly
    increasing r, positive counts and the pair-count identity."""
    rs = [r for r, _ in pairs]
    return (d >= 2 and rs == sorted(set(rs)) and all(2 <= r <= d and c > 0 for r, c in pairs)
            and sum(c * comb(r, 2) for r, c in pairs) == comb(d, 2))


@st.composite
def raw_profiles(draw):
    """A (d, {r: t_r}) pair near the valid ones: half the time t_2 takes up
    the pairs left over, so balanced and unbalanced input both occur."""
    d = draw(st.integers(min_value=1, max_value=8))
    t = draw(st.dictionaries(st.integers(min_value=0, max_value=9),
                             st.integers(min_value=-1, max_value=3), max_size=3))
    if draw(st.booleans()):
        t[2] = comb(d, 2) - sum(c * comb(r, 2) for r, c in t.items() if r != 2)
    return d, t


class TestValidateProfile:
    def test_balance_identity_enforced(self):
        with pytest.raises(UnbalancedProfile):
            validate_profile(4, {2: 5})

    def test_direct_construction_is_checked(self):
        with pytest.raises(MultiplicityOutOfRange):
            Profile(4, ((3, 1), (2, 3)))  # balanced, but not sorted by r
        with pytest.raises(MultiplicityOutOfRange):
            Profile(4, ((2, 3), (2, 3)))  # balanced, r repeated
        with pytest.raises(BadParameter):
            Profile(1, ())
        assert Profile(4, ((2, 3), (3, 1))) == validate_profile(4, {3: 1, 2: 3})

    @given(raw_profiles())
    def test_validate_accepts_exactly_the_valid(self, raw):
        d, t = raw
        pairs = tuple(sorted(t.items()))
        try:
            p = validate_profile(d, t)
        except LineSurfError:
            assert not _is_valid(d, pairs)
            return
        assert _is_valid(d, pairs) and p == Profile(d, pairs)

    @given(raw_profiles(), st.booleans())
    def test_direct_profile_is_valid(self, raw, reverse):
        d, t = raw
        pairs = tuple(sorted(t.items(), reverse=reverse))
        try:
            p = Profile(d, pairs)
        except LineSurfError:
            assert not _is_valid(d, pairs)
            return
        assert _is_valid(d, p.t)

    def test_range_checks(self):
        with pytest.raises(MultiplicityOutOfRange):
            validate_profile(4, {5: 1})
        with pytest.raises(MultiplicityOutOfRange):
            validate_profile(4, {1: 2})
        with pytest.raises(BadParameter):
            validate_profile(1, {})
        with pytest.raises(BadParameter):
            validate_profile(4, {2: 0, 4: 1})

    @pytest.mark.parametrize("call, args", [
        (validate_profile, (4, {2: 6.9})),
        (validate_profile, (4, {2.7: 6})),
        (validate_profile, (4, {"2": "6"})),
        (validate_profile, ("4", {2: 6})),
        (validate_profile, (2, {2: True})),
        (validate_profile, (4, {None: 1, 2: 6})),
        (Profile, (4.0, ((2, 6),))),
        (catalog_profile, ("generic", 4.0)),
        (catalog_profile, ("pencil", 2.5)),
        (catalog_profile, ("braid", True)),
    ])
    def test_refuses_non_int(self, call, args):
        with pytest.raises(BadParameter, match="int"):
            call(*args)

    @pytest.mark.parametrize("t", [[(2, 6)], None, ((2, 6),)], ids=["list", "none", "tuple"])
    def test_refuses_non_dict(self, t):
        with pytest.raises(BadParameter, match=r"t must be a dict \{r: t_r\}"):
            validate_profile(4, t)

    def test_sorted_storage(self):
        p = validate_profile(6, {3: 4, 2: 3})
        assert p.t == ((2, 3), (3, 4))
        assert p.t_r(3) == 4 and p.t_r(5) == 0
        assert p.multiplicities == (2, 3)


class TestCatalog:
    def test_hesse(self):
        entry = catalog_profile("hesse")
        assert entry.profile.t == ((2, 12), (4, 9))
        assert (entry.profile.d, entry.q) == (12, 3)

    def test_ceva(self):
        assert catalog_profile("ceva", 3).profile.t == ((3, 12),)
        assert catalog_profile("ceva", 3).q == 2
        assert catalog_profile("ceva", 4).profile.t == ((3, 16), (4, 3))
        assert catalog_profile("ceva", 4).q == 1

    def test_braid(self):
        entry = catalog_profile("braid", 4)
        assert entry.profile.d == 10
        assert entry.profile.t == ((2, 15), (3, 10))
        assert entry.q == 0
        assert catalog_profile("braid", 2).q == 1
        assert catalog_profile("braid", 2).profile.t == ((3, 1),)

    def test_pencil_family(self):
        assert catalog_profile("pencil", 5).profile.t == ((5, 1),)
        assert catalog_profile("near-pencil", 6).profile.t == ((2, 5), (5, 1))
        # the d = 3 near-pencil collapses to the triangle
        assert catalog_profile("near-pencil", 3).profile.t == ((2, 3),)
        assert catalog_profile("generic", 7).profile.t == ((2, comb(7, 2)),)

    def test_parameter_validation(self):
        with pytest.raises(UnknownCatalogName):
            catalog_profile("fermat")
        for name in (["hesse"], None, 3):  # unhashable, or no str
            with pytest.raises(UnknownCatalogName):
                catalog_profile(name)
        with pytest.raises(BadParameter):
            catalog_profile("ceva")
        with pytest.raises(BadParameter):
            catalog_profile("ceva", 1)
        with pytest.raises(BadParameter):
            catalog_profile("hesse", 3)
        with pytest.raises(BadParameter):
            catalog_profile("near-pencil", 2)

    @pytest.mark.parametrize("name", [name for name, row in CATALOG.items() if row.flag])
    def test_parameter_minimum(self, name):
        minimum = CATALOG[name].minimum
        assert catalog_profile(name, minimum).name == f"{name}({minimum})"
        with pytest.raises(BadParameter, match=f">= {minimum}"):
            catalog_profile(name, minimum - 1)

