"""Global invariants of the compactified Milnor fiber and its resolution.

Everything aggregates the per-singularity quadruples over the profile:

    K^2  = d(d-4)^2                                   (singular model)
    chi  = d(d^2-4d+6) - (d-1) sum t_r (r-1)^2
    c1^2 = K^2 + sum t_r DCI_{r,d}                    (minimal resolution)
    c2   = chi + sum t_r DCII_{r,d}
    MY   = 3 c2 - c1^2 = sum t_r E_{r,d}

plus the sign trichotomy (pencil / near-pencil / the rest), the general-type
criterion c1^2 > 9 (it holds for every d >= 7 with only nodes and triple
points, see ``verdict``), and the Hodge numbers from Noether's formula once q
is supplied.  ``verdict`` and ``hodge_diamond`` compute (c1^2, c2) themselves;
their cores ``_verdict`` and ``_hodge_diamond`` take the pair that a caller
already holds, as the CLI report does from ``global_invariants``.  Each
public function refuses any argument but a ``Profile`` with BadParameter.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .arrangement import Profile, is_pencil
from .errors import BadParameter, InternalCheckError, NegativeHodgeNumber, ZeroSecondChern
from .local import local_invariants
from .record import Record, _repr, set_field


class GlobalInvariants(Record):
    """(K^2, chi, MY) of the singular model, (c1^2, c2, MY) of the minimal
    resolution, and c1^2/c2, which is None when c2 = 0."""

    _fields = ("k2_bar", "chi_bar", "my_bar", "c1sq", "c2", "my_tilde", "chern_ratio")

    def __init__(self, k2_bar: int, chi_bar: int, my_bar: int, c1sq: int, c2: int,
                 my_tilde: int, chern_ratio: Optional[Fraction]):
        set_field(self, "k2_bar", k2_bar)
        set_field(self, "chi_bar", chi_bar)
        set_field(self, "my_bar", my_bar)
        set_field(self, "c1sq", c1sq)
        set_field(self, "c2", c2)
        set_field(self, "my_tilde", my_tilde)
        set_field(self, "chern_ratio", chern_ratio)


class Verdict(Record):
    """my_sign is the sign of MY of the resolution, general_type is "Yes",
    "No" or "Unknown", and reason names the criterion that decided it."""

    _fields = ("pencil", "my_sign", "ball_quotient_possible", "general_type", "reason")

    def __init__(self, pencil: bool, my_sign: int, ball_quotient_possible: bool,
                 general_type: str, reason: str):
        set_field(self, "pencil", pencil)
        set_field(self, "my_sign", my_sign)
        set_field(self, "ball_quotient_possible", ball_quotient_possible)
        set_field(self, "general_type", general_type)
        set_field(self, "reason", reason)


class HodgeDiamond(NamedTuple):
    q: int
    pg: int
    h11: int

    @property
    def c2(self) -> int:
        return 2 - 4 * self.q + 2 * self.pg + self.h11


def base_invariants(p: Profile) -> tuple[int, int, int]:
    """(K^2, chi, MY) of the singular compactification."""
    if type(p) is not Profile:
        raise BadParameter(f"base_invariants needs a Profile, got {type(p).__name__}")
    d = p.d
    squares = cross = 0  # sum t_r (r-1)^2 and sum t_r (r-1)(3-r), in one pass
    for r, c in p.t:
        squares += c * (r - 1) ** 2
        cross += c * (r - 1) * (3 - r)
    k2_bar = d * (d - 4) ** 2
    chi_bar = d * (d * d - 4 * d + 6) - (d - 1) * squares
    my_bar = 3 * chi_bar - k2_bar
    if my_bar != (d - 1) * cross:
        raise InternalCheckError(f"MY of the singular model disagrees for {p}")
    return k2_bar, chi_bar, my_bar


def chern_numbers(p: Profile) -> tuple[int, int]:
    """(c1^2, c2) of the minimal resolution."""
    if type(p) is not Profile:
        raise BadParameter(f"chern_numbers needs a Profile, got {type(p).__name__}")
    c1sq, c2, _ = base_invariants(p)
    d = p.d
    # one local_invariants call per multiplicity for each number: the benchmark's
    # tests pin that count (6 for hesse) until ROADMAP item 1 loosens the pin
    for r, c in p.t:
        c1sq += c * local_invariants(r, d).dci
    for r, c in p.t:
        c2 += c * local_invariants(r, d).dcii
    return c1sq, c2


def my_tilde(p: Profile) -> int:
    """Miyaoka-Yau number of the resolution, as the sum of per-point terms;
    ``global_invariants`` checks it against 3 c2 - c1^2."""
    if type(p) is not Profile:
        raise BadParameter(f"my_tilde needs a Profile, got {type(p).__name__}")
    d = p.d
    total = 0
    for r, c in p.t:
        total += c * local_invariants(r, d).e
    return total


def global_invariants(p: Profile) -> GlobalInvariants:
    if type(p) is not Profile:
        raise BadParameter(f"global_invariants needs a Profile, got {type(p).__name__}")
    k2_bar, chi_bar, my_bar = base_invariants(p)
    c1sq, c2 = chern_numbers(p)
    my = my_tilde(p)
    if my != 3 * c2 - c1sq:
        raise InternalCheckError(f"MY is not 3 c2 - c1^2 for {p}")
    ratio = Fraction(c1sq, c2) if c2 != 0 else None
    return GlobalInvariants(k2_bar, chi_bar, my_bar, c1sq, c2, my, ratio)


def verdict(p: Profile) -> Verdict:
    """Sign of MY, and general type when c1^2 > 9.

    That criterion covers the paper's "d >= 7, only nodes and triple points":
    DCI_{2,d} = 0 and DCI_{3,d} = -(d - d mod 3).  For d = 1 (mod 3) it is the
    blown-down star's -(d-1); for d = 0, alpha/beta is a run of 2s and b = 3,
    so -d; for d = 3k+2, lambda = k+1, the term sum is 2k+3 and b = 2, so
    -(d-2).  With t_3 <= d(d-1)/6, c1^2 >= d[(d-4)^2 - d(d-1)/6] >= 14.
    """
    if type(p) is not Profile:
        raise BadParameter(f"verdict needs a Profile, got {type(p).__name__}")
    return _verdict(p, *chern_numbers(p))


def _verdict(p: Profile, c1sq: int, c2: int) -> Verdict:
    """``verdict`` from p's (c1^2, c2), which the caller has computed."""
    pencil = is_pencil(p)
    my = 3 * c2 - c1sq
    my_sign = (my > 0) - (my < 0)

    if pencil and p.d == 3:
        general, reason = "No", "d3-pencil-has-c2-zero"
    elif c1sq > 9:
        general, reason = "Yes", "c1sq-exceeds-9"
    else:
        general, reason = "Unknown", "beyond-known-criteria"

    # MY = 0 with general type would characterize a ball quotient; the only
    # MY = 0 case is the d = 3 pencil, which is not of general type
    ball = my_sign == 0 and general == "Yes"
    return Verdict(pencil, my_sign, ball, general, reason)


def hodge_diamond(p: Profile, q: int) -> HodgeDiamond:
    """Hodge numbers from (c1^2, c2, q) via Noether's formula."""
    if type(p) is not Profile:
        raise BadParameter(f"hodge_diamond needs a Profile, got {type(p).__name__}")
    return _hodge_diamond(p, q, *chern_numbers(p))


def _hodge_diamond(p: Profile, q: int, c1sq: int, c2: int) -> HodgeDiamond:
    """``hodge_diamond`` from p's (c1^2, c2), which the caller has computed."""
    if type(q) is not int:
        raise BadParameter(f"irregularity q must be an int, got {_repr(q)}")
    if q < 0:
        raise NegativeHodgeNumber(f"irregularity q must be nonnegative, got {_repr(q)}")
    # with t_2 eliminated, c1^2 + c2 is affine in the t_r: the generic
    # arrangement plus t_r times (one r-fold point, else general, minus
    # generic), all real surfaces obeying Noether, so 12 | c1^2 + c2 always
    if (c1sq + c2) % 12 != 0:
        raise InternalCheckError(f"12 does not divide c1^2 + c2 = {c1sq + c2} for {p}")
    pg = (c1sq + c2) // 12 - (1 - q)
    h11 = (5 * c2 - c1sq) // 6 + 2 * q
    if pg < 0 or h11 < 0:
        raise NegativeHodgeNumber(
            f"(profile, q) pair is unrealizable: pg={_repr(pg)}, h11={_repr(h11)}")
    if (diamond := HodgeDiamond(q, pg, h11)).c2 != c2:
        raise InternalCheckError(f"Hodge numbers do not give c2 for {p}, q={q}")
    return diamond


def chern_ratio_analysis(p: Profile) -> dict:
    """Exact ratio c1^2/c2, with the nodes-and-triples decomposition when
    only t_2, t_3 are nonzero: ratio = (1/3)(1 + 2 * numer / denom)."""
    if type(p) is not Profile:
        raise BadParameter(f"chern_ratio_analysis needs a Profile, got {type(p).__name__}")
    c1sq, c2 = chern_numbers(p)
    if c2 == 0:
        raise ZeroSecondChern("c2 = 0, the Chern ratio is undefined")
    ratio = Fraction(c1sq, c2)
    result: dict = {"ratio": ratio, "nodes_triples_form": None}
    if p.t[-1][0] <= 3:  # t is sorted by r, and every r >= 2
        # DCI_{3,d} = -(d - d mod 3) (see ``verdict``), so before the
        # division by d, denom = c2 and 2 numer = 3 c1^2 - c2
        d, t3 = p.d, p.t_r(3)
        numer = d * (d - 3) * (d - 7)
        denom = d * (d * d - 4 * d + 6) - 3 * (d - d % 3) * t3
        if d % 3 == 0:
            numer, denom = numer // d, denom // d
        # ratio = (1/3)(1 + 2 numer/denom), cross-multiplied: denom is c2 or
        # c2/d, so it is not 0 here
        if 3 * denom * c1sq != (denom + 2 * numer) * c2:
            raise InternalCheckError(f"nodes-and-triples form disagrees for {p}")
        result["nodes_triples_form"] = {"numer": numer, "denom": denom}
    return result
