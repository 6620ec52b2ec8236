"""Command-line interface: invariants, graph, local, verify, catalog.

Exit codes: 0 success, 1 verification mismatch, 2 usage or validation error,
3 failed internal check (a bug in linesurf, reported on one stderr line),
141 the reader closed stdout early (128 + SIGPIPE, with nothing on stderr).
JSON output is deterministic (sorted keys); integers whose magnitude exceeds
2^53 are serialized as decimal strings so downstream double-based JSON
parsers cannot corrupt them.  Both formats print every integer exactly, also
past the digit limit of int-to-str conversion, without changing that limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .arrangement import (
    CATALOG,
    Profile,
    catalog_profile,
    parse_arrangement,
    profile_of,
    validate_profile,
)
from .errors import BadParameter, InternalCheckError, LineSurfError
from .local import canonical_coefficients, local_invariants
from .record import _repr, _str
from .resolution import build_resolution_graph, graph_size, to_dot
from .surface import global_invariants, hodge_diamond, verdict
from .verify import sweep_verify

_SAFE_INT = 2 ** 53

# `graph` and `local` build and print a resolution graph, so each refuses one
# with more vertices plus edges than this; `invariants` reads only closed forms
MAX_GRAPH_SIZE = 100_000
# `verify` builds every graph of its range, so it refuses a range whose graphs
# may hold more vertices plus edges in all than 200 graphs at that cap; the
# bound of --r-max 30 --d-max 200 is 19,246,140
MAX_SWEEP_SIZE = 200 * MAX_GRAPH_SIZE


def _jsonable(value):
    """Convert to JSON-safe primitives; big integers become strings."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if abs(value) < _SAFE_INT else _str(value)
    if isinstance(value, Fraction):
        return f"{_str(value.numerator)}/{_str(value.denominator)}"
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _dump(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2)


def _parse_t_pairs(pairs) -> dict[int, int]:
    t: dict[int, int] = {}
    for pair in pairs or ():
        try:
            r_text, count_text = pair.split("=", 1)
            r, count = int(r_text), int(count_text)
        except ValueError:
            raise BadParameter(f"--t expects r=count, got {pair!r}") from None
        if r in t:
            raise BadParameter(f"multiplicity {r} given twice")
        t[r] = count
    return t


def _path(flag: str, name: str) -> Path:
    """``Path(name)``, refused when it holds a NUL or a lone surrogate, which
    no file name can; checked before a command prints anything."""
    try:
        if b"\0" not in os.fsencode(name):
            return Path(name)
    except UnicodeEncodeError:
        pass
    raise BadParameter(f"--{flag} {name!r} cannot name a file")


def _check_graph_size(r: int, d: int) -> None:
    size = graph_size(r, d)
    if size > MAX_GRAPH_SIZE:
        raise BadParameter(f"the resolution graph for (r, d)=({r}, {d}) has {_repr(size)} "
                           f"vertices and edges, more than the cap of {MAX_GRAPH_SIZE}")


def _sweep_size_bound(r_max: int, d_max: int) -> int:
    """An upper bound, in O(1), on the vertices plus edges of all the graphs
    of ``sweep_verify(r_max, d_max)`` for 2 <= r_max <= d_max: the sum of
    2rd + r(r-1)/2 over 2 <= r <= r_max, r <= d <= d_max.  A star has
    1 + r*lambda vertices with lambda < d and one edge fewer, at most 2rd in
    all; a blown-down star d - 1 vertices and d - 1 - r + r(r-1)/2 edges."""
    R, D = r_max, d_max
    return (R - 1) * (12 * D * (D + 1) * (R + 2) + R * (R + 1) * (4 * D - 9 * R - 2)) // 24


def _resolve_input(args) -> tuple[Profile, Optional[int], dict]:
    """Return (profile, q, input-echo) from exactly one input source."""
    sources = [s for s, given in (
        ("input", args.input is not None),
        ("profile", args.profile),
        ("catalog", args.catalog is not None),
    ) if given]
    if len(sources) != 1:
        raise BadParameter("give exactly one of --input, --profile, --catalog")
    kind, = sources
    allowed = ((CATALOG[args.catalog].flag,) if kind == "catalog"  # hesse's is None
               else {"input": (), "profile": ("d", "t")}[kind])
    label = f"--catalog {args.catalog}" if kind == "catalog" else f"--{kind}"
    for name in ("d", "t", "m", "n"):
        if name not in allowed and getattr(args, name) is not None:
            raise BadParameter(f"{label} does not take --{name}")

    q: Optional[int] = None
    if args.input is not None:
        try:
            text = _path("input", args.input).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise BadParameter(f"--input {args.input} is not UTF-8 text: {exc}") from None
        profile = profile_of(parse_arrangement(text))
        source = f"file:{args.input}"
    elif args.profile:
        if args.d is None:
            raise BadParameter("--profile requires --d")
        profile = validate_profile(args.d, _parse_t_pairs(args.t))
        source = "profile-flags"
    else:
        flag = allowed[0]
        entry = catalog_profile(args.catalog, getattr(args, flag) if flag else None)
        profile, q = entry.profile, entry.q
        source = f"catalog:{entry.name}"

    if args.q is not None:
        if q is not None and q != args.q:
            print(f"warning: --q {args.q} overrides catalog q={q}", file=sys.stderr)
        q = args.q
    echo = {"source": source, "d": profile.d,
            "t": {_str(r): c for r, c in profile.t}, "q": q}
    return profile, q, echo


def _build_report(profile: Profile, q: Optional[int], echo: dict) -> dict:
    gi = global_invariants(profile)
    v = verdict(profile)
    report = {
        "input": echo,
        "k2_bar": gi.k2_bar,
        "chi_bar": gi.chi_bar,
        "my_bar": gi.my_bar,
        "c1_sq": gi.c1sq,
        "c2": gi.c2,
        "my_tilde": gi.my_tilde,
        "chern_ratio": gi.chern_ratio,
        "verdict": dict(vars(v)),
        "hodge": None,
        "local": [
            {"r": r, "t_r": c, "dci": li.dci, "dcii": li.dcii, "dmy": li.dmy, "e": li.e}
            for r, c in profile.t
            for li in (local_invariants(r, profile.d),)
        ],
        "version": __version__,
    }
    if q is not None:
        report["hodge"] = hodge_diamond(profile, q)._asdict()
    return report


def _print_table(report: dict) -> None:
    echo = report["input"]  # its t is sorted by r, as the profile's
    print(f"input: {echo['source']}  d={_str(echo['d'])}  "
          f"t={{{', '.join(f'{r}: {_str(c)}' for r, c in echo['t'].items())}}}")
    for key in ("k2_bar", "chi_bar", "my_bar", "c1_sq", "c2", "my_tilde"):
        print(f"{key:10s} {_str(report[key])}")
    ratio = report["chern_ratio"]
    print(f"{'ratio':10s} {_str(ratio) if ratio is not None else 'undefined (c2 = 0)'}")
    v = report["verdict"]
    print(f"verdict: pencil={v['pencil']} my_sign={v['my_sign']} "
          f"general_type={v['general_type']} ({v['reason']})")
    print("  r  t_r        DCI       DCII        DMY          E")
    for row in report["local"]:
        r, t_r, dci, dcii, dmy, e = (_str(row[k]) for k in ("r", "t_r", "dci", "dcii", "dmy", "e"))
        print(f"{r:>3} {t_r:>4} {dci:>10} {dcii:>10} {dmy:>10} {e:>10}")
    if report["hodge"] is not None:
        h = report["hodge"]
        print(f"hodge: q={_str(h['q'])} pg={_str(h['pg'])} h11={_str(h['h11'])}")
    else:
        print("hodge: requires q")


def cmd_invariants(args) -> int:
    profile, q, echo = _resolve_input(args)
    report = _build_report(profile, q, echo)
    if args.format == "json":
        print(_dump(report))
    else:
        _print_table(report)
    return 0


def cmd_graph(args) -> int:
    dot = None if args.dot is None else _path("dot", args.dot)
    _check_graph_size(args.r, args.d)
    graph = build_resolution_graph(args.r, args.d)
    if dot is not None:  # written first, so a failed write prints nothing
        dot.write_text(to_dot(graph))
    print(f"shape: {graph.shape}")
    print(f"vertices: {graph.vertex_count}")
    if graph.central is not None:
        print(f"central: genus={_str(graph.central[0])} b={_str(graph.central[1])}")
    print(f"lambda: {graph.lam}")
    print(f"arm weights: [{', '.join(map(_str, graph.arms[0] if graph.arms else ()))}]")
    if dot is not None:
        print(f"dot written to {args.dot}")
    return 0


def cmd_local(args) -> int:
    _check_graph_size(args.r, args.d)
    cc = canonical_coefficients(args.r, args.d)
    print(_dump({**local_invariants(args.r, args.d)._asdict(),
                 "shape": cc.shape, "coefficients": list(cc.values)}))
    return 0


def cmd_verify(args) -> int:
    r_max, d_max = args.r_max, args.d_max
    if 2 <= r_max <= d_max:  # sweep_verify refuses any other range
        bound = _sweep_size_bound(r_max, d_max)
        if bound > MAX_SWEEP_SIZE:
            raise BadParameter(
                f"the sweep to (r_max, d_max)=({_repr(r_max)}, {_repr(d_max)}) may build "
                f"{_repr(bound)} vertices and edges, more than the cap of {MAX_SWEEP_SIZE}")
    reports = sweep_verify(r_max, d_max)
    mismatches = [rep for rep in reports if not rep.ok]
    if args.json:
        print(_dump({"pairs": len(reports), "mismatches": len(mismatches),
                     "reports": [rep._asdict() for rep in reports]}))
    elif mismatches:
        print("  r   d  coeffs  dci  dcii")
        for rep in mismatches:
            print(f"{rep.r:3d} {rep.d:3d}  {rep.coefficients_match!s:6s} "
                  f"{rep.dci_match!s:4s} {rep.dcii_match!s}")
    else:
        print(f"all {len(reports)} pairs match")
    return 1 if mismatches else 0


def cmd_catalog(args) -> int:
    for name, row in CATALOG.items():
        if row.flag:
            name += f" --{row.flag} {row.flag.upper()} ({row.flag.upper()}>={row.minimum})"
        print(f"{name:28s} {row.summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linesurf",
        description="Invariants of surfaces associated to line arrangements")
    parser.add_argument("--version", action="version", version=f"linesurf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="global invariants of a profile")
    p_inv.add_argument("--input", metavar="FILE", help="line-list file")
    p_inv.add_argument("--profile", action="store_true", help="profile from --d/--t flags")
    p_inv.add_argument("--catalog", choices=CATALOG, help="named profile")
    p_inv.add_argument("--d", type=int)
    p_inv.add_argument("--t", action="append", metavar="R=COUNT")
    p_inv.add_argument("--m", type=int, help="parameter for ceva")
    p_inv.add_argument("--n", type=int, help="parameter for braid")
    p_inv.add_argument("--q", type=int, help="irregularity (overrides catalog value)")
    p_inv.add_argument("--format", choices=("json", "table"), default="table")
    p_inv.set_defaults(func=cmd_invariants)

    p_graph = sub.add_parser("graph", help="resolution dual graph for one (r, d)")
    p_graph.add_argument("--r", type=int, required=True)
    p_graph.add_argument("--d", type=int, required=True)
    p_graph.add_argument("--dot", metavar="FILE", help="write DOT to FILE")
    p_graph.set_defaults(func=cmd_graph)

    p_local = sub.add_parser("local", help="local invariant quadruple for one (r, d)")
    p_local.add_argument("--r", type=int, required=True)
    p_local.add_argument("--d", type=int, required=True)
    p_local.set_defaults(func=cmd_local)

    p_verify = sub.add_parser("verify", help="oracle sweep against the closed forms")
    p_verify.add_argument("--r-max", type=int, required=True)
    p_verify.add_argument("--d-max", type=int, required=True)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_cat = sub.add_parser("catalog", help="list catalog entries")
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader closed stdout; the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process killed by it
    except (LineSurfError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"InternalCheckError: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
