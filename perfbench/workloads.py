"""Inputs, timed operations and output checks of the five workloads.

Every workload is a seeded sequence of periods, each a list of ``Op``; a job
is a fixed number of them.  ``Op.call`` is the timed part: public linesurf
calls on inputs the benchmark generated beforehand.  ``Op.check`` runs
afterwards, untimed, and says whether the output is right.

linesurf functions are looked up on their module at call time, so a traced
run, which rebinds them, records these calls too.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import islice
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import points

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@cache
def golden() -> dict:
    """Digests of exact outputs recorded by make_golden.py."""
    return json.loads(GOLDEN_PATH.read_text())


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    attrs: dict = field(default_factory=dict)


def digest(value) -> str:
    """sha256 of a canonical JSON rendering; Fractions become "p/q"."""
    text = json.dumps(value, sort_keys=True, default=lambda v: f"{v.numerator}/{v.denominator}")
    return hashlib.sha256(text.encode()).hexdigest()


def _ls():
    import linesurf
    return linesurf


# --- oracle-sweep: one sweep_verify over a fixed rectangle per cold process ---

SWEEP_R, SWEEP_D = 8, 24
REFERENCE_SWEEP = (10, 60)  # the ROADMAP reference point


def sweep_periods(seed: int, workdir: Path) -> Iterator[list[Op]]:
    def call():
        return _ls().sweep_verify(SWEEP_R, SWEEP_D)

    def check(reports):
        rows = [(rep.r, rep.d, rep.oracle_dci, rep.oracle_dcii, rep.ok) for rep in reports]
        return all(rep.ok for rep in reports) and digest(rows) == golden()["oracle-sweep"]

    while True:
        yield [Op("sweep", call, check)]


# --- definite-sweep: definiteness of every graph in the triangle d <= 40 ---

DEFINITE_D = 40


def definite_periods(seed: int, workdir: Path, d_max: int = DEFINITE_D) -> Iterator[list[Op]]:
    def op(r, d):
        attrs = {}

        def call():
            ls = _ls()
            graph = ls.build_resolution_graph(r, d)
            attrs["shape"] = graph.shape
            return ls.check_negative_definite(ls.intersection_matrix(graph))

        return Op(f"r{r}d{d}", call, lambda result: result is True, attrs)

    while True:
        yield [op(r, d) for d in range(2, d_max + 1) for r in range(2, d + 1)]


# --- profile-stream: full reports over catalog, random and large-d profiles ---

CATALOG_RANGES = {"hesse": None, "ceva": range(2, 13), "braid": range(2, 11),
                  "pencil": range(2, 61), "near-pencil": range(3, 61), "generic": range(2, 61)}
RANDOM_D = (4, 40)   # bounded, so (r, d) pairs recur across profiles
TAIL_D = (2800, 3200)  # long HJ expansions
# Each tail profile has two higher multiplicities.  Its report costs about one
# HJ expansion per multiplicity, and op_ms_p90 falls among the tail profiles,
# so a varying count would move op_ms_p90 from seed to seed by up to 20%.
TAIL_KINDS = 2
PERIOD_RANDOM, PERIOD_TAIL = 7, 2  # plus one catalog entry per period


def random_profile(rng: random.Random, d_lo: int, d_hi: int, r_hi: int,
                   kinds: int | None = None) -> tuple[int, dict]:
    """A balanced (d, {r: t_r}): a few higher multiplicities, nodes for the rest.

    ``kinds`` fixes the number of distinct higher multiplicities; by default
    it is 1 to 4 draws, which may repeat.
    """
    d = rng.randint(d_lo, d_hi)
    left, t = comb(d, 2), {}
    fixed = rng.sample(range(3, min(d, r_hi) + 1), kinds) if kinds else None
    for i in range(kinds or rng.randint(1, 4)):
        r = fixed[i] if fixed else rng.randint(3, min(d, r_hi))
        pairs = comb(r, 2)
        if pairs <= left:
            k = rng.randint(1, max(1, left // pairs // 4))
            t[r] = t.get(r, 0) + k
            left -= k * pairs
    if left:
        t[2] = left
    return d, t


def report(profile, q):
    """What the CLI's invariants report assembles, through public calls."""
    ls = _ls()
    gi = ls.global_invariants(profile)
    v = ls.verdict(profile)
    ratio = ls.chern_ratio_analysis(profile) if gi.c2 else None
    hodge = ls.hodge_diamond(profile, q) if q is not None else None
    local = [ls.local_invariants(r, profile.d) for r, _ in profile.t]
    return profile, gi, v, ratio, hodge, local


def report_record(out) -> dict:
    profile, gi, v, ratio, hodge, local = out
    return {"d": profile.d, "t": profile.t, "gi": list(vars(gi).values()),
            "verdict": list(vars(v).values()),
            "ratio": None if ratio is None else [ratio["ratio"], ratio["nodes_triples_form"]],
            "hodge": None if hodge is None else [hodge.q, hodge.pg, hodge.h11],
            "local": [[li.dci, li.dcii, li.dmy, li.e] for li in local]}


def report_ok(out, expected_digest=None) -> bool:
    profile, gi, v, ratio, hodge, local = out
    ok = (gi.my_tilde == 3 * gi.c2 - gi.c1sq
          and gi.my_tilde == sum(c * li.e for (_, c), li in zip(profile.t, local))
          and (gi.c1sq + gi.c2) % 12 == 0)
    if hodge is not None:
        ok = ok and 2 - 4 * hodge.q + 2 * hodge.pg + hodge.h11 == gi.c2
    if expected_digest is not None:
        ok = ok and digest(report_record(out)) == expected_digest
    return ok


def catalog_key(name: str, param) -> str:
    return name if param is None else f"{name}({param})"


def profile_periods(seed: int, workdir: Path | None = None) -> Iterator[list[Op]]:
    rng = random.Random(seed)

    def catalog_op(name, param):
        def call():
            entry = _ls().catalog_profile(name, param)
            return report(entry.profile, entry.q)

        def check(out):
            if not report_ok(out, golden()["catalog"][catalog_key(name, param)]):
                return False
            _, gi, _, _, hodge, _ = out
            return name != "hesse" or (gi.c1sq, gi.c2, hodge.pg, hodge.h11) == (336, 360, 60, 250)

        return Op("catalog", call, check)

    def profile_op(label, d, t):
        return Op(label, lambda: report(_ls().validate_profile(d, t), None), report_ok)

    while True:
        name = rng.choice(sorted(CATALOG_RANGES))
        span = CATALOG_RANGES[name]
        period = [catalog_op(name, None if span is None else rng.choice(span))]
        period += [profile_op("random", *random_profile(rng, *RANDOM_D, 12))
                   for _ in range(PERIOD_RANDOM)]
        period += [profile_op("tail", *random_profile(rng, *TAIL_D, 6, TAIL_KINDS))
                   for _ in range(PERIOD_TAIL)]
        yield period


GOLDEN_STREAM_SEED, GOLDEN_STREAM_PERIODS = 0, 20


def golden_stream_record() -> list:
    """Exact outputs of a fixed stream, compared with the digest recorded in golden.json."""
    ops = [op for period in islice(profile_periods(GOLDEN_STREAM_SEED), GOLDEN_STREAM_PERIODS)
           for op in period]
    return [report_record(op.call()) for op in ops]


# --- arrangement-files: coordinate arrangements in the line-list text format ---

SMALL_POOL, SMALL_D = range(-3, 4), range(6, 31)
LARGE_POOL, LARGE_D = range(-6, 7), 200
PERIOD_SMALL = 40  # plus one large arrangement per period


def _primitive_lines(pool) -> list[tuple[int, int, int]]:
    return sorted({points.primitive((a, b, c)) for a in pool for b in pool for c in pool
                   if (a, b, c) != (0, 0, 0)})


def render(lines, rng: random.Random) -> str:
    """The line-list format: each line scaled by a random rational, as p/q tokens,
    with some comments and blank lines."""
    out = ["# generated arrangement"]
    for a, b, c in lines:
        scale = Fraction(rng.choice((-1, 1)) * rng.choice((1, 2, 3, 5)), rng.choice((1, 1, 2, 7)))
        row = " ".join(str(v * scale) for v in (a, b, c))
        out.append(row + (" # line" if rng.random() < 0.1 else ""))
        if rng.random() < 0.05:
            out.append("")
    return "\n".join(out) + "\n"


def arrangement_periods(seed: int, workdir: Path) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    small, large = _primitive_lines(SMALL_POOL), _primitive_lines(LARGE_POOL)

    def op(label, lines):
        text = render(lines, rng)

        def call():
            ls = _ls()
            profile = ls.profile_of(ls.parse_arrangement(text))
            return profile, ls.global_invariants(profile), ls.verdict(profile)

        def check(out):
            profile, gi, _ = out
            return (profile.d == len(lines)
                    and dict(profile.t) == points.multiplicity_counts(lines)
                    and gi.my_tilde == 3 * gi.c2 - gi.c1sq)

        return Op(label, call, check)

    while True:
        period = [op("large", rng.sample(large, LARGE_D))]
        # the same line counts in every period, so seeds differ only in the lines
        period += [op("small", rng.sample(small, SMALL_D[i % len(SMALL_D)]))
                   for i in range(PERIOD_SMALL)]
        yield period


def random_lines_text(n: int, seed: int = 0) -> str:
    """n random lines with coefficients in [-100, 100], for the profile_of reference point."""
    rng = random.Random(seed)
    lines: set = set()
    while len(lines) < n:
        triple = tuple(rng.randint(-100, 100) for _ in range(3))
        if any(triple):
            lines.add(points.primitive(triple))
    return "".join(f"{a} {b} {c}\n" for a, b, c in sorted(lines))


# --- cli: a fixed list of linesurf invocations ---

# Expected exit codes follow the README: 0 success, 2 usage or validation error.
CLI_CALLS = [
    ("hesse-json", ["invariants", "--catalog", "hesse", "--format", "json"], 0),
    ("ceva-table", ["invariants", "--catalog", "ceva", "--m", "5"], 0),
    ("braid-json", ["invariants", "--catalog", "braid", "--n", "6", "--format", "json"], 0),
    ("profile-json", ["invariants", "--profile", "--d", "6", "--t", "2=3", "--t", "3=4",
                      "--format", "json"], 0),
    ("profile-table", ["invariants", "--profile", "--d", "7", "--t", "2=9", "--t", "3=4",
                       "--format", "table"], 0),
    ("input-json", ["invariants", "--input", "lines.txt", "--format", "json"], 0),
    ("input-table", ["invariants", "--input", "lines.txt", "--format", "table"], 0),
    ("local-star", ["local", "--r", "3", "--d", "5"], 0),
    ("local-blown-down", ["local", "--r", "4", "--d", "13"], 0),
    ("graph-dot", ["graph", "--r", "4", "--d", "12", "--dot", "star.dot"], 0),
    ("verify-small", ["verify", "--r-max", "4", "--d-max", "12"], 0),
    ("catalog", ["catalog"], 0),
    ("unbalanced", ["invariants", "--profile", "--d", "6", "--t", "2=3"], 2),
    ("missing-param", ["invariants", "--catalog", "ceva"], 2),
    ("bad-multiplicity", ["local", "--r", "1", "--d", "5"], 2),
    ("missing-file", ["invariants", "--input", "missing.txt"], 2),
    ("malformed-file", ["invariants", "--input", "malformed.txt"], 2),
    ("bad-format", ["invariants", "--catalog", "hesse", "--format", "xml"], 2),
    ("non-utf8-file", ["invariants", "--input", "non_utf8.txt"], 2),
]

# Calls that fail at this commit for a reason recorded in ROADMAP.md.  They
# still count as failed operations; they only keep a run's `correct` true.
KNOWN_DEFECTS = {
    "non-utf8-file": "a non-UTF-8 --input ends in a traceback and exit 1, not exit 2",
}

CLI_ENTRY = "import sys; from linesurf.cli import main; sys.exit(main())"

CLI_FILES = {
    "lines.txt": render(_primitive_lines(range(-1, 2))[:9], random.Random(0)).encode(),
    "malformed.txt": b"1 0 0\n0 1\n",
    "non_utf8.txt": b"1 0 0\n\xff\xfe 1 0\n0 0 1\n",
}


def write_cli_files(workdir: Path) -> None:
    for name, data in CLI_FILES.items():
        (workdir / name).write_bytes(data)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cli_outcome(workdir: Path, code, stdout: bytes) -> dict:
    dot = workdir / "star.dot"
    outcome = {"exit": code, "stdout": hashlib.sha256(stdout).hexdigest(),
               "dot": hashlib.sha256(dot.read_bytes()).hexdigest() if dot.exists() else None}
    dot.unlink(missing_ok=True)
    return outcome


def _cli_check(label: str, expected_exit: int):
    def check(out):
        expected = golden()["cli"][label]
        return (out["exit"] == expected_exit and out["stdout"] == expected["stdout"]
                and out["dot"] == expected["dot"])

    return check


def cli_periods(seed: int, workdir: Path) -> Iterator[list[Op]]:
    """Each call is a fresh `linesurf` process, run in ``workdir``."""
    env = child_env()

    def op(label, argv, expected_exit):
        def call():
            proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], cwd=workdir, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  timeout=60)
            return _cli_outcome(workdir, proc.returncode, proc.stdout)

        return Op(label, call, _cli_check(label, expected_exit))

    while True:
        yield [op(*call) for call in CLI_CALLS]


def cli_inprocess_periods(seed: int, workdir: Path) -> Iterator[list[Op]]:
    """The same calls through ``main()`` in this process, for the traced run.

    The caller runs them with ``workdir`` as the current directory.
    """
    def op(label, argv, expected_exit):
        def call():
            import linesurf.cli
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    code = linesurf.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
                except Exception:  # an uncaught error ends a real process with exit 1
                    code = 1
            return _cli_outcome(workdir, code, out.getvalue().encode())

        return Op(label, call, _cli_check(label, expected_exit))

    while True:
        yield [op(*call) for call in CLI_CALLS]


# --- ROADMAP reference points, timed by the traced run ---

def _seconds(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def sweep_reference() -> dict:
    r, d = REFERENCE_SWEEP
    return {f"sweep_verify_{r}_{d}_s": _seconds(lambda: _ls().sweep_verify(r, d))}


def definite_reference() -> dict:
    """Definiteness over the triangle d <= 60, split by shape."""
    by_shape: dict = {}
    for op in next(definite_periods(0, None, 60)):
        elapsed = _seconds(op.call)
        by_shape[op.attrs["shape"]] = by_shape.get(op.attrs["shape"], 0) + elapsed
    return {"definite_d60_s": {"total": sum(by_shape.values()), **by_shape}}


def profile_of_reference() -> dict:
    arrangement = _ls().parse_arrangement(random_lines_text(400))
    return {"profile_of_400_random_lines_s": _seconds(lambda: _ls().profile_of(arrangement))}


def cli_reference() -> dict:
    argv = [sys.executable, "-c", CLI_ENTRY, *CLI_CALLS[0][1]]
    runs = [_seconds(lambda: subprocess.run(argv, env=child_env(), stdout=subprocess.DEVNULL,
                                            timeout=60, check=True)) for _ in range(5)]
    return {"cli_hesse_json_s": sorted(runs)[2]}


# --- registry ---

@dataclass(frozen=True)
class Workload:
    name: str
    periods: Callable  # (seed, work directory) -> iterator of periods
    setup_import: str  # the module a user of this workload imports
    job_periods: int  # periods in one job: one cold process, traced or not
    forks: bool = True  # False where every operation is a fresh process already
    inprocess: Callable | None = None  # periods for the traced run, if not `periods`
    reference: Callable | None = None  # ROADMAP reference point


WORKLOADS = {w.name: w for w in (
    Workload("oracle-sweep", sweep_periods, "linesurf", 1, reference=sweep_reference),
    Workload("definite-sweep", definite_periods, "linesurf", 1, reference=definite_reference),
    Workload("profile-stream", profile_periods, "linesurf", 160),
    Workload("arrangement-files", arrangement_periods, "linesurf", 1,
             reference=profile_of_reference),
    Workload("cli", cli_periods, "linesurf.cli", 1, forks=False, inprocess=cli_inprocess_periods,
             reference=cli_reference),
)}
