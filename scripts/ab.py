#!/usr/bin/env python3
"""Time steps on two linesurf source trees in one process; print their ratios as JSON.

The checkout's src/linesurf is loaded as linesurf_head and DIR/src/linesurf
as linesurf_base, two distinct sets of modules.  Each round runs every
selected step on both trees, the first tree alternating, and keeps each
tree's best of --passes passes, each after a full garbage collection with
the collector off.  Per step it prints each tree's median best seconds, the
median and quartiles of the ratios head/base, and the rounds each won.
Only such interleaved ratios compare two trees.  README.md lists the steps.

Example:
    mkdir /tmp/base && git archive HEAD~1 | tar -x -C /tmp/base
    python3 scripts/ab.py --base /tmp/base --step report --rounds 25 --passes 5
"""

import argparse
import gc
import importlib.util
import json
import random
import statistics
import sys
import time
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as w  # noqa: E402

SEED = 0


def load(name: str, root: Path):
    """Import root/src/linesurf as the package ``name``, with its own submodules."""
    source = root / "src" / "linesurf"
    spec = importlib.util.spec_from_file_location(name, source / "__init__.py",
                                                  submodule_search_locations=[str(source)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # the package's relative imports look it up here
    spec.loader.exec_module(package)
    return package


def load_trees(base: Path) -> dict:
    return {"head": load("linesurf_head", ROOT), "base": load("linesurf_base", base)}


def rectangle(r_max: int, d_max: int) -> list[tuple[int, int]]:
    """The pairs that sweep_verify(r_max, d_max) visits."""
    return [(r, d) for r in range(2, r_max + 1) for d in range(r, d_max + 1)]


@cache
def systems(ls, r_max: int, d_max: int) -> list:
    graphs = [ls.build_resolution_graph(r, d) for r, d in rectangle(r_max, d_max)]
    return [(ls.intersection_matrix(g), ls.verify.adjunction_rhs(g)) for g in graphs]


# Every graph with d <= DEFINITE_D.  A matrix with no zero entry, the clique
# K_r of a blown-down star (r, r + 1) or the 1x1 matrix of r = d, takes
# _pivots' list path.
TRIANGLE = [(r, d) for d in range(2, w.DEFINITE_D + 1) for r in range(2, d + 1)]
DEFINITE = {"zero_free": [(r, d) for r, d in TRIANGLE if d - r <= 1],
            "with_zeros": [(r, d) for r, d in TRIANGLE if d - r > 1]}


# Built before each pass: built once per tree, the tree built first read
# x1.07-1.19 in intersection_matrix on identical code.
def graphs(ls, group: str) -> list:
    return [ls.build_resolution_graph(r, d) for r, d in DEFINITE[group]]


def zero_systems(ls, group: str) -> list:
    """Each graph's matrix with the zero right-hand side of the definiteness test."""
    return [(m, [0] * len(m)) for m in map(ls.intersection_matrix, graphs(ls, group))]


@cache
def texts() -> dict:
    """The large and 40 small texts of the arrangement-files workload's first
    period at SEED, the large one's coefficients v as decimals v/4, 400 random
    lines, and 40 lines of <50 digits>e+-4200 tokens, about 28,000 bits."""
    rng = random.Random(SEED)
    lines = rng.sample(w._primitive_lines(w.LARGE_POOL), w.LARGE_D)
    large, pool = w.render(lines, rng), w._primitive_lines(w.SMALL_POOL)
    small = [w.render(rng.sample(pool, w.SMALL_D[i % len(w.SMALL_D)]), rng)
             for i in range(w.PERIOD_SMALL)]
    decimal = [f"{25 * v}e-2" if k % 2 else f"{v / 4:.2f}"
               for k, v in enumerate(v for line in lines for v in line)]
    rng = random.Random(SEED)
    hostile = [(rng.randrange(10 ** 49, 10 ** 50), rng.choice("+-"), rng.choice("+-"))
               for _ in range(3 * 40)]

    def rows(tokens):
        return "".join(f"{a} {b} {c}\n" for a, b, c in zip(*[iter(tokens)] * 3))

    return {"small": small, "large": large, "decimal": rows(decimal),
            "random": w.random_lines_text(400, SEED),
            "hostile": rows(f"{sign}{m}e{e}4200" for m, sign, e in hostile)}


@cache
def arrangement(ls, name: str):
    return ls.parse_arrangement(texts()[name])


@cache
def stream(ls, periods: int = 40) -> list:
    """(profile, q) for each report of the first periods of the profile-stream
    mix at SEED, drawn as workloads.profile_periods draws them."""
    rng, out = random.Random(SEED), []
    for _ in range(periods):
        name = rng.choice(sorted(w.CATALOG_RANGES))
        span = w.CATALOG_RANGES[name]
        entry = ls.catalog_profile(name, None if span is None else rng.choice(span))
        out.append((entry.profile, entry.q))
        out += [(ls.validate_profile(*w.random_profile(rng, *w.RANDOM_D, 12)), None)
                for _ in range(w.PERIOD_RANDOM)]
        out += [(ls.validate_profile(*w.random_profile(rng, *w.TAIL_D, 6, w.TAIL_KINDS)), None)
                for _ in range(w.PERIOD_TAIL)]
    return out


# --- steps: each takes a tree's package and returns the call to time ---

def sweep_steps(r_max: int, d_max: int) -> dict:
    def sweep(ls):
        return lambda: ls.sweep_verify(r_max, d_max)

    def pivots(ls):
        copies = [(list(map(dict, rows)), list(b)) for rows, b in systems(ls, r_max, d_max)]
        return lambda: [ls.resolution._pivots(rows, b) for rows, b in copies]

    def forward(ls):
        done = [ls.resolution._pivots(list(map(dict, rows)), list(b))
                for rows, b in systems(ls, r_max, d_max)]
        return lambda: [ls.verify._forward(rows, b) for rows, b in done]

    return {f"{step.__name__}_{r_max}_{d_max}": step for step in (sweep, pivots, forward)}


def definite_steps(group: str) -> dict:
    def build(ls):
        return lambda: [ls.build_resolution_graph(r, d) for r, d in DEFINITE[group]]

    def matrix(ls):
        built = graphs(ls, group)
        return lambda: [ls.intersection_matrix(g) for g in built]

    def check_copy(ls):
        calls = zero_systems(ls, group)
        return lambda: [ls.resolution._checked_rows(m, b) for m, b in calls]

    def pivots(ls):
        copies = [(ls.resolution._checked_rows(m, b), b) for m, b in zero_systems(ls, group)]
        return lambda: [ls.resolution._pivots(rows, b) for rows, b in copies]

    def whole(ls):
        calls = zero_systems(ls, group)
        return lambda: [ls.check_negative_definite(m) for m, _ in calls]

    return {f"definite_{step.__name__}_{group}": step
            for step in (build, matrix, check_copy, pivots, whole)}


def file_steps(name: str) -> dict:
    def parse(ls):
        text = texts()[name]
        return lambda: ls.parse_arrangement(text)

    def profile_of(ls):
        parsed = arrangement(ls, name)
        return lambda: ls.profile_of(parsed)

    return {f"{step.__name__}_{name}": step for step in (parse, profile_of)}


def parse_small(ls):
    small = texts()["small"]
    return lambda: [ls.parse_arrangement(text) for text in small]


def report(ls):
    """The public calls of workloads.report on each profile of the stream."""
    profiles = stream(ls)

    def call():
        for profile, q in profiles:
            gi = ls.global_invariants(profile)
            ls.verdict(profile)
            if gi.c2:
                ls.chern_ratio_analysis(profile)
            if q is not None:
                ls.hodge_diamond(profile, q)
            [ls.local_invariants(r, profile.d) for r, _ in profile.t]
    return call


def canonical(ls):
    pairs = rectangle(w.SWEEP_R, w.SWEEP_D)
    return lambda: [ls.canonical_coefficients(r, d) for r, d in pairs]


STEPS = {**sweep_steps(w.SWEEP_R, w.SWEEP_D), **sweep_steps(*w.REFERENCE_SWEEP),
         **definite_steps("zero_free"), **definite_steps("with_zeros"),
         "parse_small": parse_small,
         **file_steps("large"), **file_steps("decimal"), **file_steps("random"),
         **file_steps("hostile"),
         "report": report, "canonical": canonical}


def pass_seconds(step, ls) -> float:
    call = step(ls)
    gc.collect()  # so that no pass pays for another's garbage
    gc.disable()
    try:
        start = time.perf_counter()
        result = call()  # noqa: F841, freed after the clock stops
        return time.perf_counter() - start
    finally:
        gc.enable()


def compare(trees: dict, names: list[str], rounds: int, passes: int) -> dict:
    for name in names:
        for ls in trees.values():
            STEPS[name](ls)()
    best = {name: {tree: [] for tree in trees} for name in names}
    for k in range(rounds):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for name in names:
            seconds = {tree: [] for tree in trees}
            for _ in range(passes):
                for tree in order:
                    seconds[tree].append(pass_seconds(STEPS[name], trees[tree]))
            for tree in trees:
                best[name][tree].append(min(seconds[tree]))
    out = {}
    for name in names:
        head, base = best[name]["head"], best[name]["base"]
        ratios = [h / b for h, b in zip(head, base)]
        q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive") if rounds > 1
                     else ratios * 3)  # quantiles needs two points
        out[name] = {"head_s": statistics.median(head), "base_s": statistics.median(base),
                     "ratio": statistics.median(ratios), "ratio_q1": q1, "ratio_q3": q3,
                     "head_won": sum(h < b for h, b in zip(head, base)),
                     "base_won": sum(b < h for h, b in zip(head, base))}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="root of the source tree to compare the checkout with")
    parser.add_argument("--step", action="append", choices=list(STEPS),
                        help="a step to time, repeatable (default: every step)")
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be >= 1")
    if not (args.base / "src" / "linesurf" / "__init__.py").is_file():
        print(f"ab.py: error: no src/linesurf/__init__.py under {args.base}", file=sys.stderr)
        return 2
    names = list(dict.fromkeys(args.step or STEPS))
    steps = compare(load_trees(args.base), names, args.rounds, args.passes)
    print(json.dumps({"rounds": args.rounds, "passes": args.passes, "steps": steps}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
