#!/usr/bin/env python3
"""Run the oracle sweep and the definiteness sweep, with timing and any failures.

The oracle sweep recomputes every local invariant over 2 <= r <= r_max,
r <= d <= d_max from the intersection matrix (exact linear solve plus
quadratic form) and compares against the closed forms.  The definiteness
sweep times check_negative_definite(intersection_matrix(g)) over the triangle
2 <= r <= d <= 60, split by shape.  The defaults give both ROADMAP reference
points: sweep_verify(10, 60) and definiteness over d <= 60.  The definiteness
triangle stays at d <= 60, whatever --d-max is, so that every run times the
same ROADMAP reference point.

Example:
    python3 scripts/oracle_sweep.py --r-max 10 --d-max 60
    python3 scripts/oracle_sweep.py --r-max 30 --d-max 200
"""

import argparse
import time
from collections import Counter

from linesurf import (
    build_resolution_graph,
    check_negative_definite,
    intersection_matrix,
    sweep_verify,
)

DEFINITE_D_MAX = 60


def definiteness_sweep(d_max: int) -> tuple[Counter, list[tuple[int, int]]]:
    """Seconds per shape, and the pairs whose graph is not negative definite."""
    seconds: Counter = Counter()
    failed = []
    for d in range(2, d_max + 1):
        for r in range(2, d + 1):
            graph = build_resolution_graph(r, d)
            start = time.perf_counter()
            definite = check_negative_definite(intersection_matrix(graph))
            seconds[graph.shape] += time.perf_counter() - start
            if not definite:
                failed.append((r, d))
    return seconds, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--r-max", type=int, default=10)
    parser.add_argument("--d-max", type=int, default=60)
    args = parser.parse_args()

    start = time.perf_counter()
    reports = sweep_verify(args.r_max, args.d_max)
    elapsed = time.perf_counter() - start
    bad = [rep for rep in reports if not rep.ok]
    print(f"{len(reports)} pairs checked in {elapsed:.2f} s, {len(bad)} mismatches")
    for rep in bad:
        print(f"  r={rep.r} d={rep.d} coeffs={rep.coefficients_match} "
              f"dci={rep.dci_match} dcii={rep.dcii_match}")

    seconds, failed = definiteness_sweep(DEFINITE_D_MAX)
    shapes = ", ".join(f"{shape} {s:.2f} s" for shape, s in sorted(seconds.items()))
    print(f"definiteness over d <= {DEFINITE_D_MAX}: {sum(seconds.values()):.2f} s "
          f"({shapes}), {len(failed)} not negative definite")
    for r, d in failed:
        print(f"  r={r} d={d}")
    return 1 if bad or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
