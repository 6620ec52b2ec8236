#!/usr/bin/env python3
"""Time the exact oracle layer by layer; print the medians as JSON.

For each of two rectangles, sweep_verify(8, 24), the oracle-sweep benchmark's
operation, and sweep_verify(10, 60), the ROADMAP's reference point, the
script times --passes whole sweeps, then the two steps of the sweep's solve
on the sweep's own systems: resolution._pivots on the rows and adjunction
right-hand sides that the public intersection_matrix and
verify.adjunction_rhs build for every pair, and verify._forward on what
_pivots returns.  _pivots works in place, so each pass eliminates fresh
copies made before its clock starts.  Last it times check_negative_definite
over the intersection matrices of every graph with d <= 40, the
definite-sweep benchmark's operations, which includes eliminate's checks and
copy.  The JSON gives each item's median and fastest pass in seconds, with
its pair or graph count; the medians of two source trees compare when they
run on one machine, one tree after the other.

Example:
    python3 scripts/oracle_timing.py --passes 5
"""

import argparse
import json
import statistics
import time

from linesurf import (build_resolution_graph, check_negative_definite, intersection_matrix,
                      sweep_verify)
from linesurf.resolution import _pivots
from linesurf.verify import _forward, adjunction_rhs

SWEEPS = ((8, 24), (10, 60))
DEFINITE_D = 40


def summary(seconds: list[float]) -> dict:
    return {"median_s": statistics.median(seconds), "min_s": min(seconds)}


def sweep_timing(r_max: int, d_max: int, passes: int) -> dict:
    systems = []
    for r in range(2, r_max + 1):
        for d in range(r, d_max + 1):
            graph = build_resolution_graph(r, d)
            systems.append((intersection_matrix(graph), adjunction_rhs(graph)))
    sweep, pivots, forward = [], [], []
    for _ in range(passes):
        start = time.perf_counter()
        sweep_verify(r_max, d_max)
        sweep.append(time.perf_counter() - start)
        copies = [(list(map(dict, rows)), list(b)) for rows, b in systems]
        start = time.perf_counter()
        eliminated = [_pivots(rows, b) for rows, b in copies]
        pivots.append(time.perf_counter() - start)
        start = time.perf_counter()
        for rows, b in eliminated:
            _forward(rows, b)
        forward.append(time.perf_counter() - start)
    return {"pairs": len(systems), "sweep": summary(sweep), "pivots": summary(pivots),
            "forward": summary(forward)}


def definite_timing(passes: int) -> dict:
    matrices = [intersection_matrix(build_resolution_graph(r, d))
                for d in range(2, DEFINITE_D + 1) for r in range(2, d + 1)]
    seconds = []
    for _ in range(passes):
        start = time.perf_counter()
        for m in matrices:
            check_negative_definite(m)
        seconds.append(time.perf_counter() - start)
    return {"d_max": DEFINITE_D, "graphs": len(matrices), **summary(seconds)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be >= 1")

    report = {"passes": args.passes}
    report.update((f"sweep_verify({r}, {d})", sweep_timing(r, d, args.passes))
                  for r, d in SWEEPS)
    report["check_negative_definite"] = definite_timing(args.passes)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
