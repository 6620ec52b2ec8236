#!/usr/bin/env python3
"""Time the exact oracle layer by layer; print the medians as JSON.

For each of two rectangles, sweep_verify(8, 24), the oracle-sweep benchmark's
operation, and sweep_verify(10, 60), the ROADMAP's reference point, the
script times --passes whole sweeps, then the two steps of the sweep's solve
on the sweep's own systems: resolution._pivots on the rows and adjunction
right-hand sides that the public intersection_matrix and
verify.adjunction_rhs build for every pair, and verify._forward on what
_pivots returns.  _pivots works in place, so each pass eliminates fresh
copies made before its clock starts.  Last it times the definite-sweep
benchmark's operations, one graph at a time over every graph with d <= 40,
in four steps: build_resolution_graph, intersection_matrix,
resolution._checked_rows (check_negative_definite's check and copy, with
its zero right-hand side made before the clock starts) and _pivots on the
copies; then check_negative_definite whole, on the same matrices.  The JSON
gives each item's median and fastest pass in seconds, with its pair or
graph count; each definite step also gives graph_p50_s, the median over
graphs of each graph's fastest time, which tracks the benchmark's
op_ms_p50.  Under "groups" the definite graphs are split in two, each with
its count, its whole times and its steps' medians: "zero_free", whose
matrices have no zero entry, such as the cliques of the (r, r + 1)
blown-down stars, and which _pivots eliminates on the lists of their
lower triangles, and "with_zeros", every other graph, on dict rows.
Before each timed step the script runs a full garbage collection and keeps
the collector off until the step ends, so that no step pays for another's
garbage; the JSON says so under "gc".  The rectangles and the d bound are
the benchmark's own, read from perfbench/workloads.py.  Only ratios from
runs of two source trees interleaved in one process compare them: runs of
one tree after the other once read unchanged code x1.33 apart, as the
machine's speed moved.

Example:
    python3 scripts/oracle_timing.py --passes 5
"""

import argparse
import gc
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from linesurf import (build_resolution_graph, check_negative_definite, intersection_matrix,
                      sweep_verify)
from linesurf.resolution import _checked_rows, _pivots
from linesurf.verify import _forward, adjunction_rhs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import DEFINITE_D, REFERENCE_SWEEP, SWEEP_D, SWEEP_R

SWEEPS = ((SWEEP_R, SWEEP_D), REFERENCE_SWEEP)


def summary(seconds: list[float]) -> dict:
    return {"median_s": statistics.median(seconds), "min_s": min(seconds)}


@contextmanager
def collector_off():
    """Collect garbage, then keep the collector off for one timed step; it
    is turned back on afterwards, also when the step raises."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def sweep_timing(r_max: int, d_max: int, passes: int) -> dict:
    systems = []
    for r in range(2, r_max + 1):
        for d in range(r, d_max + 1):
            graph = build_resolution_graph(r, d)
            systems.append((intersection_matrix(graph), adjunction_rhs(graph)))
    sweep, pivots, forward = [], [], []
    for _ in range(passes):
        with collector_off():
            start = time.perf_counter()
            sweep_verify(r_max, d_max)
            sweep.append(time.perf_counter() - start)
        copies = [(list(map(dict, rows)), list(b)) for rows, b in systems]
        with collector_off():
            start = time.perf_counter()
            eliminated = [_pivots(rows, b) for rows, b in copies]
            pivots.append(time.perf_counter() - start)
        with collector_off():
            start = time.perf_counter()
            for rows, b in eliminated:
                _forward(rows, b)
            forward.append(time.perf_counter() - start)
    return {"pairs": len(systems), "sweep": summary(sweep), "pivots": summary(pivots),
            "forward": summary(forward)}


def definite_timing(passes: int) -> dict:
    pairs = [(r, d) for d in range(2, DEFINITE_D + 1) for r in range(2, d + 1)]
    # each step's time per graph, one list per pass
    steps = {"build": [], "matrix": [], "check_copy": [], "pivots": [],
             "check_negative_definite": []}

    def timed(step: str, call, args: list) -> list:
        results, elapsed = [], []
        with collector_off():
            for arg in args:
                start = time.perf_counter()
                results.append(call(*arg))
                elapsed.append(time.perf_counter() - start)
        steps[step].append(elapsed)
        return results

    for _ in range(passes):
        graphs = timed("build", build_resolution_graph, pairs)
        matrices = timed("matrix", intersection_matrix, [(g,) for g in graphs])
        copies = timed("check_copy", _checked_rows, [(m, [0] * len(m)) for m in matrices])
        timed("pivots", _pivots, [(rows, [0] * len(rows)) for rows in copies])
        timed("check_negative_definite", check_negative_definite, [(m,) for m in matrices])

    def report(times: list[list[float]], keep: list[int]) -> dict:
        return {**summary([sum(elapsed[k] for k in keep) for elapsed in times]),
                "graph_p50_s": statistics.median(min(elapsed[k] for elapsed in times)
                                                 for k in keep)}

    # a matrix with no zero entry, every row holding all n columns, takes _pivots' list path
    everything = list(range(len(pairs)))
    zero_free = [k for k in everything if all(len(row) == len(matrices[k]) for row in matrices[k])]
    groups = {"zero_free": zero_free, "with_zeros": [k for k in everything if k not in zero_free]}
    whole = steps.pop("check_negative_definite")
    return {"d_max": DEFINITE_D, "graphs": len(pairs), **report(whole, everything),
            "steps": {step: report(times, everything) for step, times in steps.items()},
            "groups": {name: {"graphs": len(keep), **report(whole, keep),
                              "steps": {step: report(times, keep)["median_s"]
                                        for step, times in steps.items()}}
                       for name, keep in groups.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be >= 1")

    report = {"passes": args.passes,
              "gc": "collected before each timed step and disabled during it"}
    report.update((f"sweep_verify({r}, {d})", sweep_timing(r, d, args.passes))
                  for r, d in SWEEPS)
    report["check_negative_definite"] = definite_timing(args.passes)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
