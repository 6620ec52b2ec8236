"""Smoke tests of the scripts: each runs as its own process on the source tree."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from linesurf import chern_ratio_analysis, local_invariants, validate_profile
from linesurf.arrangement import FLOOR_KEY_BITS

ROOT = Path(__file__).resolve().parent.parent


def run_process(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=60)


def run_script(name, *args):
    done = run_process(name, *args)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    header, *rows = done.stdout.splitlines()
    return header.split(), [row.split() for row in rows]


@pytest.mark.parametrize("d", [12, 13])
def test_ratio_scan(d):
    header, rows = run_script("ratio_scan.py", "--d", str(d))
    assert header == ["t_3", "t_2", "ratio", "numer", "denom"]
    pairs = comb(d, 2)
    assert [int(row[0]) for row in rows] == list(range(pairs // 3 + 1))
    for t3, t2, ratio, numer, denom in rows:
        assert int(t2) == pairs - 3 * int(t3)
        t = {r: c for r, c in ((2, int(t2)), (3, int(t3))) if c}
        out = chern_ratio_analysis(validate_profile(d, t))
        form = out["nodes_triples_form"]
        assert (Fraction(ratio), int(numer), int(denom)) == (
            out["ratio"], form["numer"], form["denom"]), (d, t3)


def test_ratio_scan_pencil_ratio_undefined():
    # t_3 = 1 at d = 3 is the 3-line pencil: c2 = 0
    header, rows = run_script("ratio_scan.py", "--d", "3")
    out = chern_ratio_analysis(validate_profile(3, {2: 3}))
    form = out["nodes_triples_form"]
    assert rows == [["0", "3", str(out["ratio"]), str(form["numer"]), str(form["denom"])],
                    ["1", "0", "undefined"]]


@pytest.mark.parametrize("d", ["1", "0", "-4"])
def test_ratio_scan_rejects_small_d(d):
    done = run_process("ratio_scan.py", "--d", d)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines() == [f"BadParameter: d must be >= 2, got {d}"]


def test_local_table_residue():
    header, rows = run_script("local_table.py", "--r-max", "4", "--d-max", "10",
                              "--residue", "1")
    assert header == ["r", "d", "DCI", "DCII", "DMY", "E"]
    expected = [(r, d) for r in range(2, 5) for d in range(r, 11) if d % r == 1 % r]
    assert [(int(row[0]), int(row[1])) for row in rows] == expected
    for row in rows:
        r, d, *quadruple = map(int, row)
        assert tuple(quadruple) == local_invariants(r, d)[2:], (r, d)


def test_profile_of_timing():
    done = run_process("profile_of_timing.py", "--passes", "2", "--random-lines", "6",
                       "--hostile-lines", "4")
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    report = json.loads(done.stdout)
    assert report["passes"] == 2
    assert report["floor_key_bits"] == FLOOR_KEY_BITS
    # no timed pass pays for a collection that earlier garbage triggers
    assert report["gc"] == "collected before each timed pass and disabled during it"
    # the benchmark's 200-line file, its decimal copy and the random one below
    # the cutover, the hostile one far past it
    for name, d, below in (("large", 200, True), ("decimal", 200, True), ("random", 6, True),
                           ("hostile", 4, False)):
        timing = report[name]
        assert timing["lines"] == d
        assert (timing["max_bits"] < FLOOR_KEY_BITS) == below
        assert 0 < timing["min_s"] <= timing["median_s"]
        assert timing["parse_median_s"] > 0
        # the profile is balanced: every pair of lines meets in one point
        assert sum(comb(int(r), 2) * count for r, count in timing["t"].items()) == comb(d, 2)
    assert report["decimal"]["t"] == report["large"]["t"]
    # the 40 small texts of an arrangement-files period: 6, 7, ..., 30 lines,
    # then 6, ..., 20 again
    small = report["small"]
    assert small["texts"] == 40
    assert small["lines"] == sum(range(6, 31)) + sum(range(6, 21))
    assert 0 < small["parse_min_s"] <= small["parse_median_s"]


def test_oracle_timing():
    done = run_process("oracle_timing.py", "--passes", "1")
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    report = json.loads(done.stdout)
    assert report["passes"] == 1
    # no step pays for a collection that another step's garbage triggers
    assert report["gc"] == "collected before each timed step and disabled during it"
    # the oracle-sweep operation and the reference rectangle: one system per pair
    for key, r_max, d_max in (("sweep_verify(8, 24)", 8, 24), ("sweep_verify(10, 60)", 10, 60)):
        timing = report[key]
        assert timing["pairs"] == sum(d_max - r + 1 for r in range(2, r_max + 1))
        for step in ("sweep", "pivots", "forward"):
            assert 0 < timing[step]["min_s"] <= timing[step]["median_s"]
    # every graph with 2 <= r <= d <= 40, whole and in the definite-sweep operation's four steps
    definite = report["check_negative_definite"]
    assert (definite["d_max"], definite["graphs"]) == (40, comb(40, 2))
    assert list(definite["steps"]) == ["build", "matrix", "check_copy", "pivots"]
    for timing in (definite, *definite["steps"].values()):
        assert 0 < timing["min_s"] <= timing["median_s"]
        # one graph's fastest time, at the median over graphs, is below a pass's total
        assert 0 < timing["graph_p50_s"] < timing["min_s"]
