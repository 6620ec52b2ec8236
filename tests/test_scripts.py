"""Smoke tests of the scripts: each runs as its own process on the source tree;
ab.py's loader also runs in this one."""

import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from linesurf import (chern_ratio_analysis, local_invariants, parse_arrangement, profile_of,
                      validate_profile)
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


# at least one step of each kind, each under 0.05 s a pass
CHEAP_STEPS = ["sweep_8_24", "pivots_8_24", "forward_8_24", "definite_build_zero_free",
               "definite_matrix_zero_free", "definite_check_copy_zero_free",
               "definite_pivots_zero_free", "definite_whole_zero_free", "parse_small",
               "parse_hostile", "profile_of_large", "report", "canonical"]


def test_ab_against_the_checkout():
    argv = ["--base", str(ROOT), "--rounds", "1", "--passes", "1"]
    done = run_process("ab.py", *argv, *(arg for step in CHEAP_STEPS for arg in ("--step", step)))
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    steps = json.loads(done.stdout)["steps"]
    assert list(steps) == CHEAP_STEPS
    for step in steps.values():
        assert step["head_s"] > 0 and step["base_s"] > 0
        assert step["ratio"] == step["ratio_q1"] == step["ratio_q3"] > 0
        assert step["head_won"] + step["base_won"] <= 1


def test_ab_refusals(tmp_path):
    unknown = run_process("ab.py", "--base", str(ROOT), "--step", "no_such_step")
    assert (unknown.returncode, unknown.stdout) == (2, "")
    # a base without src/linesurf/__init__.py: exit 2 and one line on stderr
    done = run_process("ab.py", "--base", str(tmp_path))
    assert (done.returncode, done.stdout, len(done.stderr.splitlines())) == (2, "", 1)


@pytest.fixture
def ab(monkeypatch):
    """scripts/ab.py imported in this process; the modules it loads are dropped afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_ab_loads_two_distinct_trees(ab):
    trees = ab.load_trees(ROOT)
    head, base = ({name.partition(".")[2]: module for name, module in sys.modules.items()
                   if name.partition(".")[0] == package}
                  for package in ("linesurf_head", "linesurf_base"))
    assert head.keys() == base.keys() >= {"", "local", "surface", "resolution", "verify"}
    assert (head[""], base[""]) == (trees["head"], trees["base"])
    # no module object is shared, so a step times each tree's own code
    assert not set(map(id, head.values())) & set(map(id, base.values()))
    assert trees["base"].surface.local_invariants.__module__ == "linesurf_base.local"


def test_ab_inputs(ab):
    texts = ab.texts()
    # the 40 small texts of an arrangement-files period: 6, ..., 30 lines, then 6, ..., 20
    assert [parse_arrangement(t).d for t in texts["small"]] == [*range(6, 31), *range(6, 21)]
    parsed = {name: parse_arrangement(text) for name, text in texts.items() if name != "small"}
    assert profile_of(parsed["decimal"]) == profile_of(parsed["large"])
    # only the hostile file takes profile_of's gcd keys
    for name, arrangement in parsed.items():
        top = max(max(abs(line.a), abs(line.b), abs(line.c)) for line in arrangement.lines)
        assert (top.bit_length() >= FLOOR_KEY_BITS) == (name == "hostile"), name
