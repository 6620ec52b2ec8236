"""End-to-end CLI tests driven through main(argv)."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linesurf import (
    canonical_coefficients,
    catalog_profile,
    cli,
    global_invariants,
    local,
    local_invariants,
    resolution,
)
from linesurf.arrangement import CATALOG
from linesurf.cli import main
from linesurf.errors import InternalCheckError
from linesurf.hjcf import _run_walk

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_catalog_json(self, capsys):
        code, out, _ = run(capsys, "invariants", "--catalog", "hesse", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["k2_bar"] == 768 and report["chi_bar"] == 201
        assert report["c1_sq"] == 336 and report["c2"] == 360
        assert report["chern_ratio"] == "14/15"
        assert report["hodge"] == {"q": 3, "pg": 60, "h11": 250}
        assert report["verdict"]["general_type"] == "Yes"

    def test_profile_flags(self, capsys):
        code, out, _ = run(capsys, "invariants", "--profile", "--d", "6",
                           "--t", "2=3", "--t", "3=4", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["c1_sq"] == 0 and report["c2"] == 36
        assert report["hodge"] is None

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("1 0 0\n0 1 0\n0 0 1\n")
        code, out, _ = run(capsys, "invariants", "--input", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["input"]["d"] == 3
        assert report["input"]["t"] == {"2": 3}

    def test_huge_braid(self, capsys):
        # d = 450,015,000: a star whose arms have about d/3 terms each, read
        # by the run walk of hj_summary without building them
        code, out, _ = run(capsys, "invariants", "--catalog", "braid", "--n", "30000",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        d = report["input"]["d"]
        assert d == 30000 * 30001 // 2
        triple = next(entry for entry in report["local"] if entry["r"] == 3)
        assert (triple["dci"], triple["dcii"]) == (-d, d - 4)  # the d = 0 (mod r) row

    def test_one_local_quadruple_per_multiplicity(self, capsys, monkeypatch):
        calls = []

        def counting(r, d):
            calls.append((r, d))
            return local_invariants(r, d)

        monkeypatch.setattr(cli, "local_invariants", counting)
        code, out, _ = run(capsys, "invariants", "--catalog", "hesse", "--format", "json")
        assert code == 0 and calls == [(2, 12), (4, 12)]
        assert [entry["dci"] for entry in json.loads(out)["local"]] == [0, -48]

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "invariants", "--catalog", "braid", "--n", "5",
                         "--format", "json")
        _, out2, _ = run(capsys, "invariants", "--catalog", "braid", "--n", "5",
                         "--format", "json")
        assert out1 == out2

    def test_q_override_warns(self, capsys):
        code, out, err = run(capsys, "invariants", "--catalog", "hesse",
                             "--q", "2", "--format", "json")
        assert code == 0
        assert "overrides" in err
        assert json.loads(out)["hodge"]["q"] == 2

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "invariants", "--catalog", "ceva", "--m", "3")
        assert code == 0
        assert "my_tilde" in out and "verdict:" in out

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "invariants", "--format", "json")
        assert code == 2 and "exactly one" in err
        code, _, err = run(capsys, "invariants", "--catalog", "hesse",
                           "--profile", "--d", "3")
        assert code == 2

    def test_unbalanced_profile_rejected(self, capsys):
        code, _, err = run(capsys, "invariants", "--profile", "--d", "5", "--t", "2=3")
        assert code == 2 and "UnbalancedProfile" in err

    def test_unbalanced_profile_past_the_digit_limit(self, capsys):
        # d(d-1)/2 has about 6000 digits: the message gives its bit length
        code, out, err = run(capsys, "invariants", "--profile", "--d", "1" + "0" * 3000,
                             "--t", "2=1")
        assert (code, out) == (2, "")
        assert err.startswith("UnbalancedProfile: ") and " bits>" in err

    @pytest.mark.parametrize("argv, message", [
        (["--d", "3", "--t", "2=x"], "--t expects r=count, got '2=x'"),
        (["--d", "3", "--t", "2=1", "--t", "2=2"], "multiplicity 2 given twice"),
        (["--t", "2=1"], "--profile requires --d"),
    ])
    def test_profile_flags_refused(self, capsys, argv, message):
        code, out, err = run(capsys, "invariants", "--profile", *argv)
        assert (code, out, err) == (2, "", f"BadParameter: {message}\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "invariants", "--input", "/nonexistent/zzz")
        assert code == 2

    @pytest.mark.parametrize("name", ["a\x00b", "\ud800"])
    def test_path_that_names_no_file(self, capsys, name):
        # a NUL or a lone surrogate cannot reach the OS as a file name
        code, out, err = run(capsys, "invariants", "--input", name)
        assert (code, out) == (2, "") and err.startswith("BadParameter: --input ")

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1 0 0\n\xff\xfe 1 0\n0 0 1\n")
        code, _, err = run(capsys, "invariants", "--input", str(path))
        assert code == 2
        assert str(path) in err and "UTF-8" in err

    @pytest.mark.parametrize("name, flag", [
        ("ceva", "--n"), ("ceva", "--d"),
        ("braid", "--m"), ("braid", "--d"),
        ("pencil", "--m"), ("pencil", "--n"),
        ("near-pencil", "--m"), ("generic", "--n"),
        ("hesse", "--m"), ("hesse", "--n"), ("hesse", "--d"),
        ("hesse", "--t"), ("ceva", "--t"),
    ])
    def test_catalog_rejects_foreign_flag(self, capsys, name, flag):
        code, _, err = run(capsys, "invariants", "--catalog", name, flag, "5")
        assert code == 2 and flag in err

    @pytest.mark.parametrize("name", [name for name, row in CATALOG.items() if row.flag])
    def test_catalog_parameter_minimum(self, capsys, name):
        flag, minimum = f"--{CATALOG[name].flag}", CATALOG[name].minimum
        code, out, err = run(capsys, "invariants", "--catalog", name, flag, str(minimum))
        assert code == 0 and f"catalog:{name}({minimum})" in out, err
        code, _, err = run(capsys, "invariants", "--catalog", name, flag, str(minimum - 1))
        assert code == 2 and "BadParameter" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--profile", "--d", "3", "--t", "2=3", "--m", "4"], "--m"),
        (["--profile", "--d", "3", "--t", "2=3", "--n", "4"], "--n"),
        (["--input", "{path}", "--d", "3"], "--d"),
        (["--input", "{path}", "--t", "2=3"], "--t"),
        (["--input", "{path}", "--m", "4"], "--m"),
    ])
    def test_source_rejects_foreign_flag(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "triangle.txt"
        path.write_text("1 0 0\n0 1 0\n0 0 1\n")
        argv = [arg.format(path=path) for arg in argv]
        code, _, err = run(capsys, "invariants", *argv, "--q", "0", "--format", "json")
        assert code == 2 and flag in err


# the digit limit of int-to-str conversion; Python 3.10 before 3.10.7 has none
digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)


@contextlib.contextmanager
def no_digit_limit():
    """Lift the limit for the test's own decimals, then restore it."""
    limit = digit_limit()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestDigitsPastTheLimit:
    # d^3 and the Chern numbers pass the limit of 4300 digits; so do the
    # numerator and denominator of the generic ratio (d-4)^2/(d^2-4d+6)
    D = 10**1500 + 7

    def decimals(self, *values):
        with no_digit_limit():
            return [str(v) for v in values]

    @pytest.mark.parametrize("name, d", [("pencil", D), ("generic", 10**2200 + 7)])
    def test_invariants_in_both_formats(self, capsys, name, d):
        limit = digit_limit()
        entry = catalog_profile(name, d)
        gi = global_invariants(entry.profile)
        keys = ("k2_bar", "chi_bar", "my_bar", "c1_sq", "c2", "my_tilde")
        values = (gi.k2_bar, gi.chi_bar, gi.my_bar, gi.c1sq, gi.c2, gi.my_tilde)
        ratio = gi.chern_ratio
        d_text, *digits, num, den = self.decimals(d, *values, ratio.numerator, ratio.denominator)
        (r, t_r), = entry.profile.t
        r_text, t_text = self.decimals(r, t_r)
        assert max(map(len, digits)) > 4300
        assert name == "pencil" or min(len(num), len(den)) > 4300

        code, out, _ = run(capsys, "invariants", "--catalog", name, "--d", d_text,
                           "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["input"]["t"] == {r_text: t_r if t_r < 2**53 else t_text}
        assert [payload[key] for key in keys] == digits
        assert payload["chern_ratio"] == f"{num}/{den}"

        code, out, _ = run(capsys, "invariants", "--catalog", name, "--d", d_text)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == f"input: catalog:{name}({d_text})  d={d_text}  t={{{r_text}: {t_text}}}"
        assert lines[1:8] == [f"{key:10s} {value}" for key, value in zip(keys, digits)] + [
            f"{'ratio':10s} {num if den == '1' else f'{num}/{den}'}"]
        _, dci, dcii, dmy, e = self.decimals(*local_invariants(r, d)[1:])
        assert lines[10] == f"{r_text:>3} {t_text:>4} {dci:>10} {dcii:>10} {dmy:>10} {e:>10}"
        assert digit_limit() == limit

    def test_local(self, capsys):
        d = str(self.D)
        code, out, _ = run(capsys, "local", "--r", d, "--d", d)
        inv = local_invariants(self.D, self.D)
        a0, = canonical_coefficients(self.D, self.D).values
        payload = json.loads(out)
        assert code == 0 and payload["shape"] == "star"
        assert [payload[k] for k in ("r", "d", "dci", "dcii", "dmy", "e")] + payload[
            "coefficients"] == self.decimals(*inv, a0)


class TestGraph:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "graph", "--r", "3", "--d", "5")
        assert code == 0
        assert "shape: star" in out and "vertices: 7" in out

    def test_node_is_a_star(self, capsys):
        # the A_5 chain of (2, 6): a genus-0 centre of weight 2 between two arms of 2s
        code, out, _ = run(capsys, "graph", "--r", "2", "--d", "6")
        assert (code, out) == (0, "shape: star\nvertices: 5\ncentral: genus=0 b=2\n"
                                  "lambda: 2\narm weights: [2, 2]\n")

    def test_dot_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run(capsys, "graph", "--r", "3", "--d", "7",
                           "--dot", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith('graph "resolution_r3_d7"')
        assert "a1_1 -- a2_1;" in text

    def test_bad_parameters(self, capsys):
        code, _, err = run(capsys, "graph", "--r", "9", "--d", "4")
        assert code == 2 and "BadMultiplicity" in err

    def test_dot_path_refused_before_any_output(self, capsys):
        code, out, err = run(capsys, "graph", "--r", "3", "--d", "5", "--dot", "a\x00")
        assert (code, out) == (2, "") and err.startswith("BadParameter: --dot ")

    def test_star_with_empty_arms(self, capsys):
        code, out, _ = run(capsys, "graph", "--r", "4", "--d", "4")
        assert (code, out) == (0, "shape: star\nvertices: 1\ncentral: genus=3 b=4\n"
                                  "lambda: 0\narm weights: []\n")

    @pytest.mark.parametrize("n", [10**9, sys.maxsize + 2])
    def test_star_with_empty_arms_costs_no_arm_copies(self, capsys, n):
        # one curve: no tuple of n arms, which at 10**9 would take gigabytes
        # and past sys.maxsize cannot be made
        start = time.perf_counter()
        code, out, _ = run(capsys, "graph", "--r", str(n), "--d", str(n))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, f"shape: star\nvertices: 1\ncentral: genus="
                                  f"{(n - 2) * (n - 1) // 2} b={n}\nlambda: 0\narm weights: []\n")

    def test_failed_dot_write_prints_nothing(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.dot"
        code, out, err = run(capsys, "graph", "--r", "3", "--d", "5", "--dot", str(target))
        assert (code, out) == (2, "") and err.startswith("FileNotFoundError: ")


class TestGraphSizeCap:
    # a resolution graph of about d/3 vertices per arm, a node's graph of
    # about 10^12 vertices, and a blown-down star whose size has about 6000
    # digits, which the message gives as a bit length: refused from their
    # size, computed in O(log d), before building
    @pytest.mark.parametrize("argv", [["local", "--r", "2", "--d", "1000000000000"],
                                      ["graph", "--r", "3", "--d", "4501500"],
                                      ["graph", "--r", "3", "--d", "4501500", "--dot", "x.dot"],
                                      ["graph", "--r", "1" + "0" * 3000,
                                       "--d", "1" + "0" * 2999 + "1"]])
    def test_huge_graph_refused_quickly(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "") and "BadParameter" in err and "cap" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["graph", "local"])
    def test_cap_is_on_vertices_plus_edges(self, capsys, monkeypatch, command):
        # (3, 5) is a star with 7 vertices and 6 edges
        monkeypatch.setattr(cli, "MAX_GRAPH_SIZE", 13)
        assert run(capsys, command, "--r", "3", "--d", "5")[0] == 0
        monkeypatch.setattr(cli, "MAX_GRAPH_SIZE", 12)
        code, out, err = run(capsys, command, "--r", "3", "--d", "5")
        assert (code, out) == (2, "") and "has 13 vertices and edges" in err

    def test_benchmark_calls_unchanged(self, capsys, tmp_path, monkeypatch):
        # the benchmark's cli workload runs these graph and local calls
        tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
        calls, = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(target, "id", None) for target in node.targets] == ["CLI_CALLS"]]
        calls = [(argv, code) for _, argv, code in calls if argv[0] in ("graph", "local")]
        monkeypatch.chdir(tmp_path)
        assert len(calls) == 4
        for argv, expected in calls:
            assert run(capsys, *argv)[0] == expected, argv


def test_log_d_paths_expand_nothing(capsys, monkeypatch):
    # hj_expand takes one term per step, so an expansion here would cost
    # O(d) steps; each of these paths reads only the run walk of hj_summary
    def refuse(alpha, beta):
        pytest.fail(f"hj_expand({alpha}, {beta}) called")

    monkeypatch.setattr(local, "hj_expand", refuse)
    monkeypatch.setattr(resolution, "hj_expand", refuse)
    assert local_invariants(3, 3001).dcii == 3000
    assert resolution.graph_size(3, 4501500) > cli.MAX_GRAPH_SIZE
    code, _, _ = run(capsys, "invariants", "--catalog", "braid", "--n", "30000",
                     "--format", "json")
    assert code == 0
    code, out, err = run(capsys, "graph", "--r", "3", "--d", "4501500")
    assert (code, out) == (2, "") and "cap" in err


class TestLocal:
    def test_quadruple(self, capsys):
        code, out, _ = run(capsys, "local", "--r", "3", "--d", "5")
        assert code == 0
        payload = json.loads(out)
        assert (payload["dci"], payload["dcii"]) == (-3, 7)
        assert payload["coefficients"] == [-3, -2, -1]

    def test_node_is_a_blown_down_star(self, capsys):
        # d odd: two arms of 2s whose roots meet, one zero per depth
        code, out, _ = run(capsys, "local", "--r", "2", "--d", "7")
        assert code == 0 and '"shape": "blown_down_star"' in out
        assert json.loads(out)["coefficients"] == [0, 0, 0]

    def test_internal_check_failure_exits_3(self, capsys, monkeypatch):
        # a wrong modular inverse breaks alpha | 1 + b'beta, the package's one
        # divisibility check, in resolution._weights
        monkeypatch.setattr(resolution, "_neg_inverse", lambda alpha, bprime: 0)
        code, out, err = run(capsys, "local", "--r", "3", "--d", "5")
        assert code == 3 and out == ""
        assert err.startswith("InternalCheckError: ") and err.count("\n") == 1
        assert issubclass(InternalCheckError, AssertionError)


class TestVerify:
    def test_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--r-max", "4", "--d-max", "15")
        assert code == 0
        assert "all" in out and "match" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--r-max", "3", "--d-max", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mismatches"] == 0
        assert payload["pairs"] == len(payload["reports"])

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "verify", "--r-max", "1", "--d-max", "5")
        assert code == 2 and "BadParameter" in err

    @pytest.mark.parametrize("argv", [["--r-max", "2", "--d-max", "1000000000000"],
                                      ["--r-max", "1000000", "--d-max", "1000000"]])
    def test_huge_sweep_refused_quickly(self, capsys, argv):
        # refused from the closed-form size bound, before any graph is built
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "") and err.startswith("BadParameter: ") and "cap" in err
        assert err.count("\n") == 1

    def test_cap_admits_the_documented_sweeps(self):
        # CI's two sweeps and the larger timed one, checked without running them
        assert cli.MAX_SWEEP_SIZE == 200 * cli.MAX_GRAPH_SIZE
        bounds = [cli._sweep_size_bound(r_max, d_max)
                  for r_max, d_max in ((10, 60), (2, 400), (30, 200))]
        assert bounds == [203745, 321195, 19246140]
        assert max(bounds) <= cli.MAX_SWEEP_SIZE

    def test_cap_is_on_the_size_bound(self, capsys, monkeypatch):
        # (2, 2) and (2, 3) are bounded by 2rd + r(r-1)/2 = 9 and 13
        monkeypatch.setattr(cli, "MAX_SWEEP_SIZE", 22)
        assert run(capsys, "verify", "--r-max", "2", "--d-max", "3")[0] == 0
        monkeypatch.setattr(cli, "MAX_SWEEP_SIZE", 21)
        code, out, err = run(capsys, "verify", "--r-max", "2", "--d-max", "3")
        assert (code, out) == (2, "") and "may build 22 vertices and edges" in err

    def test_size_bound_is_the_sum_over_the_sweep(self):
        # the closed form is the sum of 2rd + r(r-1)/2 over the sweep's pairs,
        # and that term bounds each graph's vertices plus edges
        for d in range(2, 301):
            for r in range(2, d + 1):
                assert resolution.graph_size(r, d) <= 2 * r * d + r * (r - 1) // 2, (r, d)
        for d_max in range(2, 41):
            for r_max in range(2, d_max + 1):
                total = sum(2 * r * d + r * (r - 1) // 2
                            for r in range(2, r_max + 1) for d in range(r, d_max + 1))
                assert cli._sweep_size_bound(r_max, d_max) == total, (r_max, d_max)

    def test_fault_in_the_run_walk_is_caught(self, capsys, monkeypatch):
        # the closed forms read a wrong run walk, the unchecked loop behind
        # hj_summary; the oracle's graphs take their arms from hj_expand, so
        # every star pair mismatches, and so does every node with d even,
        # which takes the star forms
        def wrong(alpha, beta):
            lam, total = _run_walk(alpha, beta)
            return lam + 1, total + 2

        monkeypatch.setattr(local, "_run_walk", wrong)
        stars = [(2, 2), (2, 4), (2, 6), (2, 8),
                 (3, 3), (3, 5), (3, 6), (3, 8), (4, 4), (4, 6), (4, 7), (4, 8)]
        code, out, _ = run(capsys, "verify", "--r-max", "4", "--d-max", "8")
        assert code == 1
        assert out.splitlines() == ["  r   d  coeffs  dci  dcii"] + [
            f"{r:3d} {d:3d}  True   True False" for r, d in stars]
        code, out, _ = run(capsys, "verify", "--r-max", "4", "--d-max", "8", "--json")
        assert code == 1 and json.loads(out)["mismatches"] == len(stars)


class TestCatalogCommand:
    def test_lists_entries(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert out == (
            "hesse                        d=12, t_2=12, t_4=9, q=3\n"
            "ceva --m M (M>=2)            d=3M; M=3: t_3=12; else t_3=M^2, t_M=3; "
            "q=2 if 3|M else 1\n"
            "braid --n N (N>=2)           d=N(N+1)/2, t_3=C(N+1,3), t_2=(N+1)N(N-1)(N-2)/8; "
            "q=1 if N in {2,3} else 0\n"
            "pencil --d D (D>=2)          t_D=1\n"
            "near-pencil --d D (D>=3)     t_{D-1}=1, t_2=D-1\n"
            "generic --d D (D>=2)         t_2=C(D,2)\n"
        )


# --- arbitrary argv: every call ends in an exit code, never in a traceback ---

FILES = {"good.txt": b"1 0 0\n0 1 0\n0 0 1\n1 1 1\n", "bad.txt": b"1 2\n",
         "latin1.txt": b"1 0 0\n\xff 1 0\n0 0 1\n"}
PATHS = [*FILES, "missing.txt", "folder", "out.dot"]
SMALL = st.integers(-5, 60).map(str)
# --r and --d are also prefixes of verify's --r-max and --d-max
SWEEP = st.integers(-5, 12).map(str)
FLAG_VALUES = {
    "--input": st.sampled_from(PATHS), "--dot": st.sampled_from(PATHS),
    "--catalog": st.sampled_from([*CATALOG, "nope"]),
    "--format": st.sampled_from(["json", "table", "csv"]),
    "--t": st.one_of(SMALL, st.builds("{}={}".format, SMALL, SMALL)),
    "--d": SWEEP, "--r": SWEEP, "--r-max": SWEEP, "--d-max": SWEEP,
    "--m": SMALL, "--n": SMALL, "--q": SMALL,
}
BARE_FLAGS = ["--profile", "--json", "--version", "--help"]
# each subcommand's required flags, then its other flags
SUBCOMMANDS = {
    "invariants": ((), ("--input", "--profile", "--catalog", "--d", "--t", "--m", "--n", "--q",
                        "--format")),
    "graph": (("--r", "--d"), ("--dot",)), "local": (("--r", "--d"), ()),
    "verify": (("--r-max", "--d-max"), ("--json",)), "catalog": ((), ()),
}
# no digits, so no token parses as a large integer (verify's cap still admits
# sweeps of several seconds, and --r and --d abbreviate its bounds), and no
# path separator, so a token taken as a path names a file in the working
# directory; a NUL names none
JUNK = st.text(st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="/\\"),
               max_size=8)


def _flag(flag):
    """The flag and, unless it is bare, a value for it."""
    if flag in BARE_FLAGS:
        return st.just([flag])
    return FLAG_VALUES[flag].map(lambda value: [flag, value])


ANY_TOKEN = st.one_of(
    st.sampled_from(sorted(FLAG_VALUES) + BARE_FLAGS).flatmap(_flag),
    st.sampled_from([*SUBCOMMANDS, *FLAG_VALUES]).map(lambda word: [word]),
    SMALL.map(lambda value: [value]),
    JUNK.map(lambda text: [text]),
)


def _argv(command):
    """The subcommand with its required flags, then mostly its own flags: one
    token in sixteen is any other token, which argparse mostly refuses."""
    required, optional = SUBCOMMANDS[command]
    flags = required + optional
    own = st.sampled_from(flags).flatmap(_flag) if flags else st.just([])
    return st.builds(lambda head, rest: [command, *chain.from_iterable(head + rest)],
                     st.tuples(*map(_flag, required)).map(list),
                     st.lists(st.one_of(*[own] * 15, ANY_TOKEN), max_size=6))


ARGVS = st.one_of(*[st.sampled_from(list(SUBCOMMANDS)).flatmap(_argv)] * 7,
                  st.lists(ANY_TOKEN, max_size=6).map(lambda groups: list(chain.from_iterable(groups))))


# each example rewrites the files it may read, so the shared directory is safe
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ARGVS)
def test_arbitrary_argv_ends_in_an_exit_code(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "folder").mkdir(exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help, --version or a usage error
            assert exc.code in (0, 2), (argv, err.getvalue())
            return
    assert code in (0, 1, 2, 3), (argv, err.getvalue())


# --- python -O keeps every check ---

ENTRY = "import sys; from linesurf.cli import main; sys.exit(main())"


def _cli_process(*argv, optimize=False):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-c", ENTRY, *argv], env=env,
                          capture_output=True)


def test_checks_survive_python_O():
    # the pair-count check lives in Profile.__init__, not in an assert
    proc = _cli_process("invariants", "--profile", "--d", "6", "--t", "2=3", optimize=True)
    assert proc.returncode == 2 and proc.stderr.startswith(b"UnbalancedProfile: ")
    argv = ("invariants", "--catalog", "hesse", "--format", "json")
    plain, optimized = _cli_process(*argv), _cli_process(*argv, optimize=True)
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout and b'"c1_sq": 336' in plain.stdout


def test_closed_stdout_ends_quietly():
    # 175 KB of output overflows any pipe buffer, so the write after the
    # reader closes its end raises BrokenPipeError in main
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, "local", "--r", "2", "--d", "50001"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
