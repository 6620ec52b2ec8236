"""Checks on the package source itself."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_no_assert_statements():
    # python -O strips assert statements; internal checks raise
    # InternalCheckError instead, so they run under every flag
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert list(SRC.rglob("*.py")), SRC
    assert not found, found


def test_traced_layers_exist():
    # the benchmark's span recorder looks up every function named in its
    # LAYERS table with getattr, so a removed or renamed one breaks each
    # traced run; the table is read as a literal, without importing it
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    layers, = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(target, "id", None) for target in node.targets] == ["LAYERS"]]
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"linesurf.{layer}"), name, None))]
    assert layers and not missing, missing


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each linesurf call is a fresh process: dataclasses costs about 12 ms at
    # import, most of it for inspect, so the records are plain classes
    code = ("import sys, linesurf.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_named_scripts_exist():
    # CI and the README name scripts by path; one deleted or renamed without
    # them would fail only on the CI runner, or mislead a reader
    named = {name for path in (ROOT / ".github" / "workflows" / "ci.yml", ROOT / "README.md")
             for name in re.findall(r"scripts/([\w-]+\.py)", path.read_text(encoding="utf-8"))}
    missing = sorted(name for name in named if not (ROOT / "scripts" / name).is_file())
    assert named and not missing, missing
