"""Checks on the package source itself."""

import ast
import importlib
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


def _decorator_name(node) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_dataclasses_are_the_checked_or_vars_read_records():
    # per-call records are NamedTuples: a frozen dataclass sets each field
    # through object.__setattr__, several times the cost of a tuple.  Only
    # records that validate themselves (Line, Arrangement, Profile) or whose
    # vars() the benchmark digests (GlobalInvariants, Verdict) stay dataclasses
    found = {node.name for path in SRC.rglob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
             if isinstance(node, ast.ClassDef)
             and "dataclass" in map(_decorator_name, node.decorator_list)}
    assert found == {"Line", "Arrangement", "Profile", "GlobalInvariants", "Verdict"}
