"""Span recorder that times calls into linesurf's public functions from outside.

A traced run wraps each function listed in ``LAYERS`` with a recorder that
stores one span per call: name, start, end, parent span and a small attribute
dict.  Calls between modules go through the names that each module imports
with ``from .x import y``, so ``patch`` rebinds every module attribute that is
the original function, in every loaded ``linesurf`` module.  Spans stay in
memory; ``self_times`` and ``layer_metrics`` reduce them once the run ends.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import comb
from time import perf_counter

# The layers are the modules of the package; each lists the public functions
# whose calls are recorded.
LAYERS = {
    "arrangement": ("parse_arrangement", "profile_of", "validate_profile", "catalog_profile"),
    "hjcf": ("hj_expand",),
    "resolution": ("weight_data", "build_resolution_graph", "intersection_matrix",
                   "check_negative_definite"),
    "local": ("local_invariants", "canonical_coefficients"),
    "verify": ("sweep_verify", "solve_exact", "coefficients_from_matrix",
               "local_invariants_from_graph"),
    "surface": ("base_invariants", "chern_numbers", "my_tilde", "global_invariants",
                "verdict", "hodge_diamond", "chern_ratio_analysis"),
    "cli": ("main",),
}

SHAPES = ("chain", "star", "blown_down_star")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    attrs: dict = field(default_factory=dict)


class Recorder:
    """Collects spans for one traced run; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, {} if attrs is None else attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            _observe(self.spans[index], args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def _observe(span: Span, args, result) -> None:
    """Keep the O(1) facts the per-layer counts need; graphs and solutions
    are kept by reference and measured after the run.  A call that raised
    has no result, and its span carries no facts."""
    name, attrs = span.name, span.attrs
    if name in ("verify.coefficients_from_matrix", "verify.local_invariants_from_graph",
                "resolution.intersection_matrix"):
        attrs["shape"] = args[0].shape
    if name == "resolution.intersection_matrix":
        attrs["n"] = len(result)
    elif name == "resolution.build_resolution_graph":
        attrs["graph"] = result
    elif name == "verify.solve_exact":
        attrs["solution"] = result
    elif name == "hjcf.hj_expand":
        attrs["terms"] = len(result.terms)
    elif name == "local.local_invariants":
        attrs["rd"] = (args[0], args[1])
    elif name == "arrangement.parse_arrangement":
        attrs["d"] = result.d
    elif name == "arrangement.profile_of":
        attrs["points"] = sum(count for _, count in result.t)


def patch(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Rebind every binding of every listed function to a recording wrapper.

    Returns the (module, attribute, original) triples that ``unpatch`` needs.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "linesurf" or name.startswith("linesurf."))]
    originals = {}
    for layer, names in LAYERS.items():
        module = sys.modules.get(f"linesurf.{layer}")
        if module is None:  # linesurf.cli is imported only by the cli workload
            continue
        for fname in names:
            originals[id(getattr(module, fname))] = (f"{layer}.{fname}", getattr(module, fname))
    wrappers = {key: recorder.wrap(name, fn) for key, (name, fn) in originals.items()}
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and originals[id(value)][1] is value:
                setattr(module, attr, wrappers[id(value)])
                patched.append((module, attr, value))
    return patched


def unpatch(patched) -> None:
    for module, attr, original in patched:
        setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def shape_of(spans: list[Span], index: int) -> str | None:
    """The shape recorded on the span or its nearest ancestor that has one."""
    while index >= 0:
        shape = spans[index].attrs.get("shape")
        if shape is not None:
            return shape
        index = spans[index].parent
    return None


def _bits(solution) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in solution), default=0)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce the spans to the per-layer metrics the benchmark reports.

    Every metric is present; a layer the workload never calls reports 0.
    """
    own = self_times(spans)
    m: dict[str, float] = {}
    for prefix in ("verify.solve_exact", "resolution.check_negative_definite"):
        for shape in SHAPES:
            m[f"{prefix}.self_s.{shape}"] = 0.0
    for key in ("verify.coefficients_from_matrix.calls", "resolution.intersection_matrix.calls",
                "resolution.matrix_entries", "resolution.vertices", "resolution.edges",
                "verify.max_result_bits", "local.local_invariants.calls",
                "local.local_invariants.self_s", "local.local_invariants.distinct_share",
                "surface.chern_numbers.calls", "surface.base_invariants.calls",
                "surface.global_invariants.total_s", "surface.verdict.total_s",
                "surface.hodge_diamond.total_s", "surface.chern_ratio_analysis.total_s",
                "hjcf.hj_expand.calls", "hjcf.hj_expand.self_s", "hjcf.terms",
                "arrangement.parse_arrangement.self_s", "arrangement.profile_of.self_s",
                "arrangement.line_pairs", "arrangement.points"):
        m[key] = 0
    distinct = set()
    for i, span in enumerate(spans):
        name, attrs = span.name, span.attrs
        if name in ("verify.solve_exact", "resolution.check_negative_definite"):
            shape = shape_of(spans, i)
            if shape in SHAPES:
                m[f"{name}.self_s.{shape}"] += own[i]
            if name == "verify.solve_exact":
                m["verify.max_result_bits"] = max(m["verify.max_result_bits"],
                                                  _bits(attrs.get("solution", ())))
        elif name == "verify.coefficients_from_matrix":
            m[f"{name}.calls"] += 1
        elif name == "resolution.intersection_matrix":
            m[f"{name}.calls"] += 1
            m["resolution.matrix_entries"] += attrs.get("n", 0) ** 2
        elif name == "resolution.build_resolution_graph":
            graph = attrs.get("graph")
            if graph is not None:
                m["resolution.vertices"] += graph.vertex_count
                m["resolution.edges"] += len(graph.edge_list())
        elif name == "local.local_invariants":
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += own[i]
            if "rd" in attrs:
                distinct.add(attrs["rd"])
        elif name in ("surface.chern_numbers", "surface.base_invariants"):
            m[f"{name}.calls"] += 1
        elif name in ("surface.global_invariants", "surface.verdict",
                      "surface.hodge_diamond", "surface.chern_ratio_analysis"):
            m[f"{name}.total_s"] += span.end - span.start
        elif name == "hjcf.hj_expand":
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += own[i]
            m["hjcf.terms"] += attrs.get("terms", 0)
        elif name == "arrangement.parse_arrangement":
            m[f"{name}.self_s"] += own[i]
            m["arrangement.line_pairs"] += comb(attrs.get("d", 0), 2)
        elif name == "arrangement.profile_of":
            m[f"{name}.self_s"] += own[i]
            m["arrangement.points"] += attrs.get("points", 0)
    calls = m["local.local_invariants.calls"]
    m["local.local_invariants.distinct_share"] = len(distinct) / calls if calls else 0
    return m
