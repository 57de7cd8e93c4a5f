"""Outside-in layer tracing: spans and counts around okbodies' public
functions, installed from the benchmark without editing the program.

Each listed function is replaced by a wrapper in every `okbodies.*`
namespace that holds the original object (modules bind many of them with
`from ... import`), and methods are replaced on their class.  A wrapper
records a span (name, op id, parent span, start, end) and, for some
layers, counts derived from the call's arguments and return value.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Dict, List

from okbodies.simplex import INFEASIBLE

# (module, qualified name, stats reported, the end-to-end metric a change
# to the layer should move).  `calls`, `total_s` (inclusive) and `self_s`
# (exclusive) come from spans; the other stats are counts.
LAYERS = [
    ("simplex", "solve_raw", ("calls", "self_s", "cells", "infeasible"),
     "wall_s on curve-ladder, then toric and corpus; calls stay 0 on rank-sweep"),
    ("linalg", "solve_square", ("calls", "self_s"), "wall_s on curve-ladder, then corpus"),
    ("linalg", "nullspace", ("calls", "self_s"), "wall_s on curve-ladder, then corpus"),
    ("parametric", "parametric_value_function",
     ("calls", "self_s", "total_s", "lps", "breakpoints"),
     "wall_s and op_s.max on curve-ladder"),
    ("linsys", "minimal_element", ("calls", "total_s", "lps"), "wall_s on curve-ladder"),
    ("linsys", "member", ("calls",), "none; reported for completeness"),
    ("curves", "tropical_body_parametric", ("calls", "total_s"),
     "op_s.max on corpus, wall_s on curve-ladder"),
    ("curves", "arakelov_body_parametric", ("calls", "total_s"),
     "op_s.max on corpus, wall_s on curve-ladder"),
    ("curves", "tropical_body_projection", ("calls", "total_s"), "op_s.max on corpus"),
    ("curves", "arakelov_body_projection", ("calls", "total_s"), "op_s.max on corpus"),
    ("curves", "cross_verify", ("calls", "total_s"), "op_s.max on corpus"),
    ("curves", "compute_body", ("calls", "total_s"),
     "op_s.max on corpus, wall_s on curve-ladder"),
    ("polyhedra", "fm_eliminate",
     ("calls", "total_s", "rows_generated", "rows_kept", "lps"),
     "wall_s on corpus and toric; calls stay 0 on curve-ladder"),
    ("polyhedra", "enumerate_v_rep", ("calls", "total_s", "subsets", "vertices"),
     "wall_s on toric and corpus"),
    ("polyhedra", "canonicalize_vrep", ("calls", "total_s"), "op_s.max on toric"),
    ("polyhedra", "vrep_equal", ("calls", "total_s"), "op_s.max on toric"),
    ("polyhedra", "VPolyhedron.contains", ("calls", "total_s", "true"), "op_s.max on toric"),
    ("toric", "toric_body_vertexmap", ("calls", "total_s"), "wall_s and op_s.max on toric"),
    ("toric", "toric_body_projection", ("calls", "total_s"), "wall_s and op_s.max on toric"),
    ("toric", "lattice_point_count", ("calls", "total_s"), "wall_s and op_s.max on toric"),
    ("toric", "monomial_valuation", ("calls", "total_s"), "wall_s and op_s.max on toric"),
    ("toric", "build_generic_polytope", ("calls", "total_s"), "wall_s and op_s.max on toric"),
    ("rank", "q_reduced", ("calls", "self_s"),
     "wall_s, op_s.p50 and op_s.max on rank-sweep only"),
    ("rank", "has_nonnegative_rank", ("calls", "self_s"),
     "wall_s, op_s.p50 and op_s.max on rank-sweep only"),
    ("jobs", "parse_job", ("calls", "self_s", "total_s"),
     "op_s.p50 on rank-sweep and setup_s; calls stay 0 on curve-ladder"),
    ("jobs", "run_job", ("calls", "self_s", "total_s"), "op_s.p50 on rank-sweep"),
    ("cli", "main", ("calls", "total_s"), "wall_s on corpus"),
    ("svgplot", "render_svg", ("calls", "total_s"), "wall_s on corpus"),
]

# Ratios of two counts, each reported with its base: name -> (count, base).
RATIOS = {
    "ratio.lps_per_breakpoint": ("parametric.parametric_value_function.lps",
                                 "parametric.parametric_value_function.breakpoints"),
    "ratio.rows_kept_per_generated": ("polyhedra.fm_eliminate.rows_kept",
                                      "polyhedra.fm_eliminate.rows_generated"),
    "ratio.vertices_per_subset": ("polyhedra.enumerate_v_rep.vertices",
                                  "polyhedra.enumerate_v_rep.subsets"),
    "ratio.q_reduced_per_rank_job": ("rank.q_reduced.calls",
                                     "rank.has_nonnegative_rank.calls"),
    "ratio.build_generic_polytope_per_valuation": (
        "toric.monomial_valuation.build_generic_polytope",
        "toric.monomial_valuation.calls"),
}

# Counts of spans of one layer nested under another: (ancestor, descendant,
# stat, direct children only).
NESTED = [
    ("parametric.parametric_value_function", "simplex.solve_raw", "lps", False),
    ("linsys.minimal_element", "simplex.solve_raw", "lps", False),
    ("polyhedra.fm_eliminate", "simplex.solve_raw", "lps", False),
    ("polyhedra.enumerate_v_rep", "linalg.solve_square", "subsets", True),
    ("toric.monomial_valuation", "toric.build_generic_polytope",
     "build_generic_polytope", False),
]


def layer_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{layer_name(m, q)}.{s}" for m, q, stats, _ in LAYERS for s in stats]
    names += list(RATIOS)
    names += ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
              "trace.unwrapped_s", "trace.spans"]
    return names


def _solve_raw_counts(args, kwargs, result) -> dict:
    constraints, objective = args[0], args[1]
    m, n = len(constraints), len(objective)
    return {"cells": m * (2 * n + 2 * m + 1),
            "infeasible": int(result.status == INFEASIBLE)}


def _fm_counts(args, kwargs, result) -> dict:
    p, var = args[0], args[1]
    zero = lower = upper = 0
    for a, _ in p.constraints:
        c = a[var]
        if c == 0:
            zero += 1
        elif c > 0:
            lower += 1
        else:
            upper += 1
    return {"rows_generated": zero + lower * upper,
            "rows_kept": len(result.constraints)}


DERIVED = {
    "simplex.solve_raw": _solve_raw_counts,
    "polyhedra.fm_eliminate": _fm_counts,
    "polyhedra.enumerate_v_rep":
        lambda a, k, r: {"vertices": len(r.vertices)},
    "parametric.parametric_value_function":
        lambda a, k, r: {"breakpoints": len(r.function.breakpoints)},
    "polyhedra.VPolyhedron.contains": lambda a, k, r: {"true": int(r is True)},
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s", "counts")

    def __init__(self, name, op, parent, start):
        self.name, self.op, self.parent, self.start = name, op, parent, start
        self.end = None
        self.child_s = 0.0
        self.counts = None


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op = None
        self._stack: List[int] = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, derive = self.spans, self._stack, DERIVED.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if derive is not None:
                span.counts = derive(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def __enter__(self):
        for module, *_ in LAYERS:
            importlib.import_module(f"okbodies.{module}")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "okbodies" or n.startswith("okbodies."))]
        for module, qualname, *_ in LAYERS:
            mod = sys.modules[f"okbodies.{module}"]
            name = layer_name(module, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig))
                continue
            orig = getattr(mod, qualname)
            wrapper = self._wrap(name, orig)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._undo.append((ns, key, orig))
                        setattr(ns, key, wrapper)
        return self

    def __exit__(self, *exc):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()
        return False

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to one pass."""
        return len(self.spans)

    def summarize(self, first: int, wall_s: float) -> Dict[str, float]:
        """Per-layer stats of spans[first:], recorded over a pass of wall_s."""
        spans = self.spans[first:]
        out: Dict[str, float] = defaultdict(float)
        for module, qualname, stats, _ in LAYERS:
            base = layer_name(module, qualname)
            for s in stats:
                out[f"{base}.{s}"] = 0
        out["toric.monomial_valuation.build_generic_polytope"] = 0
        root_s = 0.0
        for span in spans:
            dur = span.end - span.start
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.total_s"] += dur
            out[f"{span.name}.self_s"] += dur - span.child_s
            if span.parent < first:
                root_s += dur
            for key, value in (span.counts or {}).items():
                out[f"{span.name}.{key}"] += value
        for ancestor, descendant, stat, direct in NESTED:
            for span in spans:
                if span.name != descendant:
                    continue
                up = span.parent
                while up >= first:
                    if self.spans[up].name == ancestor:
                        out[f"{ancestor}.{stat}"] += 1
                        break
                    if direct:
                        break
                    up = self.spans[up].parent
        for ratio, (count, base) in RATIOS.items():
            out[ratio] = out[count] / out[base] if out[base] else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.unwrapped_s"] = wall_s - root_s
        out["trace.spans"] = len(spans)
        return dict(out)

    def self_time_sum(self, first: int) -> float:
        """Self time summed over every span of spans[first:]."""
        return sum(s.end - s.start - s.child_s for s in self.spans[first:])

    def dump(self, first: int) -> List[list]:
        """spans[first:] as [name, op, parent, start, end] rows, with span
        indices and times relative to the first span."""
        if first >= len(self.spans):
            return []
        t0 = self.spans[first].start
        return [[s.name, s.op, s.parent - first if s.parent >= first else -1,
                 round(s.start - t0, 7), round(s.end - t0, 7)]
                for s in self.spans[first:]]

