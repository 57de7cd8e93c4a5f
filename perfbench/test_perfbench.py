"""Checks on the benchmark itself: the tracer sees every call site, its
self times account for the whole traced pass, bypassed layers stay at
zero, and tracing changes no result.

    python3 -m pytest -q perfbench

Each workload runs a short prefix of its op list, so the suite takes
about 30 s.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

# Short, cheap prefixes of each workload's op list (names in pass order).
PREFIX = {
    "corpus": 8,        # every job but the slow random sweep and toric-d2
    "curve-ladder": 4,  # n = 4 and 6
    "toric": 3,         # the d = 1 jobs
    "rank-sweep": 48,   # the n = 8 graph
}
SEED = 1


def _prefix(name, tmp_path):
    wl = workloads.WORKLOADS[name](SEED, str(tmp_path))
    ops = [op for op in wl.ops
           if op.name not in ("verify-random-curves", "toric-d2-square")]
    wl.ops = ops[:PREFIX[name]]
    return wl


@pytest.fixture(scope="module", params=sorted(PREFIX))
def traced_pair(request, tmp_path_factory):
    """(workload, untraced pass, traced pass, tracer, first span)."""
    wl = _prefix(request.param, tmp_path_factory.mktemp(request.param))
    untraced = run.run_pass(wl)
    with tr.Tracer() as tracer:
        first = tracer.mark()
        traced = run.run_pass(wl, tracer)
    return wl, untraced, traced, tracer, first


def test_wrappers_replace_every_binding_and_are_removed():
    import okbodies  # noqa: F401  (loads every module)
    import okbodies.cli  # noqa: F401

    def bindings():
        found = {}
        for modname, mod in sys.modules.items():
            if mod is None or not (modname == "okbodies" or modname.startswith("okbodies.")):
                continue
            for key, value in vars(mod).items():
                if callable(value):
                    found[(modname, key)] = value
        return found

    before = bindings()
    originals = {}
    for module, qualname, *_ in tr.LAYERS:
        mod = sys.modules[f"okbodies.{module}"]
        if "." in qualname:
            cls, attr = qualname.split(".")
            originals[id(getattr(mod, cls).__dict__[attr])] = qualname
        else:
            originals[id(getattr(mod, qualname))] = qualname
    with tr.Tracer():
        during = bindings()
        stale = [k for k, v in during.items() if id(v) in originals]
        assert stale == []
        # names bound with `from ... import` in another module
        for modname, attr in [("okbodies.curves", "enumerate_v_rep"),
                              ("okbodies.curves", "minimal_element"),
                              ("okbodies.curves", "parametric_value_function"),
                              ("okbodies.toric", "enumerate_v_rep"),
                              ("okbodies.cli", "render_svg")]:
            assert hasattr(getattr(sys.modules[modname], attr), "__wrapped__")
        from okbodies.polyhedra import VPolyhedron
        assert hasattr(VPolyhedron.__dict__["contains"], "__wrapped__")
    assert bindings() == before


def test_self_times_and_remainder_add_up_to_wall(traced_pair):
    wl, _, traced, tracer, first = traced_pair
    layers = tracer.summarize(first, traced["wall_s"])
    self_sum = tracer.self_time_sum(first)
    assert layers["trace.unwrapped_s"] >= 0
    assert self_sum + layers["trace.unwrapped_s"] == pytest.approx(traced["wall_s"], abs=1e-6)
    assert all(s.end - s.start - s.child_s >= -1e-9 for s in tracer.spans[first:])
    assert layers["trace.spans"] > 0


def test_bypassed_layers_read_zero_calls(traced_pair):
    wl, _, traced, tracer, first = traced_pair
    layers = tracer.summarize(first, traced["wall_s"])
    for name in workloads.BYPASSED[wl.name]:
        assert layers[f"{name}.calls"] == 0, name


def test_tracing_changes_no_result(traced_pair):
    wl, untraced, traced, _, _ = traced_pair
    assert untraced["problems"] == {} and traced["problems"] == {}
    assert traced["digests"] == untraced["digests"]
    assert len(traced["digests"]) == len(wl.ops)


def test_results_match_reference_digests(traced_pair):
    wl, untraced, _, _, _ = traced_pair
    with open(os.path.join(HERE, "digests.json")) as fh:
        reference = json.load(fh)[wl.name][str(SEED)]
    for name, digest in untraced["digests"].items():
        assert reference[name] == digest, name


def test_both_curve_routes_agree_up_to_n6():
    """The dual-route check a run makes for n = 4, extended to n = 6."""
    for name, cjob in workloads._curve_jobs(SEED, (4, 6)):
        report = workloads.curves.cross_verify(cjob)
        assert report.agree, (name, report.first_disagreement)


def test_every_declared_metric_is_reported(traced_pair):
    _, _, traced, tracer, first = traced_pair
    layers = tracer.summarize(first, traced["wall_s"])
    missing = [m for m in tr.metric_names()
               if m not in layers and m not in ("trace.untraced_wall_s", "trace.overhead_s")]
    assert missing == []
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert declared == tr.metric_names()
