import dataclasses
import json
import os
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

import okbodies
from okbodies import curves, jobs, linalg, toric
from okbodies.cli import main
from okbodies.errors import (BadRational, ConsistencyError, NonIntegerDivisor,
                             SchemaError)
from okbodies.jobs import _body_doc, parse_job, run_job
from okbodies.plf import PiecewiseLinearFunction
from okbodies.polyhedra import VPolyhedron

JOBS = os.path.join(os.path.dirname(__file__), "..", "jobs")


def jobpath(name):
    return os.path.join(JOBS, name)


def run(argv):
    return main(argv)


def read_result(path):
    with open(path) as fh:
        return json.load(fh)


def test_quartic_tropical_job(tmp_path):
    out = tmp_path / "r.json"
    assert run(["curve-body", "tropical", "--input", jobpath("quartic-tropical.json"),
                "--output", str(out)]) == 0
    doc = read_result(out)
    assert doc["canonical"]["result"]["lower"]["breakpoints"] == [
        [0, 0], [2, 0], [4, "1/2"]]
    assert doc["canonical"]["result"]["recession"] == [0, 1]


def test_quartic_arakelov_job(tmp_path):
    out = tmp_path / "r.json"
    assert run(["curve-body", "arakelov", "--input", jobpath("quartic-arakelov.json"),
                "--output", str(out)]) == 0
    upper = read_result(out)["canonical"]["result"]["upper"]
    assert upper["breakpoints"] == [[0, 2], ["1/2", 4]]
    assert upper["tail_slope"] == 0


def test_rank_job_trivial_false(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "kind": "rank",
        "payload": {"graph": {"vertices": ["a"], "edges": []},
                    "divisor": {"a": -1}},
    }))
    out = tmp_path / "r.json"
    assert run(["rank", "--input", str(job), "--output", str(out)]) == 0
    assert read_result(out)["canonical"]["result"]["rank_nonnegative"] is False


def test_empty_system_exit_code(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "kind": "linsys",
        "payload": {"op": "min",
                    "graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
                    "divisor": {"a": -3, "b": 1}},
    }))
    out = tmp_path / "r.json"
    assert run(["linsys", "min", "--input", str(job), "--output", str(out)]) == 2
    assert read_result(out)["canonical"]["status"] == "empty"


def test_kind_mismatch_is_an_error(tmp_path):
    assert run(["rank", "--input", jobpath("quartic-tropical.json")]) == 1


def test_schema_errors():
    with pytest.raises(SchemaError):
        parse_job("")
    with pytest.raises(SchemaError):
        parse_job("{}")
    with pytest.raises(SchemaError):
        parse_job(json.dumps({"kind": "rank", "payload": {}}))
    # four errors; the reported one is jsonschema's best match
    several = {"kind": "rank",
               "payload": {"graph": {"vertices": [], "edges": [["a"]]},
                           "divisor": {"a": 0.5}, "bogus": 1}}
    with pytest.raises(SchemaError) as info:
        parse_job(json.dumps(several))
    assert str(info.value) == (
        "at payload: Additional properties are not allowed ('bogus' was unexpected)")


def test_bad_rational():
    doc = {"kind": "rank",
           "payload": {"graph": {"vertices": ["a"], "edges": []},
                       "divisor": {"a": "1/0"}}}
    with pytest.raises(BadRational):
        parse_job(json.dumps(doc))


@pytest.mark.parametrize("key, value", [("svg", "fig.svg"), ("seed", 1)])
def test_unread_options_refused(key, value):
    # --svg and --seed are command-line flags; the job's options do not take them
    with open(jobpath("quartic-rank.json")) as fh:
        doc = json.load(fh)
    doc["options"] = {key: value}
    with pytest.raises(SchemaError) as info:
        parse_job(json.dumps(doc))
    assert str(info.value) == (
        f"at options: Additional properties are not allowed ('{key}' was unexpected)")


def test_rank_job_needs_an_integer_divisor(tmp_path, capsys):
    # schema-valid, so not a SchemaError: the class rank.q_reduced raises
    doc = {"kind": "rank",
           "payload": {"graph": {"vertices": ["a"], "edges": []},
                       "divisor": {"a": "1/2"}}}
    with pytest.raises(NonIntegerDivisor):
        parse_job(json.dumps(doc))
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    assert run(["rank", "--input", str(job)]) == 1
    assert capsys.readouterr().err == "error: rank jobs need an integer divisor\n"


def test_float_coefficients_rejected():
    doc = {"kind": "rank",
           "payload": {"graph": {"vertices": ["a"], "edges": []},
                       "divisor": {"a": 0.5}}}
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))
    # a float is refused even where it equals an integer
    doc["payload"]["divisor"]["a"] = 1.0
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))
    with open(jobpath("toric-d1.json")) as fh:
        toric = json.load(fh)
    for path, value in [(("ambient_dim",), 1.0), (("generic_rays", 0, 0, 0), 1.0),
                        (("generic_rays", 0, 1), 0.0)]:
        doc = json.loads(json.dumps(toric))
        node = doc["payload"]["model"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(SchemaError):
            parse_job(json.dumps(doc))
    doc = {"kind": "verify", "payload": {"target": "random-curves", "count": 2.0}}
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))


def test_determinism_byte_for_byte():
    with open(jobpath("quartic-arakelov.json")) as fh:
        job = parse_job(fh.read())
    r1 = run_job(job)
    r2 = run_job(job)
    assert r1.canonical_bytes() == r2.canonical_bytes()


def test_echoed_job_round_trips():
    with open(jobpath("quartic-tropical.json")) as fh:
        job = parse_job(fh.read())
    result = run_job(job)
    echoed = parse_job(json.dumps(result.canonical()["job"]))
    assert echoed == job


def test_verify_jobs_pass(tmp_path):
    for name in ("verify-quartic-tropical.json", "verify-toric-d1.json"):
        out = tmp_path / "r.json"
        assert run(["verify", "--input", jobpath(name), "--output", str(out)]) == 0
        assert read_result(out)["canonical"]["result"]["pass"] is True


def test_svg_output(tmp_path):
    svg = tmp_path / "fig.svg"
    assert run(["curve-body", "tropical", "--input", jobpath("quartic-tropical.json"),
                "--output", str(tmp_path / "r.json"), "--svg", str(svg)]) == 0
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    text = svg.read_text()
    assert "(2, 0)" in text and "(4, 1/2)" in text


def test_toric_svg(tmp_path):
    svg = tmp_path / "fig.svg"
    assert run(["toric-body", "--input", jobpath("toric-d1.json"),
                "--output", str(tmp_path / "r.json"),
                "--svg", str(svg), "--window=-1,2,-1,3"]) == 0
    ET.parse(svg)


def test_bad_window(tmp_path):
    assert run(["curve-body", "tropical", "--input", jobpath("quartic-tropical.json"),
                "--svg", str(tmp_path / "f.svg"), "--window", "1,1,0,2"]) == 1
    assert not (tmp_path / "f.svg").exists()


def test_svg_needs_a_2d_body(tmp_path, capsys):
    svg = tmp_path / "fig.svg"
    assert run(["toric-body", "--input", jobpath("toric-d2-square.json"),
                "--output", str(tmp_path / "r.json"), "--svg", str(svg)]) == 1
    assert capsys.readouterr().err == (
        "error: --svg needs a 2-D body; this body is 3-D\n")
    assert not svg.exists()


def test_svg_of_an_empty_body(tmp_path):
    with open(jobpath("quartic-arakelov.json")) as fh:
        doc = json.load(fh)
    doc["payload"]["divisor"] = {v: -1 for v in doc["payload"]["divisor"]}
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    out, svg = tmp_path / "r.json", tmp_path / "fig.svg"
    assert run(["curve-body", "arakelov", "--input", str(job),
                "--output", str(out), "--svg", str(svg)]) == 2
    assert read_result(out)["canonical"]["status"] == "empty"
    assert not svg.exists()


def test_non_primitive_toric_ray(tmp_path, capsys):
    with open(jobpath("toric-d1.json")) as fh:
        doc = json.load(fh)
    doc["payload"]["model"]["generic_rays"][0][0] = [2]
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    assert run(["toric-body", "--input", str(job)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not primitive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("exc", [
    ConsistencyError("Farkas combination is not positive"),
    RuntimeError("parametric continuation did not terminate"),
    AssertionError("expected optimal at t=0, got infeasible"),
])
def test_internal_errors_exit_cleanly(tmp_path, monkeypatch, capsys, exc):
    import okbodies.jobs

    def boom(job, seed=None):
        raise exc

    monkeypatch.setattr(okbodies.jobs, "run_job", boom)
    out = tmp_path / "r.json"
    assert run(["curve-body", "tropical", "--input", jobpath("quartic-tropical.json"),
                "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(exc) in err
    assert "Traceback" not in err
    if not isinstance(exc, ConsistencyError):
        assert err.startswith("internal error: ")
    assert not out.exists()


def test_cross_check_names_the_first_disagreement(tmp_path, monkeypatch, capsys):
    # the parametric route's body with its breakpoint at t = 2 moved down
    parametric = curves._parametric_body

    def moved(job):
        body = parametric(job)
        (t0, v0), (t1, v1), rest = body.lower.breakpoints
        lower = PiecewiseLinearFunction(((t0, v0), (t1, v1 - 1), rest), shape="convex")
        return curves._overgraph(lower)

    monkeypatch.setattr(curves, "_parametric_body", moved)
    out = tmp_path / "r.json"
    assert run(["curve-body", "tropical", "--input", jobpath("quartic-tropical.json"),
                "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "least-element and parametric routes disagree: first disagreement at t = 2\n" in err
    assert "PLF" not in err
    assert not out.exists()


@pytest.mark.parametrize("payload", [
    {"target": "curve-body"},
    {"target": "rank"},
    {"target": "linsys"},
    {"target": "toric-body"},
    {"target": "curve-body", "graph": {"vertices": ["a"], "edges": []},
     "divisor": {"a": 1}, "flag": {}},
])
def test_verify_needs_its_targets_fields(tmp_path, capsys, payload):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"kind": "verify", "payload": payload}))
    assert run(["verify", "--input", str(job)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: at payload")
    assert "Traceback" not in err


def _verify_job(tmp_path, payload):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"kind": "verify", "payload": payload}))
    out = tmp_path / "r.json"
    code = run(["verify", "--input", str(job), "--output", str(out)])
    result = read_result(out)["canonical"]["result"]
    return code, [(c["name"], c["pass"], c["detail"]) for c in result["checks"]], result["pass"]


TRIANGLE = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}


def test_verify_linsys_nonempty(tmp_path):
    code, checks, ok = _verify_job(tmp_path, {
        "target": "linsys", "graph": TRIANGLE, "divisor": {"a": 2, "b": "-1/2", "c": 0}})
    assert (code, ok) == (0, True)
    assert checks == [("minimal-element-member", True, ""),
                      ("minimal-below-samples", True, ""),
                      ("pointwise-min-closure", True, "")]


def test_verify_linsys_empty(tmp_path):
    code, checks, ok = _verify_job(tmp_path, {
        "target": "linsys", "graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
        "divisor": {"a": -1, "b": 0}})
    assert (code, ok) == (0, True)
    assert checks == [("minimal-element", True, "empty system")]


@pytest.mark.parametrize("divisor, base, verdict", [
    ({"a": 2, "b": -1, "c": 0}, None, "True"),
    ({"a": 1, "b": -1, "c": 0}, "b", "False"),
])
def test_verify_rank(tmp_path, divisor, base, verdict):
    payload = {"target": "rank", "graph": TRIANGLE, "divisor": divisor}
    if base is not None:
        payload["base"] = base
    code, checks, ok = _verify_job(tmp_path, payload)
    assert (code, ok) == (0, True)
    assert checks == [("dhar-vs-class-enumeration", True,
                       f"dhar={verdict} oracle={verdict}")]


@pytest.mark.parametrize("breakpoints, at", [
    ([(0, 0), (2, 0), (4, 1)], 4),                     # a value differs
    ([(0, 0), (1, 0), (4, Fraction(1, 2))], 1),        # an abscissa differs
    ([(0, 0), (2, 0), (4, Fraction(1, 2)), (5, 2)], 5),  # one has more breakpoints
    # the same breakpoints, but only one function has a tail
    (PiecewiseLinearFunction(((0, 0), (2, 0), (4, Fraction(1, 2))), tail_slope=1,
                             shape="convex"), 4),
])
def test_verify_names_the_first_disagreement(tmp_path, monkeypatch, breakpoints, at):
    wrong = breakpoints
    if not isinstance(wrong, PiecewiseLinearFunction):
        wrong = PiecewiseLinearFunction(tuple(breakpoints), shape="convex")
    monkeypatch.setattr(curves, "tropical_body_projection", lambda job: wrong)
    path = jobpath("verify-quartic-tropical.json")
    with open(path) as fh:
        (cjob,) = parse_job(fh.read()).parsed
    report = curves.cross_verify(cjob)
    assert report.agree is False
    assert report.first_disagreement == at
    out = tmp_path / "r.json"
    assert run(["verify", "--input", path, "--output", str(out)]) == 1
    result = read_result(out)["canonical"]["result"]
    assert result["pass"] is False
    assert result["checks"][0] == {"name": "dual-algorithm", "pass": False,
                                   "detail": f"first disagreement at t = {at}"}



def test_run_job_gives_a_failing_verify_job_exit_code_1(monkeypatch):
    # the exit code belongs to the result, so a caller of run_job reads
    # the code the CLI returns
    path = jobpath("verify-quartic-tropical.json")
    with open(path) as fh:
        assert run_job(parse_job(fh.read())).exit_code == 0
    honest = curves.cross_verify
    monkeypatch.setattr(curves, "cross_verify", lambda job: dataclasses.replace(
        honest(job), agree=False, first_disagreement=Fraction(1)))
    with open(path) as fh:
        result = run_job(parse_job(fh.read()))
    assert result.result["pass"] is False
    assert result.exit_code == 1

def _ladder_doc(n, flag):
    """The size-ladder curve job: C_n plus n//2 chords drawn with
    random.Random(1), Lam(v) in [0, 3] from the same generator, flag
    vertex v0, Lam1 = (v0).  Each n draws from a fresh generator, so these
    are not the graphs of perfbench/workloads._curve_jobs, which draws its
    rungs from one generator in turn."""
    rng = random.Random(1)
    names = [f"v{i}" for i in range(n)]
    edges = [[names[i], names[(i + 1) % n]] for i in range(n)]
    for _ in range(n // 2):
        a, b = rng.sample(range(n), 2)
        edges.append([names[a], names[b]])
    values = [rng.randint(0, 3) for _ in names]
    if not any(values):
        values[0] = 1
    fdoc = {"type": flag, "vertex": "v0"}
    if flag == "tropical":
        fdoc["y1"] = {v: int(v == "v0") for v in names}
    return {"kind": "curve-body", "payload": {
        "graph": {"vertices": names, "edges": edges},
        "divisor": dict(zip(names, values)), "flag": fdoc}}


@pytest.mark.parametrize("flag", ["tropical", "arakelov"])
def test_curve_body_on_the_n30_ladder(tmp_path, flag):
    # the default cross-check is the parametric LP, not Fourier-Motzkin, so
    # 30 vertices finish; the result is the parametric route's body
    doc = _ladder_doc(30, flag)
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert run(["curve-body", flag, "--input", str(job), "--output", str(out)]) == 0
    (cjob,) = parse_job(json.dumps(doc)).parsed
    assert read_result(out)["canonical"]["result"] == _body_doc(curves._parametric_body(cjob))


@pytest.mark.parametrize("flag", ["tropical", "arakelov"])
def test_curve_body_on_the_n60_ladder(tmp_path, flag):
    # the parametric cross-check continues one tableau along the family, so
    # 60 vertices finish in seconds; exit 0 means the two routes agreed
    doc = _ladder_doc(60, flag)
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert run(["curve-body", flag, "--input", str(job), "--output", str(out)]) == 0
    (cjob,) = parse_job(json.dumps(doc)).parsed
    assert read_result(out)["canonical"]["result"] == _body_doc(curves.combinatorial_body(cjob))


def _verify_doc(n, flag):
    doc = _ladder_doc(n, flag)
    doc["kind"] = "verify"
    doc["payload"]["target"] = "curve-body"
    return doc


@pytest.mark.parametrize("flag", ["tropical", "arakelov"])
def test_verify_on_the_n30_ladder(tmp_path, flag):
    # n = 30 is the largest graph verify admits
    job = tmp_path / "job.json"
    job.write_text(json.dumps(_verify_doc(curves.VERIFY_MAX_VERTICES, flag)))
    out = tmp_path / "r.json"
    assert run(["verify", "--input", str(job), "--output", str(out)]) == 0
    result = read_result(out)["canonical"]["result"]
    assert result["pass"] is True
    assert [c["name"] for c in result["checks"]] == ["dual-algorithm", "recession-closure"]


def test_verify_refuses_graphs_over_the_projection_cap(tmp_path, capsys):
    n = curves.VERIFY_MAX_VERTICES + 1
    job = tmp_path / "job.json"
    job.write_text(json.dumps(_verify_doc(n, "arakelov")))
    out = tmp_path / "r.json"
    t0 = time.perf_counter()
    assert run(["verify", "--input", str(job), "--output", str(out)]) == 1
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"support-LP cross-check takes at most {curves.VERIFY_MAX_VERTICES} vertices" in err
    assert not out.exists()
    # the curve-body job itself is not capped
    doc = _ladder_doc(n, "arakelov")
    job.write_text(json.dumps(doc))
    assert run(["curve-body", "arakelov", "--input", str(job), "--output", str(out)]) == 0


def _cube_doc(d):
    """The toric-body job of the cube [-1, 1]^d with one vertical vertex
    at the origin, flagged by the coordinate rays and (0, ..., 0, 1)."""
    rays = []
    for i in range(d):
        e = [int(i == j) for j in range(d)]
        rays += [[e, 1], [[-x for x in e], 1]]
    flag = [[[int(i == j) for j in range(d)] + [0], 1] for i in range(d)]
    flag.append([[0] * d + [1], 0])
    return {"kind": "toric-body", "payload": {
        "model": {"ambient_dim": d, "generic_rays": rays,
                  "vertical_vertices": [[[0] * d, 0]]},
        "flag": {"rays": flag}}}


def test_verify_refuses_toric_models_over_the_walk_cap(tmp_path, capsys):
    d = jobs.TORIC_VERIFY_MAX_DIM + 1
    doc = _cube_doc(d)
    doc["kind"] = "verify"
    doc["payload"]["target"] = "toric-body"
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    t0 = time.perf_counter()
    assert run(["verify", "--input", str(job), "--output", str(out)]) == 1
    assert time.perf_counter() - t0 < 10
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"at most ambient dimension {jobs.TORIC_VERIFY_MAX_DIM}" in err
    assert not out.exists()
    # the toric-body job itself is not capped
    job.write_text(json.dumps(_cube_doc(d)))
    assert run(["toric-body", "--input", str(job), "--output", str(out)]) == 0


def test_toric_verify_validates_the_flag_once_per_walk(tmp_path, monkeypatch):
    # the walk visits 5 * 9^d monomials; flag validation (one det_int) runs
    # a fixed number of times per job, whatever d
    calls = []
    det_int = linalg.det_int

    def counted(matrix):
        calls.append(matrix)
        return det_int(matrix)

    monkeypatch.setattr(linalg, "det_int", counted)
    counts = {}
    for d in (1, 2, 3):
        doc = _cube_doc(d)
        doc["kind"] = "verify"
        doc["payload"]["target"] = "toric-body"
        job = tmp_path / "job.json"
        job.write_text(json.dumps(doc))
        calls.clear()
        assert run(["verify", "--input", str(job), "--output", str(tmp_path / "r.json")]) == 0
        counts[d] = len(calls)
    assert counts[1] == counts[2] == counts[3] < 9, counts


@pytest.mark.parametrize("wrong, detail", [
    (VPolyhedron([(0, 0), (1, 2)], [(0, 1)]),
     "first difference at vertex 1: vertex map (1, 2), projection (1, 1)"),
    (VPolyhedron([(0, 0), (1, 1)], [(0, 1), (1, 1)]),
     "first difference at ray 1: vertex map (1, 1), projection none"),
    (VPolyhedron([(0, 0)], [(0, 1)]),
     "first difference at vertex 1: vertex map none, projection (1, 1)"),
])
def test_toric_verify_names_the_first_difference(tmp_path, monkeypatch, wrong, detail):
    monkeypatch.setattr(toric, "toric_body_vertexmap", lambda model, flag: wrong)
    out = tmp_path / "r.json"
    assert run(["verify", "--input", jobpath("verify-toric-d1.json"),
                "--output", str(out)]) == 1
    result = read_result(out)["canonical"]["result"]
    assert result["pass"] is False
    assert result["checks"][0] == {"name": "vertexmap-vs-projection", "pass": False,
                                   "detail": detail}


def test_verify_refuses_rank_jobs_over_the_enumeration_bound(tmp_path, capsys):
    # 10 vertices, degree 100: C(109, 9) effective divisors, about 4e12
    names = [f"v{i}" for i in range(10)]
    doc = {"kind": "verify", "payload": {
        "target": "rank",
        "graph": {"vertices": names, "edges": [[a, b] for a, b in zip(names, names[1:])]},
        "divisor": {v: 100 * (v == "v0") for v in names}}}
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    t0 = time.perf_counter()
    assert run(["verify", "--input", str(job), "--output", str(out)]) == 1
    assert time.perf_counter() - t0 < 10
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"at most {jobs.RANK_VERIFY_MAX_DIVISORS} effective divisors" in err
    assert "has 4263421511271" in err
    assert not out.exists()


def _job_doc(name):
    with open(jobpath(name)) as fh:
        return json.load(fh)


def _write_job(tmp_path, doc):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    return str(job)


@pytest.mark.parametrize("argv, name, edit, message", [
    # without phi >= 0 there is no least element to find or shift by
    (["linsys", "min"], "path-linsys-min.json", ("payload", "effective", False),
     "at payload/effective: false is allowed only with op 'member', not 'min'"),
    (["linsys", "shift"], "path-linsys-shift.json", ("payload", "effective", False),
     "at payload/effective: false is allowed only with op 'member', not 'shift'"),
    # options.window is parsed with the job, --svg or not
    (["curve-body", "tropical"], "quartic-tropical.json", ("options", "window", ["x", 1, 2, 3]),
     "in options.window[0]: cannot parse rational 'x'"),
    (["curve-body", "tropical"], "quartic-tropical.json", ("options", "window", [3, 1, 2, 3]),
     "empty window: options.window needs x0 < x1 and y0 < y1"),
    (["linsys", "min"], "path-linsys-shift.json", None,
     "job op 'shift' does not match 'min'"),
    (["curve-body", "arakelov"], "quartic-tropical.json", None,
     "job flag type 'tropical' does not match 'arakelov'"),
    (["curve-body", "tropical", "--svg", "SVG", "--window", "0,1,2"],
     "quartic-tropical.json", None, "--window needs four rationals x0, x1, y0, y1"),
    (["rank"], None, None, "cannot read"),
], ids=["effective-min", "effective-shift", "window-not-rational", "window-empty",
        "op-mismatch", "flag-mismatch", "window-three-parts", "unreadable-input"])
def test_refused_jobs_exit_cleanly(tmp_path, capsys, argv, name, edit, message):
    job = str(tmp_path / "missing.json")
    if name is not None:
        doc = _job_doc(name)
        if edit is not None:
            section, key, value = edit
            doc[section][key] = value
        job = _write_job(tmp_path, doc)
    svg, out = tmp_path / "fig.svg", tmp_path / "r.json"
    argv = [str(svg) if a == "SVG" else a for a in argv]
    assert run(argv + ["--input", job, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists() and not svg.exists()


# every option that a subcommand does not take: --svg and --window draw a
# body, and --seed seeds verify's sampling
FOREIGN_OPTIONS = [
    (["linsys", "min"], "--svg"), (["linsys", "min"], "--window"),
    (["linsys", "min"], "--seed"), (["rank"], "--svg"), (["rank"], "--window"),
    (["rank"], "--seed"), (["curve-body", "tropical"], "--seed"),
    (["toric-body"], "--seed"), (["verify"], "--svg"), (["verify"], "--window"),
]


@pytest.mark.parametrize("argv, option", FOREIGN_OPTIONS,
                         ids=[f"{argv[0]}{option}" for argv, option in FOREIGN_OPTIONS])
def test_foreign_options_are_usage_errors(tmp_path, capsys, monkeypatch, argv, option):
    # refused while the arguments are parsed, with argparse's exit code 2,
    # before the job file is opened or anything is written
    def no_open(*args, **kwargs):
        raise AssertionError("the job file was opened")
    monkeypatch.setattr("okbodies.cli.open", no_open, raising=False)
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--input", jobpath("quartic-rank.json"), option, "1",
                    "--output", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {option} 1" in err
    # the usage line is the subcommand's, not the top-level one
    assert err.startswith(f"usage: okbodies {argv[0]} ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["rank", "--input", jobpath("quartic-rank.json"), "--output", "MISSING"],
    ["curve-body", "tropical", "--input", jobpath("quartic-tropical.json"), "--svg", "MISSING"],
], ids=["output", "svg"])
def test_unwritable_path_exits_cleanly(tmp_path, capsys, argv):
    # a path in a missing directory: exit 1 with a diagnostic, no traceback
    missing = str(tmp_path / "missing" / "out")
    assert run([missing if a == "MISSING" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {missing}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_linsys_member_job_to_stdout(tmp_path, capsys):
    # no --output and no options.output: the result goes to stdout
    doc = _job_doc("path-linsys-min.json")
    doc["payload"].update(op="member", phi={"a": -1, "b": 0})
    job = _write_job(tmp_path, doc)
    assert run(["linsys", "member", "--input", job]) == 0
    assert json.loads(capsys.readouterr().out)["canonical"]["result"] == {"member": False}
    doc["payload"]["effective"] = False
    job = _write_job(tmp_path, doc)
    assert run(["linsys", "member", "--input", job]) == 0
    assert json.loads(capsys.readouterr().out)["canonical"]["result"] == {"member": True}


def test_svg_of_a_curve_body_without_a_window(tmp_path):
    # one unit of margin around the breakpoints (0, 0), (2, 0), (4, 1/2)
    doc = _job_doc("quartic-tropical.json")
    del doc["options"]
    svg = tmp_path / "fig.svg"
    assert run(["curve-body", "tropical", "--input", _write_job(tmp_path, doc),
                "--output", str(tmp_path / "r.json"), "--svg", str(svg)]) == 0
    ET.parse(svg)
    text = svg.read_text()
    assert "(2, 0)" in text and "(4, 1/2)" in text


def test_toric_body_of_an_empty_generic_polytope(tmp_path):
    # P_D = {m >= 1, -m >= 1} is empty, so both routes give the empty body
    doc = _job_doc("toric-d1.json")
    doc["payload"]["model"]["generic_rays"] = [[[1], -1], [[-1], -1]]
    doc["payload"]["flag"]["rays"][0][1] = -1
    out = tmp_path / "r.json"
    assert run(["toric-body", "--input", _write_job(tmp_path, doc),
                "--output", str(out)]) == 2
    canonical = read_result(out)["canonical"]
    assert canonical["status"] == "empty"
    assert canonical["result"] == {"vertices": [], "rays": [], "generic_lattice_points": 0}
    model, flag = parse_job(json.dumps(doc)).parsed
    empty = VPolyhedron([], [])
    assert toric.toric_body_vertexmap(model, flag) == empty
    assert toric.toric_body_projection(model, flag) == empty


def test_one_parser_serves_every_call(tmp_path, monkeypatch):
    # two calls in one process, the first with --svg and the second with
    # --seed, write the files and return the exit codes that each call
    # does in a process of its own
    tropical, verify = (os.path.abspath(jobpath(name)) for name in
                        ("quartic-tropical.json", "verify-random-curves.json"))
    calls = [["curve-body", "tropical", "--input", tropical, "--svg", "fig.svg",
              "--output", "first.json"],
             ["verify", "--input", verify, "--seed", "5", "--output", "second.json"]]
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    monkeypatch.chdir(together)
    codes = [main(argv) for argv in calls]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(okbodies.__file__))}
    alone_codes = [subprocess.run([sys.executable, "-m", "okbodies.cli", *argv],
                                  cwd=alone, env=env).returncode for argv in calls]
    assert codes == alone_codes == [0, 0]

    def files(d):
        # the SVG's bytes, and each result's canonical section (the rest
        # is timing)
        return {p.name: p.read_bytes() if p.suffix == ".svg" else read_result(p)["canonical"]
                for p in d.iterdir()}
    assert set(files(together)) == {"fig.svg", "first.json", "second.json"}
    assert files(together) == files(alone)
