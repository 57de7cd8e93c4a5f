"""Job and result files: JSON parsing, validation, dispatch, serialization.

Jobs are JSON with exact numbers only (integers or "p/q" strings), in the
format schema/job.schema.json describes.  parse_job reads each job once:
typed checks of each field raise SchemaError at the first one off that
format, rational parsing and graph checks raise diagnostics naming the
offending field, and each payload becomes the domain objects that run_job
reads.  A body job's result keeps the body it computed for rendering.
Results are deterministic: the canonical section (job echo + computed objects +
warnings + status) serializes to identical bytes on every run; timing
lives outside it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional

from . import curves, linsys, rank, toric
from .errors import (DimensionTooLarge, EmptySystemError, NonIntegerDivisor,
                     OkbodiesError, SchemaError, UnknownVertex, WindowEmpty)
from .graphs import Divisor, Graph, GraphFunction
from .linalg import int_rows
from .oracles import RankOracle
from .plf import PiecewiseLinearFunction
from .polyhedra import VPolyhedron, enumerate_v_rep
from .rationals import format_rational, parse_rational
from .sampling import random_divisor, random_graph, random_member

EXIT_OK, EXIT_ERROR, EXIT_EMPTY = 0, 1, 2

# Largest ambient dimension d of a toric `verify` job.  Its valuation walk
# visits 5 * 9^d monomials.  On box models (generic rays +-e_i of height 2,
# two vertical vertices; Python 3.11 on a 2-CPU VM) a job took 0.3 s at
# d = 3, 2.5 s at d = 4 and 24 s at d = 5, so d = 6 would take minutes.
TORIC_VERIFY_MAX_DIM = 5

# Most effective divisors a rank `verify` job's class-enumeration oracle
# may visit: C(deg + n - 1, n - 1) of degree deg on n vertices.  On cycles
# (Python 3.11 on a 2-CPU VM) it took 1.3 s for 118,755 (n = 6, deg = 24),
# 1.6 s for 169,911 (n = 6, deg = 26) and 6.6 s for 593,775 (n = 7,
# deg = 24); the bound keeps a job to seconds on a host several times
# slower.
RANK_VERIFY_MAX_DIVISORS = 200_000

# Largest graph of a curve-body job, or of a verify job's curve-body
# target: both build the body by least elements and by the parametric LP.
# On the ladder instance (`tests/test_cli._ladder_doc`: C_n plus n//2
# chords, Python 3.11 on a 2-CPU VM), either flag, a job took 0.35 s at
# n = 60, 1.2 s at n = 90, 2.0-2.4 s at n = 100 and 3 s at n = 120, and
# about 7 s at n = 150.
CURVE_MAX_VERTICES = 100

# Most curves a verify job's random-curves target may check.  Each is a
# curve-body cross-check on at most 5 vertices: 1,000 took 0.86-0.97 s
# and 5,000 took 4.2-4.4 s (Python 3.11 on a 2-CPU VM).
RANDOM_CURVES_MAX_COUNT = 2_000

# (required, optional) keys of each kind's payload; a verify payload's keys
# follow its target
_PAYLOAD_KEYS = {
    "linsys": (("op", "graph", "divisor"), ("effective", "phi")),
    "rank": (("graph", "divisor"), ("base",)),
    "curve-body": (("graph", "divisor", "flag"), ()),
    "toric-body": (("model", "flag"), ()),
}
_TARGET_KEYS = {
    "curve-body": (("target", "graph", "divisor", "flag"), ("seed",)),
    "toric-body": (("target", "model", "flag"), ("seed",)),
    "linsys": (("target", "graph", "divisor"), ("seed",)),
    "rank": (("target", "graph", "divisor"), ("base", "seed")),
    "random-curves": (("target",), ("count", "seed")),
}
# A type is checked exactly: json.loads makes no subclasses, so a bool or
# 1.0 is no int.
_JSON_NAMES = {int: "integer", str: "string", bool: "boolean"}


def _fail(path: tuple, message: str):
    raise SchemaError(f"at {'/'.join(str(p) for p in path) or '<root>'}: {message}")


def _object(doc, path: tuple, required=(), allowed=None) -> dict:
    """`doc`, an object with every key of `required` and, unless `allowed`
    is None, no key outside `required` and `allowed`."""
    if type(doc) is not dict:
        _fail(path, f"{doc!r} is not of type 'object'")
    for key in required:
        if key not in doc:
            _fail(path, f"{key!r} is a required property")
    if allowed is not None:
        extra = [k for k in doc if k not in required and k not in allowed]
        if extra:
            _fail(path, f"Additional properties are not allowed "
                        f"({', '.join(map(repr, extra))} "
                        f"{'was' if len(extra) == 1 else 'were'} unexpected)")
    return doc


def _array(doc, path: tuple, min_items=0, max_items=None) -> list:
    """`doc`, an array of `min_items` to `max_items` items."""
    if type(doc) is not list:
        _fail(path, f"{doc!r} is not of type 'array'")
    if len(doc) < min_items:
        _fail(path, f"{doc!r} is too short")
    if max_items is not None and len(doc) > max_items:
        _fail(path, f"{doc!r} is too long")
    return doc


def _scalar(doc, path: tuple, *types, minimum=None, among=None):
    """`doc`, of one of the Python `types`, at least `minimum` and one of
    `among` when they are given."""
    if type(doc) not in types:
        _fail(path, f"{doc!r} is not of type "
                    f"{', '.join(repr(_JSON_NAMES[t]) for t in types)}")
    if minimum is not None and doc < minimum:
        _fail(path, f"{doc!r} is less than the minimum of {minimum}")
    if among is not None and doc not in among:
        _fail(path, f"{doc!r} is not one of {list(among)!r}")
    return doc


@dataclass(frozen=True)
class JobFile:
    kind: str
    payload: dict
    options: dict
    # the payload's domain objects, from _parse_payload, and the Fractions
    # of options.window (or None); never compared or written out
    parsed: tuple = field(compare=False, repr=False)
    window: Optional[tuple] = field(default=None, compare=False, repr=False)

    def as_document(self) -> dict:
        doc = {"kind": self.kind, "payload": self.payload}
        if self.options:
            doc["options"] = self.options
        return doc


@dataclass(frozen=True)
class ResultFile:
    # the job as written out, without the domain objects it was run on: a
    # result kept for its document does not keep its graph too
    job: JobFile
    status: str            # "ok" | "empty"
    result: dict
    warnings: tuple
    seconds: float
    # the NOBody2D or VPolyhedron a body job computed, else None; not canonical
    body: object = field(compare=False, repr=False)

    def as_document(self) -> dict:
        return {"canonical": self.canonical(), "timing": {"seconds": self.seconds}}

    def canonical(self) -> dict:
        return {
            "job": self.job.as_document(),
            "status": self.status,
            "result": self.result,
            "warnings": list(self.warnings),
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.canonical(), sort_keys=True, indent=2).encode()

    def text(self) -> str:
        """The result file's text: the document in canonical_bytes' layout
        (sorted keys, two-space indent), then a newline."""
        return json.dumps(self.as_document(), sort_keys=True, indent=2) + "\n"

    @property
    def exit_code(self) -> int:
        """The CLI's exit code: EXIT_EMPTY for an empty system, EXIT_ERROR
        for a verify job with a failing check, else EXIT_OK."""
        if self.status == "empty":
            return EXIT_EMPTY
        if self.job.kind == "verify" and not self.result["pass"]:
            return EXIT_ERROR
        return EXIT_OK


def parse_job(text: str) -> JobFile:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a syntax error, an integer past int's digit limit or nesting too
        # deep for the decoder: all faults of the input
        raise SchemaError(f"not valid JSON: {exc}") from exc
    _object(doc, (), ("kind", "payload"), ("options",))
    kind = _scalar(doc["kind"], ("kind",), str, among=(*_PAYLOAD_KEYS, "verify"))
    options = _object(doc.get("options", {}), ("options",), (), ("window", "output"))
    window = None
    if "window" in options:
        path = ("options", "window")
        for i, w in enumerate(_array(options["window"], path, 4, 4)):
            _scalar(w, path + (i,), int, str)
        window = parse_window(options["window"], "options.window")
    if "output" in options:
        _scalar(options["output"], ("options", "output"), str)
    return JobFile(kind, doc["payload"], options,
                   _parse_payload(kind, doc["payload"]), window)


def parse_window(values, name: str) -> tuple:
    """The exact rationals (x0, x1, y0, y1) of a viewing window, which
    must have x0 < x1 and y0 < y1; errors name the field `name`."""
    if len(values) != 4:
        raise OkbodiesError(f"{name} needs four rationals x0, x1, y0, y1")
    window = tuple(_rational(w, name, i) for i, w in enumerate(values))
    x0, x1, y0, y1 = window
    if not (x0 < x1 and y0 < y1):
        raise WindowEmpty(f"{name} needs x0 < x1 and y0 < y1")
    return window


def _rational(q, name: str, key):
    """parse_rational(q); an error names the field name[key]."""
    try:
        return parse_rational(q)
    except OkbodiesError as exc:
        raise type(exc)(f"in {name}[{key!r}]: {exc}") from exc


def _parse_graph(gdoc, path: tuple) -> Graph:
    # each item is checked in one pass; its path and message are built
    # only to report the first one that fails
    _object(gdoc, path, ("vertices", "edges"), ())
    vertices = _array(gdoc["vertices"], path + ("vertices",), 1)
    if not all(type(v) is str for v in vertices):
        for i, v in enumerate(vertices):
            _scalar(v, path + ("vertices", i), str)
    edges = _array(gdoc["edges"], path + ("edges",))
    if not all(type(e) is list and len(e) == 2 and type(e[0]) is str
               and type(e[1]) is str for e in edges):
        for i, e in enumerate(edges):
            for j, v in enumerate(_array(e, path + ("edges", i), 2, 2)):
                _scalar(v, path + ("edges", i, j), str)
    return Graph(vertices, edges)


def _parse_vertexmap(g: Graph, doc, path: tuple, cls):
    field = ".".join(path[1:])  # below "payload"
    parsed = {}
    for v, q in _object(doc, path).items():
        if type(q) is int:
            parsed[v] = Fraction(q)
        elif type(q) is str:
            parsed[v] = _rational(q, field, v)
        else:
            _scalar(q, path + (v,), int, str)  # raises
    try:
        return cls(g, parsed)
    except UnknownVertex as exc:
        raise UnknownVertex(f"in {field}: {exc}") from exc


def _parse_curve_job(p: dict, path: tuple) -> curves.CurveBodyJob:
    g = _parse_graph(p["graph"], path + ("graph",))
    if len(g.vertices) > CURVE_MAX_VERTICES:
        raise DimensionTooLarge(f"curve jobs take at most {CURVE_MAX_VERTICES} "
                                f"vertices; this graph has {len(g.vertices)}")
    lam = _parse_vertexmap(g, p["divisor"], path + ("divisor",), Divisor)
    path += ("flag",)
    fdoc = _object(p["flag"], path, ("type", "vertex"), ("y1",))
    ftype = _scalar(fdoc["type"], path + ("type",), str, among=("tropical", "arakelov"))
    vertex = _scalar(fdoc["vertex"], path + ("vertex",), str)
    y1 = None
    if "y1" in fdoc:
        y1 = _parse_vertexmap(g, fdoc["y1"], path + ("y1",), Divisor)
    elif ftype == "tropical":
        _fail(path, "'y1' is a required property")
    if ftype == "tropical":
        return curves.CurveBodyJob(g, lam, curves.TropicalFlag(y1, vertex))
    return curves.CurveBodyJob(g, lam, curves.ArakelovFlag(vertex))


def _rays(doc, path: tuple, min_items: int) -> list:
    """The (vector, height) pairs of a list of rays [[int, ...], int]."""
    rays = []
    for i, ray in enumerate(_array(doc, path, min_items)):
        u, a = _array(ray, path + (i,), 2, 2)
        for j, c in enumerate(_array(u, path + (i, 0))):
            _scalar(c, path + (i, 0, j), int)
        rays.append((tuple(u), _scalar(a, path + (i, 1), int)))
    return rays


def _parse_toric(p: dict, path: tuple):
    mpath, fpath = path + ("model",), path + ("flag",)
    mdoc = _object(p["model"], mpath,
                   ("ambient_dim", "generic_rays", "vertical_vertices"), ())
    model = toric.ToricModel(
        _scalar(mdoc["ambient_dim"], mpath + ("ambient_dim",), int, minimum=1),
        _rays(mdoc["generic_rays"], mpath + ("generic_rays",), 1),
        _rays(mdoc["vertical_vertices"], mpath + ("vertical_vertices",), 1))
    fdoc = _object(p["flag"], fpath, ("rays",), ())
    flag = toric.ToricFlag(_rays(fdoc["rays"], fpath + ("rays",), 2))
    flag.validate(model)
    return model, flag


def _parse_payload(kind: str, p) -> tuple:
    """The domain objects of a payload, raising SchemaError at the first
    field that does not match the schema and a field-level diagnostic for
    the rest.  A verify job gets its target's objects."""
    path = ("payload",)
    if kind == "verify":
        _object(p, path, ("target",))
        target = _scalar(p["target"], path + ("target",), str, among=_TARGET_KEYS)
        _object(p, path, *_TARGET_KEYS[target])
        if "seed" in p:
            _scalar(p["seed"], path + ("seed",), int)
        if "count" in p:
            _scalar(p["count"], path + ("count",), int, minimum=1)
    else:
        target = kind
        _object(p, path, *_PAYLOAD_KEYS[kind])
    if target == "curve-body":
        return (_parse_curve_job(p, path),)
    if target == "toric-body":
        return _parse_toric(p, path)
    if target == "random-curves":
        return ()
    g = _parse_graph(p["graph"], path + ("graph",))
    lam = _parse_vertexmap(g, p["divisor"], path + ("divisor",), Divisor)
    if target == "rank":
        base = _scalar(p["base"], path + ("base",), str) if "base" in p else g.vertices[0]
        if not lam.is_integral():
            raise NonIntegerDivisor("rank jobs need an integer divisor")
        g.index(base)
        return g, lam, base
    if kind == "verify":
        return g, lam
    op = _scalar(p["op"], path + ("op",), str, among=("min", "member", "shift"))
    effective = True
    if "effective" in p:
        effective = _scalar(p["effective"], path + ("effective",), bool)
        # without phi >= 0 the system is closed under adding constants, so
        # it has no least element to find or shift by
        if not effective and op != "member":
            _fail(path + ("effective",),
                  f"false is allowed only with op 'member', not {op!r}")
    phi = None
    if "phi" in p:
        phi = _parse_vertexmap(g, p["phi"], path + ("phi",), GraphFunction)
    elif op == "member":
        _fail(path, "'phi' is a required property")
    return linsys.LinearSystemSpec(g, lam, effective), op, phi


def _rat_map(vec) -> dict:
    return {v: format_rational(q) for v, q in zip(vec.graph.vertices, vec.values)}


def _plf_doc(f: Optional[PiecewiseLinearFunction]):
    if f is None:
        return None
    return {
        "breakpoints": [[format_rational(t), format_rational(v)]
                        for t, v in f.breakpoints],
        "tail_slope": None if f.tail_slope is None else format_rational(f.tail_slope),
        "shape": f.shape,
    }


def _vpoly_doc(v: VPolyhedron) -> dict:
    return {
        "vertices": [[format_rational(c) for c in pt] for pt in v.vertices],
        "rays": [[format_rational(c) for c in r] for r in v.rays],
    }


def _body_doc(body: curves.NOBody2D) -> dict:
    return {
        "kind": body.kind,
        "lower": _plf_doc(body.lower),
        "upper": _plf_doc(body.upper),
        "recession": [format_rational(c) for c in body.recession],
    }


def run_job(job: JobFile, seed: Optional[int] = None) -> ResultFile:
    t0 = time.perf_counter()
    status, result, warnings, body = _dispatch(job, seed)
    seconds = time.perf_counter() - t0
    return ResultFile(JobFile(job.kind, job.payload, job.options, ()),
                      status, result, tuple(warnings), seconds, body)


def _dispatch(job: JobFile, seed):
    """(status, result, warnings, body) of a parsed job."""
    if job.kind == "linsys":
        return (*_run_linsys(*job.parsed), None)
    if job.kind == "rank":
        g, lam, base = job.parsed
        reduced = dict(zip(g.vertices, rank.q_reduced(g, lam, base)))
        # reduced is non-negative off the base and keeps the degree, so
        # its value at the base decides the rank, deg < 0 included
        return "ok", {
            "rank_nonnegative": reduced[base] >= 0,
            "base": base,
            "reduced": reduced,
        }, [], None
    if job.kind == "curve-body":
        try:
            body = curves.compute_body(*job.parsed)
        except EmptySystemError as exc:
            return "empty", {"reason": str(exc)}, [], None
        return "ok", _body_doc(body), list(body.warnings), body
    if job.kind == "toric-body":
        model, flag = job.parsed
        body = toric.toric_body(model, flag)
        result = _vpoly_doc(body)
        if model.ambient_dim <= 3:
            result["generic_lattice_points"] = toric.lattice_point_count(
                toric.build_generic_polytope(model))
        return ("empty" if body.is_empty() else "ok"), result, [], body
    # parse_job admits no kind but these five
    return (*_run_verify(job.payload, job.parsed, seed), None)


def _run_linsys(spec: linsys.LinearSystemSpec, op: str, phi):
    if op == "member":
        return "ok", {"member": linsys.member(spec, phi)}, []
    if op == "min":
        pi = linsys.minimal_element(spec)
        if pi is None:
            return "empty", {"minimal": None}, []
        return "ok", {"minimal": _rat_map(pi)}, []
    # op == "shift"
    try:
        shifted, pi = linsys.zariski_shift(spec)
    except EmptySystemError as exc:
        return "empty", {"reason": str(exc)}, []
    return "ok", {"shifted_divisor": _rat_map(shifted), "minimal": _rat_map(pi)}, []


def _check(checks, name, ok, detail=""):
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def _verify_curve_job(cjob: curves.CurveBodyJob, checks, prefix=""):
    try:
        report = curves.cross_verify(cjob)
    except EmptySystemError as exc:
        # the least-element route's empty system, confirmed by deg(lam) < 0
        _check(checks, f"{prefix}dual-algorithm", True, f"both empty: {exc}")
        return
    _check(checks, f"{prefix}dual-algorithm", report.agree, report.detail)
    body = report.body
    if body is not None:
        _check(checks, f"{prefix}recession-closure", all(
            body.contains((t + body.recession[0], v + body.recession[1]))
            for t, v in body.boundary.breakpoints))


def _first_difference(body: VPolyhedron, other: VPolyhedron) -> str:
    """Names the first vertex, then ray, at which the vertex map's body and
    the projection's differ; "" when they are equal."""
    def text(point):
        return "none" if point is None else "(" + ", ".join(map(str, point)) + ")"

    for what, mine, theirs in (("vertex", body.vertices, other.vertices),
                               ("ray", body.rays, other.rays)):
        for i, (a, b) in enumerate(itertools.zip_longest(mine, theirs)):
            if a != b:
                return (f"first difference at {what} {i}: vertex map {text(a)}, "
                        f"projection {text(b)}")
    return ""


def _run_verify(p: dict, parsed: tuple, seed):
    checks = []
    target = p["target"]
    if seed is None:
        seed = p.get("seed", 0)
    if target == "curve-body":
        _verify_curve_job(*parsed, checks)
    elif target == "random-curves":
        rng = random.Random(seed)
        count = p.get("count", 50)
        if count > RANDOM_CURVES_MAX_COUNT:
            raise DimensionTooLarge(f"random-curves checks at most "
                                    f"{RANDOM_CURVES_MAX_COUNT} jobs; count is {count}")
        made = 0
        while made < count:
            g = random_graph(rng, max_vertices=5)
            lam = random_divisor(rng, g, bound=4)
            if rng.random() < 0.5:
                if lam.degree() <= 0:
                    continue
                pick = rng.randrange(len(g.vertices))
                y1 = Divisor(g, [1 if i == pick else 0
                                 for i in range(len(g.vertices))])
                flag = curves.TropicalFlag(y1, g.vertices[rng.randrange(len(g.vertices))])
            else:
                flag = curves.ArakelovFlag(g.vertices[rng.randrange(len(g.vertices))])
            made += 1
            _verify_curve_job(curves.CurveBodyJob(g, lam, flag), checks,
                              prefix=f"job{made}: ")
    elif target == "toric-body":
        model, flag = parsed
        d = model.ambient_dim
        if d > TORIC_VERIFY_MAX_DIM:
            raise DimensionTooLarge(
                f"the toric valuation walk takes at most ambient dimension "
                f"{TORIC_VERIFY_MAX_DIM}; this model has {d}")
        # both V-representations are canonical as built (toric.toric_body),
        # and the projection's half-spaces, as integer rows (A, B) with
        # a.x >= b reading A.x >= B, test the integer valuations
        image = toric.toric_body_halfspaces(model, flag)
        body, other = toric.toric_body_vertexmap(model, flag), enumerate_v_rep(image)
        _check(checks, "vertexmap-vs-projection", body == other,
               _first_difference(body, other))
        rows, _ = int_rows([[*a, b] for a, b in image.constraints])
        value = toric.valuation_map(model, flag)
        inside = True
        for m in itertools.product(range(-4, 5), repeat=d):
            for h in range(0, 5):
                val = value(m, h)
                if val is not toric.NOT_A_SECTION and any(
                        sum(map(mul, row, val)) < row[-1] for row in rows):
                    inside = False
        _check(checks, "monomial-valuations-inside", inside)
    elif target == "linsys":
        spec = linsys.LinearSystemSpec(*parsed, True)
        pi = linsys.minimal_element(spec)
        if pi is None:
            _check(checks, "minimal-element", True, "empty system")
        else:
            _check(checks, "minimal-element-member", linsys.member(spec, pi))
            rng = random.Random(seed)
            ok_min = ok_closure = True
            for _ in range(20):
                phi = random_member(rng, spec)
                psi = random_member(rng, spec)
                if phi is None or psi is None:
                    continue
                if any(a < b for a, b in zip(phi.values, pi.values)):
                    ok_min = False
                if not linsys.member(spec, linsys.pointwise_min(phi, psi)):
                    ok_closure = False
            _check(checks, "minimal-below-samples", ok_min)
            _check(checks, "pointwise-min-closure", ok_closure)
    elif target == "rank":
        g, lam, base = parsed
        n, degree = len(g.vertices), int(lam.degree())
        count = math.comb(degree + n - 1, n - 1) if degree >= 0 else 0
        if count > RANK_VERIFY_MAX_DIVISORS:
            raise DimensionTooLarge(
                f"the rank oracle enumerates at most {RANK_VERIFY_MAX_DIVISORS} "
                f"effective divisors; degree {degree} on {n} vertices has {count}")
        main = rank.has_nonnegative_rank(g, lam, base)
        oracle = RankOracle(g).has_nonnegative_rank(lam)
        _check(checks, "dhar-vs-class-enumeration", main == oracle,
               f"dhar={main} oracle={oracle}")
    all_pass = all(c["pass"] for c in checks)
    return "ok", {"pass": all_pass, "checks": checks}, []
