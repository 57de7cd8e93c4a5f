"""Job and result files: JSON parsing, validation, dispatch, serialization.

Jobs are JSON with exact numbers only (integers or "p/q" strings).  The
schema file catches structural problems; rational parsing and graph
checks produce diagnostics naming the offending field.  parse_job parses
each payload once into domain objects that run_job reads, and a body
job's result keeps the body it computed for rendering.  Results are
deterministic: the canonical section (job echo + computed objects +
warnings + status) serializes to identical bytes on every run; timing
lives outside it.
"""

from __future__ import annotations

import functools
import importlib.resources
import itertools
import json
import numbers
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import curves, linsys, rank, toric
from .errors import (ConsistencyError, EmptySystemError, OkbodiesError,
                     SchemaError, UnknownVertex)
from .graphs import Divisor, Graph, GraphFunction
from .oracles import RankOracle
from .plf import PiecewiseLinearFunction
from .polyhedra import VPolyhedron, vrep_equal
from .rationals import format_rational, parse_rational
from .sampling import random_divisor, random_graph, random_member

EXIT_OK, EXIT_ERROR, EXIT_EMPTY = 0, 1, 2


@functools.cache
def _schema() -> dict:
    """The job schema, loaded and checked once."""
    text = (importlib.resources.files("okbodies") / "schema" /
            "job.schema.json").read_text()
    return _checked_schema(json.loads(text))


def _checked_schema(schema: dict) -> dict:
    """`schema`, refused with ConsistencyError unless it is draft-07 and
    `_conforms` decides it exactly, so that the two never drift apart."""
    if schema.get("$schema") not in _DRAFT_07:
        raise ConsistencyError(f"the job schema is not draft-07: "
                               f"{schema.get('$schema')!r}")
    defs = schema.get("definitions", {})
    _refuse_unsupported({k: v for k, v in schema.items() if k not in _ROOT_ONLY}, defs)
    for sub in defs.values():
        _refuse_unsupported(sub, defs)
    return schema


@functools.cache
def _validator():
    """jsonschema's validator of the job schema, its schema checked once.
    jsonschema is imported here, not with the module: it only words the
    diagnostic of a job `_conforms` rejects, and loading it costs about
    5 MB of resident memory."""
    import jsonschema
    jsonschema.Draft7Validator.check_schema(_schema())
    return jsonschema.Draft7Validator(_schema())


# `_conforms` decides acceptance without jsonschema's per-node walk, for the
# draft-07 keywords below.  Each check holds vacuously where draft 07 says
# the keyword does not apply (`required` on a non-object, and so on).
_DRAFT_07 = ("http://json-schema.org/draft-07/schema#",
             "http://json-schema.org/draft-07/schema")
_DEFS = "#/definitions/"
_ROOT_ONLY = {"$schema", "$id", "definitions"}
# keywords that never reject on their own: `then` is read by `if`
_INERT = {"title", "then"}
# the draft-07 types as jsonschema checks them: a boolean is no number,
# and a float with no fractional part is an integer
_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: not isinstance(x, bool) and (
        isinstance(x, int) or isinstance(x, float) and x.is_integer()),
    "null": lambda x: x is None,
    "number": lambda x: not isinstance(x, bool) and isinstance(x, numbers.Number),
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _type(types, x, s, defs):
    if isinstance(types, str):
        return _TYPES[types](x)
    return any(_TYPES[t](x) for t in types)


def _properties(props, x, s, defs):
    return not isinstance(x, dict) or all(
        _holds(sub, x[k], defs) for k, sub in props.items() if k in x)


def _additional(extra, x, s, defs):
    if not isinstance(x, dict):
        return True
    props = s.get("properties", {})
    return all(_holds(extra, v, defs) for k, v in x.items() if k not in props)


def _items(items, x, s, defs):
    if not isinstance(x, list):
        return True
    if isinstance(items, list):
        return all(_holds(sub, v, defs) for sub, v in zip(items, x))
    return all(_holds(items, v, defs) for v in x)


_KEYWORDS = {
    "type": _type,
    # enum and const values are strings (see _refuse_unsupported), which
    # a JSON value equals exactly when draft 07 says it does
    "enum": lambda values, x, s, defs: x in values,
    "const": lambda value, x, s, defs: x == value,
    "required": lambda keys, x, s, defs: (
        not isinstance(x, dict) or all(k in x for k in keys)),
    "properties": _properties,
    "additionalProperties": _additional,
    "items": _items,
    "minItems": lambda m, x, s, defs: not isinstance(x, list) or len(x) >= m,
    "maxItems": lambda m, x, s, defs: not isinstance(x, list) or len(x) <= m,
    # `not x < m` rather than `x >= m`: NaN passes, as in jsonschema
    "minimum": lambda m, x, s, defs: not (_TYPES["number"](x) and x < m),
    "allOf": lambda subs, x, s, defs: all(_holds(sub, x, defs) for sub in subs),
    # if/then is an implication: an exact "no" on `if` is what lets a
    # valid document skip its `then`
    "if": lambda cond, x, s, defs: (
        not _holds(cond, x, defs) or _holds(s.get("then", True), x, defs)),
    "$ref": None,  # resolved in _holds
}


def _holds(s, x, defs) -> bool:
    if isinstance(s, bool):
        return s
    ref = s.get("$ref")
    if ref is not None:  # draft 07 ignores the siblings of $ref
        return _holds(defs[ref[len(_DEFS):]], x, defs)
    for key, value in s.items():
        check = _KEYWORDS.get(key)
        if check is not None and not check(value, x, s, defs):
            return False
    return True


def _conforms(schema: dict, doc) -> bool:
    """Whether `doc` is valid against the draft-07 `schema`, which must
    pass `_checked_schema`.  Exact both ways, not merely conservative:
    it equals the validator's `is_valid(doc)`."""
    return _holds(schema, doc, schema.get("definitions", {}))


def _subschemas(key: str, value) -> list:
    if key == "properties":
        return list(value.values())
    if key == "allOf" or (key == "items" and isinstance(value, list)):
        return value
    if key in ("items", "additionalProperties", "if", "then"):
        return [value]
    return []


def _refuse_unsupported(schema, defs) -> None:
    """Raise ConsistencyError at the first keyword, $ref form, type name or
    enum value of `schema` (below the root's own keywords) that `_conforms`
    does not decide."""
    if isinstance(schema, bool):
        return
    for key, value in schema.items():
        if key not in _KEYWORDS and key not in _INERT:
            raise ConsistencyError(f"the job schema uses {key!r}, which "
                                   f"the acceptance check does not decide")
        if key == "$ref":
            # a plain name: no JSON-pointer or percent escapes to decode
            name = value[len(_DEFS):] if value.startswith(_DEFS) else None
            if name not in defs or any(c in name for c in "~/%"):
                raise ConsistencyError(f"the job schema's $ref {value!r} is "
                                       f"not a name in {_DEFS}")
        if key == "type":
            names = [value] if isinstance(value, str) else value
            if not set(names) <= set(_TYPES):
                raise ConsistencyError(f"the job schema's type {value!r} is "
                                       f"not a draft-07 type")
        if key in ("enum", "const"):
            values = value if key == "enum" else [value]
            if not all(isinstance(v, str) for v in values):
                raise ConsistencyError(f"the job schema's {key} {value!r} is "
                                       f"not all strings")
        for sub in _subschemas(key, value):
            _refuse_unsupported(sub, defs)


@dataclass(frozen=True)
class JobFile:
    kind: str
    payload: dict
    options: dict
    # the payload's domain objects, from _parse_payload; never written out
    parsed: tuple = field(compare=False, repr=False)

    def as_document(self) -> dict:
        doc = {"kind": self.kind, "payload": self.payload}
        if self.options:
            doc["options"] = self.options
        return doc


@dataclass(frozen=True)
class ResultFile:
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

    @property
    def exit_code(self) -> int:
        return EXIT_EMPTY if self.status == "empty" else EXIT_OK


def parse_job(text: str) -> JobFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not _conforms(_schema(), doc):
        import jsonschema  # to word the diagnostic; see _validator
        exc = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
        if exc is not None:
            path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            raise SchemaError(f"at {path}: {exc.message}") from exc
    return JobFile(doc["kind"], doc["payload"], doc.get("options", {}),
                   _parse_payload(doc["kind"], doc["payload"]))


def _parse_graph(payload: dict) -> Graph:
    gdoc = payload["graph"]
    return Graph(gdoc["vertices"], [tuple(e) for e in gdoc["edges"]])


def _parse_vertexmap(g: Graph, doc: dict, field: str, cls):
    parsed = {}
    for v, q in doc.items():
        try:
            parsed[v] = parse_rational(q)
        except OkbodiesError as exc:
            raise type(exc)(f"in {field}[{v!r}]: {exc}") from exc
    try:
        return cls(g, parsed)
    except UnknownVertex as exc:
        raise UnknownVertex(f"in {field}: {exc}") from exc


def _parse_curve_job(payload: dict) -> curves.CurveBodyJob:
    g = _parse_graph(payload)
    lam = _parse_vertexmap(g, payload["divisor"], "divisor", Divisor)
    fdoc = payload["flag"]
    if fdoc["type"] == "tropical":
        if "y1" not in fdoc:
            raise SchemaError("tropical flags need a 'y1' specialization")
        y1 = _parse_vertexmap(g, fdoc["y1"], "flag.y1", Divisor)
        flag = curves.TropicalFlag(y1, fdoc["vertex"])
    else:
        flag = curves.ArakelovFlag(fdoc["vertex"])
    return curves.CurveBodyJob(g, lam, flag)


def _parse_toric(payload: dict):
    mdoc = payload["model"]
    model = toric.ToricModel(mdoc["ambient_dim"],
                             [(tuple(u), a) for u, a in mdoc["generic_rays"]],
                             [(tuple(v), a) for v, a in mdoc["vertical_vertices"]])
    flag = toric.ToricFlag([(tuple(w), a) for w, a in payload["flag"]["rays"]])
    flag.validate(model)
    return model, flag


def _parse_payload(kind: str, p: dict) -> tuple:
    """The domain objects of a schema-valid payload, raising with a
    field-level diagnostic.  A verify job gets its target's objects."""
    target = p["target"] if kind == "verify" else kind
    if target == "curve-body":
        return (_parse_curve_job(p),)
    if target == "toric-body":
        return _parse_toric(p)
    if target == "random-curves":
        return ()  # count and seed are schema-checked
    g = _parse_graph(p)
    lam = _parse_vertexmap(g, p["divisor"], "divisor", Divisor)
    if kind == "verify":
        return g, lam, p.get("base")
    if kind == "rank":
        if not lam.is_integral():
            raise SchemaError("rank jobs need an integer divisor")
        base = p.get("base", g.vertices[0])
        g.index(base)
        return g, lam, base
    phi = None
    if p["op"] == "member":
        if "phi" not in p:
            raise SchemaError("linsys member needs a 'phi' function")
        phi = _parse_vertexmap(g, p["phi"], "phi", GraphFunction)
    return linsys.LinearSystemSpec(g, lam, p.get("effective", True)), p["op"], phi


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
    return ResultFile(job, status, result, tuple(warnings), seconds, body)


def _dispatch(job: JobFile, seed):
    """(status, result, warnings, body) of a parsed job."""
    if job.kind == "linsys":
        return (*_run_linsys(*job.parsed), None)
    if job.kind == "rank":
        g, lam, base = job.parsed
        reduced = rank.q_reduced(g, lam, base)
        # reduced is non-negative off the base and keeps the degree, so
        # its value at the base decides the rank, deg < 0 included
        return "ok", {
            "rank_nonnegative": reduced[g.index(base)] >= 0,
            "base": base,
            "reduced": {v: c for v, c in zip(g.vertices, reduced)},
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
    if job.kind == "verify":
        return (*_run_verify(job.payload, job.parsed, seed), None)
    raise SchemaError(f"unknown job kind {job.kind!r}")


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


def _verify_curve_job(cjob: curves.CurveBodyJob, checks, label=""):
    prefix = f"{label}: " if label else ""
    try:
        report = curves.cross_verify(cjob)
    except EmptySystemError as exc:
        _check(checks, f"{prefix}dual-algorithm", True, f"both empty: {exc}")
        return
    _check(checks, f"{prefix}dual-algorithm", report.agree,
           "" if report.agree else f"first disagreement at t = {report.first_disagreement}")
    body = report.body
    f = body.lower if body.kind == "overgraph" else body.upper
    closed = all(
        body.contains((t + body.recession[0], v + body.recession[1]))
        for t, v in f.breakpoints)
    _check(checks, f"{prefix}recession-closure", closed)


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
                              label=f"job{made}")
    elif target == "toric-body":
        model, flag = parsed
        body_v = toric.toric_body_vertexmap(model, flag)
        body_p = toric.toric_body_projection(model, flag)
        _check(checks, "vertexmap-vs-projection", vrep_equal(body_v, body_p))
        inside = True
        d = model.ambient_dim
        for m in _small_box(d, 4):
            for h in range(0, 5):
                val = toric.monomial_valuation(model, flag, m, h)
                if val is not toric.NOT_A_SECTION and not body_v.contains(
                        [Fraction(x) for x in val]):
                    inside = False
        _check(checks, "monomial-valuations-inside", inside)
    elif target == "linsys":
        g, lam, _ = parsed
        spec = linsys.LinearSystemSpec(g, lam, True)
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
        main = rank.has_nonnegative_rank(g, lam, base)
        oracle = RankOracle(g).has_nonnegative_rank(lam)
        _check(checks, "dhar-vs-class-enumeration", main == oracle,
               f"dhar={main} oracle={oracle}")
    all_pass = all(c["pass"] for c in checks)
    return "ok", {"pass": all_pass, "checks": checks}, []


def _small_box(d: int, radius: int):
    return itertools.product(range(-radius, radius + 1), repeat=d)
