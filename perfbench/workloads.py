"""The benchmark's workloads: seeded inputs and the op list of one pass.

Every workload turns a seed into a fixed list of ops.  An op's `run` is
the timed call into the program; its `check` runs afterwards, outside the
timer, and turns the returned value into (canonical bytes, dual-route
verdicts, problems).  The program only ever sees the generated job
documents or job objects.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from okbodies import cli, curves, jobs
from okbodies.graphs import Divisor, Graph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS_DIR = os.path.join(ROOT, "jobs")


@dataclass
class Checked:
    canonical: bytes
    verdicts: int = 0          # dual-route verdicts that passed
    problems: Tuple[str, ...] = ()


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Checked]


@dataclass
class Workload:
    name: str
    ops: List[Op]
    # the job document a fresh interpreter parses when set-up is timed
    setup_job: str
    # run once per benchmark run, outside the timed passes
    extra_checks: Optional[Callable[[], Checked]] = None


# Layers each workload never reaches; a traced run must count 0 calls.
BYPASSED = {
    "corpus": (),
    "curve-ladder": ("polyhedra.fm_eliminate", "polyhedra.enumerate_v_rep",
                     "jobs.parse_job", "jobs.run_job", "rank.q_reduced",
                     "cli.main"),
    "toric": ("parametric.parametric_value_function", "linsys.minimal_element",
              "rank.q_reduced", "cli.main"),
    "rank-sweep": ("simplex.solve_raw", "parametric.parametric_value_function",
                   "polyhedra.fm_eliminate", "polyhedra.enumerate_v_rep",
                   "cli.main"),
}


def frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------- corpus

# Jobs whose body is two-dimensional, so `--svg` can render it.
SVG_JOBS = {"quartic-tropical", "quartic-arakelov", "toric-d1"}


def _corpus_argv(name: str, doc: dict, out_dir: str) -> List[str]:
    kind = doc["kind"]
    payload = doc["payload"]
    if kind == "linsys":
        argv = ["linsys", payload["op"]]
    elif kind == "curve-body":
        argv = ["curve-body", payload["flag"]["type"]]
    else:
        argv = [kind]
    argv += ["--input", os.path.join(JOBS_DIR, name + ".json"),
             "--output", os.path.join(out_dir, name + ".json")]
    if name in SVG_JOBS:
        argv += ["--svg", os.path.join(out_dir, name + ".svg")]
    return argv


def _cli_op(name: str, argv: List[str], out_path: str, svg_path) -> Op:
    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def check(value) -> Checked:
        code, err = value
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {err.strip()}")
        with open(out_path) as fh:
            doc = json.load(fh)
        canonical = doc["canonical"]
        data = json.dumps(canonical, sort_keys=True, indent=2).encode()
        verdicts = 0
        if canonical["job"]["kind"] == "verify":
            if canonical["result"]["pass"]:
                verdicts = len(canonical["result"]["checks"])
            else:
                problems.append("verify reported a failing check")
        elif canonical["job"]["kind"] in ("curve-body", "toric-body"):
            verdicts = 1  # the built-in cross-check ran and agreed
        if svg_path is not None:
            with open(svg_path) as fh:
                if not fh.read().startswith("<svg"):
                    problems.append("svg output is not an svg document")
        return Checked(data, verdicts, tuple(problems))

    return Op(name, run, check)


def corpus(seed: int, out_dir: str) -> Workload:
    """The job files as a user runs them.  The seed is not used: passed as
    `--seed` to `verify-random-curves` it changed the pass length up to
    1.5x from seed to seed, since the sampled curves differ in size."""
    ops, texts = [], []
    for fname in sorted(os.listdir(JOBS_DIR)):
        if not fname.endswith(".json"):
            continue
        name = fname[:-5]
        with open(os.path.join(JOBS_DIR, fname)) as fh:
            texts.append(fh.read())
        doc = json.loads(texts[-1])
        argv = _corpus_argv(name, doc, out_dir)
        svg = os.path.join(out_dir, name + ".svg") if name in SVG_JOBS else None
        ops.append(_cli_op(name, argv, os.path.join(out_dir, name + ".json"), svg))
    return Workload("corpus", ops, texts[0])


# ---------------------------------------------------------- curve ladder

def ladder_graph(rng: random.Random, n: int) -> Graph:
    """The cycle C_n plus n//2 random chords (parallel edges allowed)."""
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    for _ in range(n // 2):
        a, b = rng.sample(range(n), 2)
        edges.append((names[a], names[b]))
    return Graph(names, edges)


def _body_bytes(body: curves.NOBody2D) -> bytes:
    f = body.lower if body.kind == "overgraph" else body.upper
    doc = {
        "kind": body.kind,
        "breakpoints": [[frac(t), frac(v)] for t, v in f.breakpoints],
        "tail_slope": None if f.tail_slope is None else frac(f.tail_slope),
        "recession": [frac(c) for c in body.recession],
    }
    return json.dumps(doc, sort_keys=True).encode()


def curve_job_doc(cjob: curves.CurveBodyJob) -> str:
    """The curve-body job document of a job object."""
    g = cjob.graph
    flag = {"type": "arakelov", "vertex": cjob.flag.vertex}
    if isinstance(cjob.flag, curves.TropicalFlag):
        flag = {"type": "tropical", "vertex": cjob.flag.vertex,
                "y1": {v: frac(q) for v, q in cjob.flag.y1_specialization.as_dict().items()}}
    return json.dumps({"kind": "curve-body", "payload": {
        "graph": {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]},
        "divisor": {v: frac(q) for v, q in cjob.lam.as_dict().items()},
        "flag": flag}})


def _curve_jobs(seed: int, sizes) -> List[Tuple[str, curves.CurveBodyJob]]:
    """The size ladder of ROADMAP.md: C_n plus n//2 chords drawn with
    random.Random(1), Lam(v) in [0, 3] from the same generator, flag
    vertex v0, Lam_1 = e_v0.  The seed shuffles each instance's vertex
    order, which leaves the body unchanged.  Drawing the instances from
    the seed instead made the largest one vary 1.8x in time between
    seeds."""
    base = random.Random(1)
    rng = random.Random(seed)
    out = []
    for n in sizes:
        g = ladder_graph(base, n)
        values = [base.randint(0, 3) for _ in range(n)]
        if not any(values):
            values[0] = 1
        order = list(g.vertices)
        rng.shuffle(order)
        g = Graph(order, g.edges)
        lam = Divisor(g, {f"v{i}": x for i, x in enumerate(values)})
        y1 = Divisor(g, {v: int(v == "v0") for v in order})
        out.append((f"tropical-n{n}", curves.CurveBodyJob(
            g, lam, curves.TropicalFlag(y1, "v0"))))
        out.append((f"arakelov-n{n}", curves.CurveBodyJob(
            g, lam, curves.ArakelovFlag("v0"))))
    return out


LADDER_SIZES = (4, 6, 8, 10)
# The dual route (FM projection) on the n = 6 instances takes about 20 s,
# so a run cross-checks n = 4 and the tests cross-check n <= 6.
CROSS_VERIFY_MAX_N = 4


def curve_ladder(seed: int, out_dir: str) -> Workload:
    cjobs = _curve_jobs(seed, LADDER_SIZES)
    bodies = {}

    def make(name, cjob):
        def run():
            return curves.compute_body(cjob, cross_check=False)

        def check(body) -> Checked:
            bodies[name] = body
            problems = []
            f = body.lower if body.kind == "overgraph" else body.upper
            want = "convex" if body.kind == "overgraph" else "concave"
            if f.shape != want:
                problems.append(f"{name}: shape {f.shape}, want {want}")
            return Checked(_body_bytes(body), 0, tuple(problems))
        return Op(name, run, check)

    def extra() -> Checked:
        """Both routes on the small instances, against the timed bodies."""
        verdicts, problems = 0, []
        for name, cjob in cjobs:
            if len(cjob.graph.vertices) > CROSS_VERIFY_MAX_N:
                continue
            report = curves.cross_verify(cjob)
            f = bodies[name].lower if report.kind == "tropical" else bodies[name].upper
            if report.agree and report.parametric.breakpoints == f.breakpoints:
                verdicts += 1
            else:
                problems.append(f"{name}: routes disagree at "
                                f"{report.first_disagreement}")
        return Checked(b"", verdicts, tuple(problems))

    return Workload("curve-ladder", [make(n, j) for n, j in cjobs],
                    curve_job_doc(cjobs[0][1]), extra)


# ----------------------------------------------------------------- toric

def _box(*extents):
    """Generic rays +-e_i with coefficients (a_i for +e_i, b_i for -e_i)."""
    d = len(extents)
    rays = []
    for i, (a, b) in enumerate(extents):
        e = tuple(int(i == j) for j in range(d))
        rays += [(e, a), (tuple(-x for x in e), b)]
    return tuple(rays)


# One base model per op of a pass: (kind, generic rays, vertical vertices).
# Generic rays are +-e_i plus a few extra primitive rays; vertical vertex 0
# has coefficient 0.  Keep d = 3 at 6 generic rays and 2 vertical vertices:
# one more of each makes a single body take tens of seconds.
TORIC_BASES = (
    ("toric-body", _box((2, 1)), (((0,), 0), ((1,), 0))),
    ("toric-body", _box((3, 2)), (((0,), 0), ((1,), 1), ((-1,), 1))),
    ("verify", _box((2, 2)), (((0,), 0), ((1,), 0))),
    ("toric-body", _box((2, 2), (3, 1)) + (((1, 1), 3),),
     (((0, 0), 0), ((1, 0), 1))),
    ("toric-body", _box((2, 2), (2, 2)) + (((1, -1), 2),),
     (((0, 0), 0), ((0, 1), 0), ((1, 1), 1))),
    ("toric-body", _box((3, 2), (2, 2)) + (((-1, 1), 2),),
     (((0, 0), 0), ((1, -1), 1))),
    ("verify", _box((2, 2), (2, 2)), (((0, 0), 0), ((1, 1), 0))),
    ("toric-body", _box((2, 2), (2, 2), (2, 2)),
     (((0, 0, 0), 0), ((1, 1, 0), 0))),
)


def toric_model_doc(rng: random.Random, rays, verts) -> dict:
    """A seeded lattice symmetry of a base model: the seed permutes the
    coordinates and flips their signs, which keeps the combinatorics and
    so the work nearly the same from seed to seed.  The flag is the
    coordinate rays plus (0,...,0,1), so it is unimodular by construction."""
    d = len(verts[0][0])
    perm = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]

    def move(v):
        return [signs[i] * v[perm[i]] for i in range(d)]

    rays = [(move(u), a) for u, a in rays]
    coeff = {tuple(u): a for u, a in rays}
    flag = [[[int(i == j) for j in range(d)] + [0],
             coeff[tuple(int(i == j) for j in range(d))]] for i in range(d)]
    flag.append([[0] * d + [1], 0])
    return {
        "model": {"ambient_dim": d,
                  "generic_rays": [[u, a] for u, a in rays],
                  "vertical_vertices": [[move(v), a] for v, a in verts]},
        "flag": {"rays": flag},
    }


def _job_op(name: str, text: str, seed) -> Op:
    def run():
        return jobs.run_job(jobs.parse_job(text), seed=seed)

    def check(result) -> Checked:
        problems = []
        if result.exit_code != 0:
            problems.append(f"{name}: status {result.status}")
        verdicts = 0
        kind = result.job.kind
        if kind == "verify":
            if result.result["pass"]:
                verdicts = len(result.result["checks"])
            else:
                problems.append(f"{name}: verify reported a failing check")
        elif kind == "toric-body":
            verdicts = 1  # the built-in cross-check ran and agreed
        return Checked(result.canonical_bytes(), verdicts, tuple(problems))

    return Op(name, run, check)


def toric(seed: int, out_dir: str) -> Workload:
    rng = random.Random(seed)
    ops, texts = [], []
    for k, (kind, rays, verts) in enumerate(TORIC_BASES):
        d = len(verts[0][0])
        payload = toric_model_doc(rng, rays, verts)
        if kind == "verify":
            payload = dict(payload, target="toric-body")
        texts.append(json.dumps({"kind": kind, "payload": payload}))
        ops.append(_job_op(f"{kind}-d{d}-{k}", texts[-1], seed))
    return Workload("toric", ops, texts[0])


# ------------------------------------------------------------ rank sweep

RANK_SIZES = (8, 12, 16, 20, 24)
RANK_DIVISORS = 48


def _rank_op(name: str, text: str, values: List[int]) -> Op:
    inner = _job_op(name, text, None)

    def check(result) -> Checked:
        checked = inner.check(result)
        reduced = result.result["reduced"]
        base = result.result["base"]
        problems = list(checked.problems)
        if sum(reduced.values()) != sum(values):
            problems.append(f"{name}: reduction changed the degree")
        if any(c < 0 for v, c in reduced.items() if v != base):
            problems.append(f"{name}: reduced divisor negative off the base")
        if result.result["rank_nonnegative"] != (reduced[base] >= 0):
            problems.append(f"{name}: rank verdict disagrees with the reduced form")
        return Checked(checked.canonical, 0, tuple(problems))

    return Op(name, inner.run, check)


def rank_sweep(seed: int, out_dir: str) -> Workload:
    """Five graphs C_n plus n//2 chords and their divisors, all drawn with
    random.Random(1); the seed shuffles the vertex order after the base
    vertex v0, which leaves every reduced divisor unchanged.  Drawing the
    divisors from the seed instead made the pass vary 1.8x and its slowest
    op 2.4x between seeds, as the cost of Dhar burning has a heavy tail."""
    base = random.Random(1)
    rng = random.Random(seed)
    ops, texts = [], []
    for n in RANK_SIZES:
        g = ladder_graph(base, n)
        order = ["v0"] + rng.sample(g.vertices[1:], n - 1)
        gdoc = {"vertices": order, "edges": [list(e) for e in g.edges]}
        for k in range(RANK_DIVISORS):
            bound = 3 if k % 2 == 0 else 4 * n
            values = [base.randint(-bound, bound) for _ in range(n)]
            doc = {"kind": "rank", "payload": {
                "graph": gdoc,
                "divisor": {f"v{i}": x for i, x in enumerate(values)}}}
            texts.append(json.dumps(doc))
            ops.append(_rank_op(f"rank-n{n}-{k}", texts[-1], values))
    return Workload("rank-sweep", ops, texts[0])


WORKLOADS = {
    "corpus": corpus,
    "curve-ladder": curve_ladder,
    "toric": toric,
    "rank-sweep": rank_sweep,
}
