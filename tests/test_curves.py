import dataclasses
import json
import random
import time
from fractions import Fraction

import pytest

from okbodies import curves
from okbodies.curves import (ArakelovFlag, CurveBodyJob, TropicalFlag,
                             _parametric_body, _support_image,
                             arakelov_body_projection, combinatorial_body,
                             compute_body, cross_verify, stabilization,
                             tropical_body_projection)
from okbodies.errors import EmptySystemError, NonPositiveDegree, OkbodiesError
from okbodies.graphs import Divisor, Graph
from okbodies.jobs import parse_job
from okbodies.linsys import LinearSystemSpec, build_system, minimal_element
from okbodies.plf import PiecewiseLinearFunction
from okbodies.polyhedra import HPolyhedron, enumerate_v_rep, project_out
from okbodies.sampling import random_divisor, random_graph, random_rational
from tests.test_cli import _ladder_doc
from tests.test_graphs import quartic

F = Fraction


def quartic_lam(g):
    return Divisor(g, {"P": 2, "Q1": 1, "Q2": 1, "P'": 0})


def test_quartic_tropical():
    g = quartic()
    job = CurveBodyJob(g, quartic_lam(g),
                       TropicalFlag(Divisor(g, [1, 0, 0, 0]), "P"))
    body = compute_body(job)
    assert body.kind == "overgraph"
    assert body.lower.breakpoints == ((0, 0), (2, 0), (4, F(1, 2)))
    assert body.recession == (0, 1)
    assert body.warnings == ()
    # a(t) = 0 on [0,2], (t-2)/4 on [2,4]
    assert body.lower.value_at(1) == 0
    assert body.lower.value_at(3) == F(1, 4)
    assert body.contains((3, 10)) and not body.contains((3, 0))


def test_quartic_arakelov():
    g = quartic()
    job = CurveBodyJob(g, quartic_lam(g), ArakelovFlag("P"))
    body = compute_body(job)
    assert body.kind == "band"
    assert body.upper.breakpoints == ((0, 2), (F(1, 2), 4))
    assert body.upper.tail_slope == 0
    assert stabilization(body) == (F(1, 2), 4)
    assert body.recession == (1, 0)
    assert body.contains((10, 4)) and not body.contains((10, F(9, 2)))
    assert body.contains((0, 0)) and not body.contains((0, F(5, 2)))


def test_path_tropical_identity():
    # a-b path, lam = 2(a), flag divisor (b), flag vertex b: a(t) = t on [0,2]
    g = Graph(["a", "b"], [("a", "b")])
    job = CurveBodyJob(g, Divisor(g, [2, 0]),
                       TropicalFlag(Divisor(g, [0, 1]), "b"))
    body = compute_body(job)
    assert body.lower.breakpoints == ((0, 0), (2, 2))


def test_path_arakelov_constant():
    # a-b path, lam = 2(a), flag vertex a: b(t) = 2 for all t >= 0
    g = Graph(["a", "b"], [("a", "b")])
    job = CurveBodyJob(g, Divisor(g, [2, 0]), ArakelovFlag("a"))
    body = compute_body(job)
    assert body.upper.breakpoints == ((0, 2),)
    assert body.upper.tail_slope == 0
    assert body.upper.value_at(17) == 2


def test_arakelov_empty_system(monkeypatch):
    # negative degree: no member of the effective system can exist, and
    # deg Lam < 0 confirms the least-element route's finding with no LP
    calls = []
    monkeypatch.setattr(curves, "_parametric_body", lambda job: calls.append(job))
    g = Graph(["a", "b"], [("a", "b")])
    job = CurveBodyJob(g, Divisor(g, [-3, 2]), ArakelovFlag("a"))
    with pytest.raises(EmptySystemError):
        compute_body(job)
    with pytest.raises(EmptySystemError, match="the effective system is empty"):
        cross_verify(job)
    assert calls == []


def test_least_elements_are_empty_exactly_below_degree_0():
    # the closed form the cross-check confirms empty systems with: on a
    # connected graph, L+(Lam) over Q is empty iff deg Lam < 0
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng, max_vertices=7)
        lam = Divisor(g, [random_rational(rng, -3, 3) for _ in g.vertices])
        empty = minimal_element(LinearSystemSpec(g, lam, True)) is None
        assert empty == (lam.degree() < 0), lam.values


def test_projection_of_an_empty_system_fails_fast():
    # draws of random.Random(5) with deg Lam < 0 whose lift makes every
    # redundancy LP infeasible: before FM recorded an empty system as the
    # one row 0 >= 1, each ran for more than 5 s
    rng = random.Random(5)
    pinned = {5, 33, 63}
    met = set()
    for k in range(max(pinned) + 1):
        g = random_graph(rng, max_vertices=6)
        lam = random_divisor(rng, g, bound=4)
        if lam.degree() >= 0:
            continue
        v = g.vertices[rng.randrange(len(g.vertices))]
        if k in pinned:
            met.add(k)
            t0 = time.perf_counter()
            with pytest.raises(EmptySystemError):
                arakelov_body_projection(CurveBodyJob(g, lam, ArakelovFlag(v)))
            assert time.perf_counter() - t0 < 5, k
    assert met == pinned


def test_arakelov_shifted_start_warning():
    # lam = 2(a) - 1(b): minimal element is (0, 1), so the band at vertex b
    # starts at t = 1 and the discrepancy is reported, not hidden
    g = Graph(["a", "b"], [("a", "b")])
    job = CurveBodyJob(g, Divisor(g, [2, -1]), ArakelovFlag("b"))
    body = compute_body(job)
    assert body.upper.domain_start == 1
    assert body.warnings and "t = 1" in body.warnings[0]


def test_route_disagreement_is_named():
    # what compute_body reports when the parametric route's body differs
    g = quartic()
    overgraph = compute_body(CurveBodyJob(g, quartic_lam(g),
                                          TropicalFlag(Divisor(g, [1, 0, 0, 0]), "P")))
    band = compute_body(CurveBodyJob(g, quartic_lam(g), ArakelovFlag("P")))
    assert curves._disagreement(band, band) == (None, "")
    # the kinds differ, and so do the boundaries
    assert curves._disagreement(band, overgraph) == (0, "first disagreement at t = 0")
    assert curves._disagreement(band, "an empty system (x)") == (
        None, "the parametric route finds an empty system (x)")
    late = dataclasses.replace(band, upper=PiecewiseLinearFunction(
        ((F(1, 4), F(3)), (F(1, 2), F(4))), tail_slope=F(0), shape="concave"))
    assert curves._disagreement(band, late) == (0, "first disagreement at t = 0")
    warned = dataclasses.replace(band, warnings=("w",))
    assert curves._disagreement(band, warned) == (None, "different warnings: () vs ('w',)")


def test_flag_validation():
    g = Graph(["a", "b"], [("a", "b")])
    with pytest.raises(NonPositiveDegree):
        CurveBodyJob(g, Divisor(g, [1, 0]), TropicalFlag(Divisor.zero(g), "a"))
    with pytest.raises(NonPositiveDegree):
        CurveBodyJob(g, Divisor(g, [0, 0]),
                     TropicalFlag(Divisor(g, [1, 0]), "a"))


def test_cross_verify_agreement():
    g = quartic()
    for flag in (TropicalFlag(Divisor(g, [1, 0, 0, 0]), "P"), ArakelovFlag("P")):
        job = CurveBodyJob(g, quartic_lam(g), flag)
        report = cross_verify(job)
        assert report.agree
        assert report.first_disagreement is None
        assert report.body == compute_body(job, cross_check=False)


def test_random_jobs_both_routes():
    rng = random.Random(47)
    done = 0
    while done < 15:
        g = random_graph(rng, max_vertices=4)
        lam = random_divisor(rng, g, bound=3)
        v = g.vertices[rng.randrange(len(g.vertices))]
        if rng.random() < 0.5 and lam.degree() > 0:
            pick = rng.randrange(len(g.vertices))
            y1 = Divisor(g, [1 if i == pick else 0 for i in range(len(g.vertices))])
            job = CurveBodyJob(g, lam, TropicalFlag(y1, v))
        else:
            job = CurveBodyJob(g, lam, ArakelovFlag(v))
        try:
            body = compute_body(job)  # cross-check on: raises on mismatch
        except EmptySystemError:
            continue
        # recession closure at every breakpoint
        f = body.lower if body.kind == "overgraph" else body.upper
        for t, y in f.breakpoints:
            assert body.contains((t + body.recession[0], y + body.recession[1]))
        done += 1



def _grid(body):
    """Rational points around every breakpoint of the body's boundary and
    on both sides of every edge: the abscissae of the breakpoints, of the
    edges' midpoints and of a point on the tail, each moved by 0, +-1/7
    and +-1, against the heights 0 and the boundary's value there, moved
    the same."""
    f = body.boundary
    bps = f.breakpoints
    ts = [t for t, _ in bps] + [(a + b) / 2 for (a, _), (b, _) in zip(bps, bps[1:])]
    if f.tail_slope is not None:
        ts.append(bps[-1][0] + 1)
    steps = (0, F(1, 7), -F(1, 7), 1, -1)
    return {(t + dt, y + dy) for t in ts for y in (0, f.value_at(t))
            for dt in steps for dy in steps}


def test_halfplanes_cut_out_the_body():
    # seeded jobs with rational Lam and Lam1, both flags, then a one-point
    # domain, a band that is all tail and a band that starts at t = 1
    rng = random.Random(53)
    bodies = []
    while len(bodies) < 30:
        g = random_graph(rng, max_vertices=5, max_extra_edges=3)
        n = len(g.vertices)
        lam = Divisor(g, [random_rational(rng, -2, 3, 3) for _ in range(n)])
        v = g.vertices[rng.randrange(n)]
        if rng.random() < 0.5:
            y1 = Divisor(g, [random_rational(rng, 0, 2, 3) for _ in range(n)])
            if y1.degree() <= 0 or lam.degree() <= 0:
                continue
            job = CurveBodyJob(g, lam, TropicalFlag(y1, v))
        else:
            job = CurveBodyJob(g, lam, ArakelovFlag(v))
        try:
            bodies.append(compute_body(job, cross_check=False))
        except EmptySystemError:
            pass
    assert {b.kind for b in bodies} == {"overgraph", "band"}
    g = Graph(["a", "b"], [("a", "b")])
    point = PiecewiseLinearFunction(((F(3, 2), F(-1, 3)),))
    bodies += [curves.NOBody2D("overgraph", point, None, (F(0), F(1))),
               compute_body(CurveBodyJob(g, Divisor(g, [2, 0]), ArakelovFlag("a"))),
               compute_body(CurveBodyJob(g, Divisor(g, [2, -1]), ArakelovFlag("b")))]
    assert bodies[-1].boundary.domain_start == 1
    for body in bodies:
        rows = body.halfplanes()
        verdicts = set()
        for p in _grid(body):
            inside = all(a[0] * p[0] + a[1] * p[1] >= b for a, b in rows)
            assert inside == body.contains(p), (body, p)
            verdicts.add(inside)
        assert verdicts == {True, False}

def _outcome(route, job):
    """The body a route builds, or the class and message it rejects with."""
    try:
        return route(job)
    except OkbodiesError as exc:
        return type(exc).__name__, str(exc)


def test_least_element_route_matches_parametric():
    # seeded jobs with rational Lam and Lam1 on random multigraphs (n = 1
    # graphs, loops and parallel edges included), both flags
    rng = random.Random(71)
    bodies, warned, kinds, single, rejected = 0, 0, set(), 0, []
    while bodies + len(rejected) < 1200:
        g = random_graph(rng, max_vertices=5, max_extra_edges=4)
        n = len(g.vertices)
        lam = Divisor(g, [random_rational(rng, -2, 3, 3) for _ in range(n)])
        v = g.vertices[rng.randrange(n)]
        if rng.random() < 0.5:
            y1 = Divisor(g, [random_rational(rng, 0, 2, 3) for _ in range(n)])
            if y1.degree() <= 0 or lam.degree() <= 0:
                continue
            job = CurveBodyJob(g, lam, TropicalFlag(y1, v))
        else:
            job = CurveBodyJob(g, lam, ArakelovFlag(v))
        body = _outcome(combinatorial_body, job)
        assert body == _outcome(_parametric_body, job), job
        if isinstance(body, tuple):
            rejected.append(body[0])
            continue
        bodies += 1
        warned += bool(body.warnings)
        kinds.add(body.kind)
        single += n == 1
    assert kinds == {"overgraph", "band"}
    assert set(rejected) == {"EmptySystemError"}  # deg Lam > 0 keeps L+(Lam) nonempty
    assert bodies >= 900 and len(rejected) >= 150 and warned >= 100 and single >= 50


def test_simultaneous_ties():
    # star on v with leaves x, y (and u for the tropical case): both leaves
    # reach w = 0 at the same t and enter the active set together
    g = Graph(["v", "x", "y"], [("v", "x"), ("v", "y")])
    job = CurveBodyJob(g, Divisor(g, {"v": 0, "x": 1, "y": 1}), ArakelovFlag("v"))
    body = compute_body(job)
    assert body.upper.breakpoints == ((0, 0), (1, 2)) and body.upper.tail_slope == 0
    assert cross_verify(job).agree
    g = Graph(["v", "x", "y", "u"], [("v", "x"), ("v", "y"), ("v", "u")])
    job = CurveBodyJob(g, Divisor(g, {"v": 2, "x": 1, "y": 1, "u": 5}),
                       TropicalFlag(Divisor(g, {"v": 1, "x": 0, "y": 0, "u": 0}), "v"))
    body = compute_body(job)
    assert body.lower.breakpoints == ((0, 0), (2, 0), (5, 1), (9, 5))
    assert cross_verify(job).agree


def _reordered(job, order):
    """The same job with the graph's vertices listed in `order`."""
    g = Graph(order, job.graph.edges)
    flag = job.flag
    if isinstance(flag, TropicalFlag):
        y1 = flag.y1_specialization
        flag = TropicalFlag(Divisor(g, {v: y1[v] for v in order}), flag.vertex)
    return CurveBodyJob(g, Divisor(g, {v: job.lam[v] for v in order}), flag)


def _ladder8_jobs():
    """C_8 plus four chords, Lam(v) in [0, 3], flag vertex v0, Lam1 = (v0)."""
    rng = random.Random(1)
    names = [f"v{i}" for i in range(8)]
    edges = [(names[i], names[(i + 1) % 8]) for i in range(8)]
    edges += [tuple(names[i] for i in rng.sample(range(8), 2)) for _ in range(4)]
    g = Graph(names, edges)
    lam = Divisor(g, [rng.randint(0, 3) for _ in names])
    y1 = Divisor(g, {v: int(v == "v0") for v in names})
    return [CurveBodyJob(g, lam, TropicalFlag(y1, "v0")),
            CurveBodyJob(g, lam, ArakelovFlag("v0"))]


def test_projection_does_not_depend_on_the_vertex_order():
    # seeded jobs with both flags, and the 8-vertex ladder instance, each
    # projected again under a shuffled vertex list
    rng = random.Random(89)
    cases = _ladder8_jobs()
    while len(cases) < 32:
        g = random_graph(rng, max_vertices=5)
        lam = random_divisor(rng, g, bound=3)
        v = g.vertices[rng.randrange(len(g.vertices))]
        if rng.random() < 0.5 and lam.degree() > 0:
            pick = rng.randrange(len(g.vertices))
            y1 = Divisor(g, [1 if i == pick else 0 for i in range(len(g.vertices))])
            cases.append(CurveBodyJob(g, lam, TropicalFlag(y1, v)))
        elif minimal_element(LinearSystemSpec(g, lam)) is not None:
            cases.append(CurveBodyJob(g, lam, ArakelovFlag(v)))
    for job in cases:
        body = combinatorial_body(job)
        if body.kind == "overgraph":
            route, project = body.lower, tropical_body_projection
        else:
            route, project = body.upper, arakelov_body_projection
        f = project(job)
        assert f == route, job
        order = list(job.graph.vertices)
        rng.shuffle(order)
        assert project(_reordered(job, order)) == f, (job, order)
    assert {type(job.flag) for job in cases} == {TropicalFlag, ArakelovFlag}


def _fm_image(job):
    """The image of the same lift by Fourier-Motzkin, the reference for
    the support LPs."""
    g = job.graph
    n, iv = len(g.vertices), g.index(job.flag.vertex)
    if isinstance(job.flag, TropicalFlag):
        direction = job.flag.y1_specialization.values
    else:
        direction = [int(i == iv) for i in range(n)]
    rows = build_system(LinearSystemSpec(g, job.lam, True)).constraints
    lift = [((*a, -d), b) for (a, b), d in zip(rows, [*direction] + [0] * n)]
    lift.append(((0,) * n + (1,), 0))
    return enumerate_v_rep(
        project_out(HPolyhedron(n + 1, lift), [i for i in range(n) if i != iv]))


def test_support_lps_match_fourier_motzkin():
    # seeded jobs on up to 6 vertices, both flags, empty Arakelov systems
    # included: the two images are equal as built
    rng = random.Random(11)
    flags, empty = set(), 0
    for _ in range(300):
        g = random_graph(rng, max_vertices=6)
        lam = random_divisor(rng, g, bound=4)
        v = g.vertices[rng.randrange(len(g.vertices))]
        if rng.random() < 0.5 and lam.degree() > 0:
            pick = rng.randrange(len(g.vertices))
            y1 = Divisor(g, [1 if i == pick else 0 for i in range(len(g.vertices))])
            job = CurveBodyJob(g, lam, TropicalFlag(y1, v))
        else:
            job = CurveBodyJob(g, lam, ArakelovFlag(v))
        image = _support_image(job)
        assert image == _fm_image(job), job
        flags.add(type(job.flag))
        empty += image.is_empty()
    assert flags == {TropicalFlag, ArakelovFlag} and empty >= 50


@pytest.mark.parametrize("n", [8, 10, 14, 20, 30])
def test_support_lps_per_breakpoint(monkeypatch, n):
    # one cold solve per support LP: two for the range, two for its end
    # points, one per edge and one per interior breakpoint:
    # 2*(breakpoints) + 1, and no more
    calls = []
    solve_raw = curves.solve_raw

    def counted(*args):
        calls.append(args)
        return solve_raw(*args)

    monkeypatch.setattr(curves, "solve_raw", counted)
    for flag, project in (("tropical", tropical_body_projection),
                          ("arakelov", arakelov_body_projection)):
        (job,) = parse_job(json.dumps(_ladder_doc(n, flag))).parsed
        calls.clear()
        f = project(job)
        assert len(f.breakpoints) >= 2
        assert len(calls) == 2 * len(f.breakpoints) + 1, (flag, len(f.breakpoints))
