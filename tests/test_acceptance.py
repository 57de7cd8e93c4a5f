"""Acceptance suite: one pass/fail line per criterion, each with its
stated tolerance (exact rational equality throughout) and time budget."""

import itertools
import random
import time
from fractions import Fraction

from okbodies.curves import (ArakelovFlag, CurveBodyJob, TropicalFlag,
                             compute_body, cross_verify, stabilization)
from okbodies.errors import EmptySystemError
from okbodies.graphs import Divisor, Graph, GraphFunction, graph_diameter, laplacian, m_statistic
from okbodies.linsys import LinearSystemSpec, member, minimal_element, pointwise_min, zariski_shift
from okbodies.oracles import RankOracle
from okbodies.polyhedra import VPolyhedron, enumerate_v_rep, project_out, vrep_equal
from okbodies.rank import has_nonnegative_rank
from okbodies.sampling import random_divisor, random_graph, random_member
from okbodies.toric import (ToricFlag, ToricModel, build_generic_polytope,
                            build_model_polyhedron, monomial_valuation,
                            psi_value, toric_body, toric_body_projection,
                            toric_body_vertexmap, NOT_A_SECTION)

F = Fraction


def quartic():
    return Graph(["P", "Q1", "Q2", "P'"],
                 [("P", "Q1"), ("P", "Q1"), ("P", "Q2"), ("P", "Q2"),
                  ("Q1", "P'"), ("Q2", "P'")])


def quartic_lam(g):
    return Divisor(g, {"P": 2, "Q1": 1, "Q2": 1, "P'": 0})


def _report(num, label, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s) {label}")
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s >= {budget}s"


def test_acceptance_1_quartic_tropical():
    t0 = time.perf_counter()
    g = quartic()
    body = compute_body(CurveBodyJob(g, quartic_lam(g),
                                     TropicalFlag(Divisor(g, [1, 0, 0, 0]), "P")))
    assert body.lower.breakpoints == ((0, 0), (2, 0), (4, F(1, 2)))
    assert body.lower.value_at(1) == 0
    assert body.lower.value_at(3) == F(1, 4)
    assert body.recession == (0, 1)
    _report(1, "quartic tropical body breakpoints (0,0),(2,0),(4,1/2)", t0, 1)


def test_acceptance_2_quartic_arakelov():
    t0 = time.perf_counter()
    g = quartic()
    body = compute_body(CurveBodyJob(g, quartic_lam(g), ArakelovFlag("P")))
    assert body.upper.value_at(0) == 2
    assert body.upper.breakpoints == ((0, 2), (F(1, 2), 4))
    assert body.upper.tail_slope == 0
    assert stabilization(body) == (F(1, 2), 4)
    assert body.recession == (1, 0)
    _report(2, "quartic Arakelov body b(0)=2, corner (1/2,4), t*=1/2", t0, 1)


def test_acceptance_3_laplacian_regression():
    t0 = time.perf_counter()
    g = quartic()
    rng = random.Random(101)
    for _ in range(20):
        p, q1, q2, pp = [F(rng.randint(-30, 30), rng.randint(1, 12))
                         for _ in range(4)]
        lap = laplacian(g, GraphFunction(g, [p, q1, q2, pp]))
        assert lap.values == (4 * p - 2 * q1 - 2 * q2,
                              3 * q1 - 2 * p - pp,
                              3 * q2 - 2 * p - pp,
                              2 * pp - q1 - q2)
    _report(3, "Laplacian closed form = edge sum on 20 random functions", t0, 1)


def test_acceptance_4_semimodule():
    t0 = time.perf_counter()
    rng = random.Random(103)
    done = 0
    while done < 200:
        g = random_graph(rng, max_vertices=6)
        spec = LinearSystemSpec(g, random_divisor(rng, g), rng.random() < 0.5)
        phi1 = random_member(rng, spec, steps=2)
        phi2 = random_member(rng, spec, steps=2)
        if phi1 is None or phi2 is None:
            continue
        assert member(spec, pointwise_min(phi1, phi2))
        done += 1
    _report(4, "pointwise_min stays a member on 200 random systems", t0, 60)


def test_acceptance_5_diameter_bounds():
    t0 = time.perf_counter()
    rng = random.Random(107)
    for _ in range(200):
        g = random_graph(rng, max_vertices=6)
        phi = GraphFunction(g, [F(rng.randint(-24, 24), rng.randint(1, 6))
                                for _ in g.vertices])
        spread = max(phi.values) - min(phi.values)
        assert spread <= m_statistic(laplacian(g, phi)) * max(graph_diameter(g), 1)
    done = 0
    while done < 200:
        g = random_graph(rng, max_vertices=5)
        lam = random_divisor(rng, g)
        spec = LinearSystemSpec(g, lam, True)
        phi = random_member(rng, spec, steps=2)
        if phi is None:
            continue
        theta = random_member(rng, spec, steps=2)
        # normalize both to vanish somewhere (allowed: subtracting the min
        # keeps membership in the non-effective system and only helps here)
        phi = phi - min(phi.values)
        theta = theta - min(theta.values)
        gap = max(abs(a - b) for a, b in zip(phi.values, theta.values))
        assert gap <= lam.degree() * max(graph_diameter(g), 1)
        done += 1
    _report(5, "diameter bounds on 200 + 200 random samples", t0, 60)


def _random_curve_job(rng):
    g = random_graph(rng, max_vertices=5)
    lam = random_divisor(rng, g, bound=4)
    v = g.vertices[rng.randrange(len(g.vertices))]
    if rng.random() < 0.5 and lam.degree() > 0:
        pick = rng.randrange(len(g.vertices))
        y1 = Divisor(g, [1 if i == pick else 0 for i in range(len(g.vertices))])
        return CurveBodyJob(g, lam, TropicalFlag(y1, v))
    return CurveBodyJob(g, lam, ArakelovFlag(v))


def test_acceptance_6_dual_algorithm():
    t0 = time.perf_counter()
    g = quartic()
    jobs = [CurveBodyJob(g, quartic_lam(g), TropicalFlag(Divisor(g, [1, 0, 0, 0]), "P")),
            CurveBodyJob(g, quartic_lam(g), ArakelovFlag("P"))]
    rng = random.Random(109)
    while len(jobs) < 52:
        jobs.append(_random_curve_job(rng))
    for job in jobs:
        try:
            report = cross_verify(job)
        except EmptySystemError:
            continue
        assert report.agree, f"disagreement at t = {report.first_disagreement}"
    _report(6, "least elements = support LPs on 2 paper + 50 random jobs", t0, 30)


def test_acceptance_7_minimal_element_contract():
    t0 = time.perf_counter()
    rng = random.Random(113)
    done = 0
    while done < 100:
        g = random_graph(rng, max_vertices=5)
        spec = LinearSystemSpec(g, random_divisor(rng, g), True)
        pi = minimal_element(spec)
        if pi is None:
            continue
        assert member(spec, pi)
        phi = random_member(rng, spec, steps=2)
        assert all(a >= b for a, b in zip(phi.values, pi.values))
        shifted, _ = zariski_shift(spec)
        zero = minimal_element(LinearSystemSpec(g, shifted, True))
        assert zero == GraphFunction.zero(g)
        done += 1
    _report(7, "minimal element is a member, a lower bound, and shifts to 0", t0, 60)


def _rank_grid_graphs(max_v=4, max_e=6):
    """Connected multigraphs up to isomorphism (loops and parallels in)."""
    seen = set()
    out = []
    for n in range(1, max_v + 1):
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        names = [f"v{i}" for i in range(n)]
        for k in range(max(n - 1, 0), max_e + 1):
            for combo in itertools.combinations_with_replacement(pairs, k):
                parent = list(range(n))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for i, j in combo:
                    parent[find(i)] = find(j)
                if len({find(i) for i in range(n)}) != 1:
                    continue
                canon = min(tuple(sorted(tuple(sorted((p[i], p[j]))) for i, j in combo))
                            for p in itertools.permutations(range(n)))
                if (n, canon) in seen:
                    continue
                seen.add((n, canon))
                out.append(Graph(names, [(names[i], names[j]) for i, j in combo]))
    return out


def test_acceptance_8_rank_grid():
    t0 = time.perf_counter()
    graphs = _rank_grid_graphs()
    total = 0
    for g in graphs:
        oracle = RankOracle(g)
        n = len(g.vertices)
        for coeffs in itertools.product(range(-3, 4), repeat=n):
            lam = Divisor(g, list(coeffs))
            assert has_nonnegative_rank(g, lam) == oracle.has_nonnegative_rank(lam)
            total += 1
    _report(8, f"Dhar = integer class search on {total} divisors over "
               f"{len(graphs)} graphs", t0, 60)


def _toric_examples():
    m1 = ToricModel(1, [((1,), 0), ((-1,), 1)], [((0,), 0), ((1,), 0)])
    f1 = ToricFlag([((1, 0), 0), ((1, 1), 0)])
    m2 = ToricModel(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)],
                    [((0, 0), 0), ((1, 0), 0)])
    f2 = ToricFlag([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 0)])
    return [(m1, f1), (m2, f2)]


def test_acceptance_9_toric_suite():
    t0 = time.perf_counter()
    rng = random.Random(127)
    for m, flag in _toric_examples():
        d = m.ambient_dim
        pd = build_generic_polytope(m)
        pm = build_model_polyhedron(m)
        # (i) eliminating h recovers P_D exactly
        assert sorted(project_out(pm, [d]).constraints) == sorted(pd.constraints)
        # (ii) overgraph identity at 250 points per example (500 total)
        for _ in range(250):
            pt = tuple(F(rng.randint(-12, 12), 6) for _ in range(d))
            h = F(rng.randint(-6, 30), 6)
            assert pm.contains(pt + (h,)) == (pd.contains(pt) and h >= psi_value(m, pt))
        # (iii) vertex-map body equals the FM-projected body
        body = toric_body_vertexmap(m, flag)
        assert vrep_equal(body, toric_body_projection(m, flag))
        # (iv) every integral monomial valuation lies in the body
        for pt in itertools.product(range(-3, 4), repeat=d):
            for h in range(0, 5):
                val = monomial_valuation(m, flag, pt, h)
                if val is not NOT_A_SECTION:
                    assert body.contains([F(x) for x in val])
    _report(9, "toric projection, overgraph, dual-route and valuation checks", t0, 5)


def _sample_body_points(body, rng, count):
    pts = []
    if isinstance(body, VPolyhedron):
        verts, rays = body.vertices, body.rays
        for _ in range(count):
            weights = [F(rng.randint(0, 6)) for _ in verts]
            if sum(weights) == 0:
                weights[0] = F(1)
            s = sum(weights)
            pt = [sum(w * v[i] for w, v in zip(weights, verts)) / s
                  for i in range(len(verts[0]))]
            for r in rays:
                c = F(rng.randint(0, 8), 3)
                pt = [a + c * b for a, b in zip(pt, r)]
            pts.append(tuple(pt))
        return pts
    f = body.lower if body.kind == "overgraph" else body.upper
    lo = f.domain_start
    hi = f.breakpoints[-1][0] + (2 if f.tail_slope is not None else 0)
    for _ in range(count):
        t = lo + (hi - lo) * F(rng.randint(0, 24), 24)
        if body.kind == "overgraph":
            y = f.value_at(t) + F(rng.randint(0, 9), 3)
        else:
            y = f.value_at(t) * F(rng.randint(0, 8), 8)
        pts.append((t, y))
    return pts


def test_acceptance_10_structural_invariants():
    t0 = time.perf_counter()
    rng = random.Random(131)
    g = quartic()
    bodies = [
        compute_body(CurveBodyJob(g, quartic_lam(g),
                                  TropicalFlag(Divisor(g, [1, 0, 0, 0]), "P")),
                     cross_check=False),
        compute_body(CurveBodyJob(g, quartic_lam(g), ArakelovFlag("P")),
                     cross_check=False),
    ]
    for _ in range(6):
        try:
            bodies.append(compute_body(_random_curve_job(rng), cross_check=False))
        except EmptySystemError:
            pass
    toric_bodies = [(toric_body(m, f), f)
                    for m, f in _toric_examples()]

    for body in bodies:
        r = body.recession
        for pt in _sample_body_points(body, rng, 100):
            assert body.contains(pt)
            assert body.contains((pt[0] + r[0], pt[1] + r[1]))
        # projection along the recession direction is bounded
        f = body.lower if body.kind == "overgraph" else body.upper
        if body.kind == "overgraph":
            assert f.tail_slope is None  # t-interval is bounded
        else:
            assert f.tail_slope == 0      # heights stay within [0, max b]

    for body, flag in toric_bodies:
        # recession = primitive image of the uniformizer direction (0,...,0,1)
        nu = tuple(w[-1] for w, _ in flag.rays)
        for pt in _sample_body_points(body, rng, 100):
            assert body.contains(pt)
            assert body.contains(tuple(a + b for a, b in zip(pt, nu)))
        # all rays parallel to nu: the projection along nu is a polytope
        for ray in body.rays:
            assert any(x != 0 for x in nu)
            scale = None
            for a, b in zip(ray, nu):
                if b != 0:
                    scale = F(a) / b
                    break
            assert scale is not None and scale > 0
            assert tuple(scale * b for b in nu) == ray
    _report(10, "recession closure and bounded projections on all bodies", t0, 60)
