import itertools
import json
import random
from fractions import Fraction

import pytest

from okbodies import linalg
from okbodies.errors import NonIntegerDivisor
from okbodies.graphs import Divisor, Graph
from okbodies.jobs import parse_job, run_job
from okbodies.oracles import RankOracle, rank_boxed_search
from okbodies.rank import has_nonnegative_rank, q_reduced
from okbodies.sampling import random_graph
from tests.test_graphs import quartic


def test_quartic_hyperplane_section():
    g = quartic()
    lam = Divisor(g, {"P": 2, "Q1": 1, "Q2": 1, "P'": 0})
    assert has_nonnegative_rank(g, lam)
    assert rank_boxed_search(g, lam)


def test_negative_degree():
    g = Graph(["a"], [])
    assert not has_nonnegative_rank(g, Divisor(g, [-1]))


def test_small_instances():
    g = Graph(["a", "b"], [("a", "b")])
    assert has_nonnegative_rank(g, Divisor(g, [1, 0]))
    assert has_nonnegative_rank(g, Divisor(g, [-1, 2]))
    # on a tree, degree-0 divisors are principal, hence winnable
    assert has_nonnegative_rank(g, Divisor(g, [-1, 1]))
    # on a 3-cycle the Jacobian is Z/3: (1,-1,0) is not equivalent to 0
    c3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert not has_nonnegative_rank(c3, Divisor(c3, [1, -1, 0]))
    assert has_nonnegative_rank(c3, Divisor(c3, [1, 0, 0]))


def test_reduced_divisor_properties():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, max_vertices=5)
        lam = Divisor(g, [rng.randint(-4, 4) for _ in g.vertices])
        for base in g.vertices:
            red = q_reduced(g, lam, base)
            q = g.index(base)
            # non-negative away from the base
            assert all(red[i] >= 0 for i in range(len(red)) if i != q)
            # degree preserved (reduction is by chip-firing moves)
            assert sum(red) == int(lam.degree())


def test_base_independence():
    rng = random.Random(37)
    for _ in range(40):
        g = random_graph(rng, max_vertices=5)
        lam = Divisor(g, [rng.randint(-3, 3) for _ in g.vertices])
        answers = {has_nonnegative_rank(g, lam, base) for base in g.vertices}
        assert len(answers) == 1


def test_against_boxed_search_small():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    for coeffs in itertools.product(range(-2, 3), repeat=3):
        lam = Divisor(g, list(coeffs))
        assert has_nonnegative_rank(g, lam) == rank_boxed_search(g, lam)


def test_against_class_oracle():
    rng = random.Random(41)
    for _ in range(150):
        g = random_graph(rng, max_vertices=4)
        oracle = RankOracle(g)
        lam = Divisor(g, [rng.randint(-3, 3) for _ in g.vertices])
        assert has_nonnegative_rank(g, lam) == oracle.has_nonnegative_rank(lam)


def test_non_integer_rejected():
    g = Graph(["a", "b"], [("a", "b")])
    with pytest.raises(NonIntegerDivisor):
        has_nonnegative_rank(g, Divisor(g, [Fraction(1, 2), 0]))


def test_rank_job_verdict_matches_has_nonnegative_rank():
    rng = random.Random(43)
    negative = 0
    for _ in range(60):
        g = random_graph(rng, max_vertices=5)
        values = {v: rng.randint(-3, 3) for v in g.vertices}
        lam = Divisor(g, values)
        base = rng.choice(g.vertices)
        result = run_job(parse_job(json.dumps({"kind": "rank", "payload": {
            "graph": {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]},
            "divisor": values, "base": base}})))
        assert result.result["rank_nonnegative"] == has_nonnegative_rank(g, lam, base)
        negative += lam.degree() < 0
    assert negative >= 10


def _edge_counts(g):
    """Adjacency counts read from the edge multiset, loops dropped."""
    n = len(g.vertices)
    adj = [[0] * n for _ in range(n)]
    for u, w in g.edges:
        i, j = g.index(u), g.index(w)
        if i != j:
            adj[i][j] += 1
            adj[j][i] += 1
    return adj


def test_reduced_divisor_specification():
    # the q-reduced divisor: non-negative off q, no nonempty S in V - {q}
    # can fire (some v in S holds fewer chips than its edges leaving S),
    # and chip-firing equivalent to the input
    rng = random.Random(53)
    loops = parallels = 0
    for _ in range(120):
        g = random_graph(rng, max_vertices=6, max_extra_edges=6)
        adj = _edge_counts(g)
        loops += any(u == w for u, w in g.edges)
        parallels += any(m > 1 for row in adj for m in row)
        oracle = RankOracle(g)
        lam = [rng.randint(-5, 5) for _ in g.vertices]
        for base in g.vertices:
            _check_reduced(g, adj, oracle, lam, base)
    assert loops > 20 and parallels > 20


def _check_reduced(g, adj, oracle, lam, base):
    """q_reduced(lam) at `base` against the specification."""
    n = len(g.vertices)
    q = g.index(base)
    red = q_reduced(g, Divisor(g, lam), base)
    others = [v for v in range(n) if v != q]
    assert all(red[v] >= 0 for v in others)
    for size in range(1, n):
        for subset in itertools.combinations(others, size):
            assert any(red[v] < sum(adj[v][w] for w in range(n) if w not in subset)
                       for v in subset), (g, lam, base, subset)
    assert sum(red) == sum(lam)
    assert oracle._key(red[1:]) == oracle._key(lam[1:])
    return red


def _reference_q_reduced(g, lam, q):
    """The reduction without the energy step: level firing, then Dhar
    burning, each firing of the unburnt set as many times as it can."""
    n = len(g.vertices)
    nbrs = g.neighbours
    d = list(lam)
    dist = g.distances_from(g.vertices[q])
    for k in range(max(dist), 0, -1):
        firings = 0
        for v in range(n):
            if dist[v] == k and d[v] < 0:
                gain = sum(m for w, m in nbrs[v] if dist[w] == k - 1)
                firings = max(firings, (-d[v] + gain - 1) // gain)
        for v in range(n):
            if dist[v] == k - 1:
                for w, m in nbrs[v]:
                    if dist[w] == k:
                        d[v] -= firings * m
                        d[w] += firings * m
    while True:
        burnt = {q}
        grew = True
        while grew:
            grew = False
            for v in range(n):
                if v not in burnt and d[v] < sum(m for w, m in nbrs[v] if w in burnt):
                    burnt.add(v)
                    grew = True
        if len(burnt) == n:
            return d
        heat = {v: sum(m for w, m in nbrs[v] if w in burnt)
                for v in range(n) if v not in burnt}
        times = min(d[v] // h for v, h in heat.items() if h)
        for v, h in heat.items():
            d[v] -= times * h
            for w, m in nbrs[v]:
                if w in burnt:
                    d[w] += times * m


@pytest.fixture
def solves(monkeypatch):
    """Counts the linalg.solve_square calls, the energy step's one solve."""
    calls = []
    solve = linalg.solve_square

    def counted(matrix, rhs):
        calls.append(len(matrix))
        return solve(matrix, rhs)

    monkeypatch.setattr(linalg, "solve_square", counted)
    return calls


def test_energy_step_keeps_the_reduced_divisor(solves):
    # divisors up to +-4n^2, so some reductions take the energy step and
    # some do not; the result meets the specification either way
    rng = random.Random(67)
    took = skipped = 0
    for _ in range(60):
        g = random_graph(rng, max_vertices=6, max_extra_edges=6)
        n = len(g.vertices)
        adj = _edge_counts(g)
        oracle = RankOracle(g)
        bound = rng.choice((3, n, 4 * n * n))
        lam = [rng.randint(-bound, bound) for _ in g.vertices]
        for base in g.vertices:
            before = len(solves)
            red = _check_reduced(g, adj, oracle, lam, base)
            took += len(solves) > before
            skipped += len(solves) == before
            assert red == _reference_q_reduced(g, lam, g.index(base))
    assert took > 40 and skipped > 40


def _ladder_graph(rng, n):
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    for _ in range(n // 2):
        a, b = rng.sample(range(n), 2)
        edges.append((names[a], names[b]))
    return Graph(names, edges)


def test_energy_step_on_the_rank_sweep_ladders(solves):
    # the first two graphs of the rank-sweep benchmark and their divisors,
    # alternating |Lam| <= 3 and <= 4n, against the reduction without the
    # energy step at three bases each
    rng = random.Random(1)
    reductions = 0
    for n in (8, 12):
        g = _ladder_graph(rng, n)
        for k in range(48):
            bound = 3 if k % 2 == 0 else 4 * n
            lam = [rng.randint(-bound, bound) for _ in range(n)]
            for q in (0, k % n, (5 * k + 1) % n):
                red = q_reduced(g, Divisor(g, lam), g.vertices[q])
                assert red == _reference_q_reduced(g, lam, q)
                reductions += 1
    assert 50 < len(solves) < reductions - 50
