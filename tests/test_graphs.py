import random
from collections import Counter
from fractions import Fraction

import pytest

from okbodies.errors import Disconnected, UnknownVertex
from okbodies.graphs import (Divisor, Graph, GraphFunction, graph_diameter,
                             laplacian, m_statistic, specialize_vertical)
from okbodies.oracles import m_statistic_bruteforce
from okbodies.sampling import random_function, random_graph


def quartic():
    # conic + two lines + exceptional component: P-Q1 x2, P-Q2 x2, Q1-P', Q2-P'
    return Graph(["P", "Q1", "Q2", "P'"],
                 [("P", "Q1"), ("P", "Q1"), ("P", "Q2"), ("P", "Q2"),
                  ("Q1", "P'"), ("Q2", "P'")])


def test_quartic_shape():
    g = quartic()
    assert g.genus() == 3
    assert graph_diameter(g) == 2
    assert g.degree("P") == 4
    assert g.degree("P'") == 2


def test_laplacian_indicator_at_P():
    g = quartic()
    phi = GraphFunction(g, {"P": 1, "Q1": 0, "Q2": 0, "P'": 0})
    assert laplacian(g, phi).as_dict() == {
        "P": 4, "Q1": -2, "Q2": -2, "P'": 0}


def test_laplacian_full_expansion():
    # 4phi(P) - 2phi(Q1) - 2phi(Q2) at P, and so on, row by row
    g = quartic()
    rng = random.Random(7)
    for _ in range(20):
        p, q1, q2, pp = [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                         for _ in range(4)]
        lap = laplacian(g, GraphFunction(g, [p, q1, q2, pp]))
        assert lap["P"] == 4 * p - 2 * q1 - 2 * q2
        assert lap["Q1"] == 3 * q1 - 2 * p - pp
        assert lap["Q2"] == 3 * q2 - 2 * p - pp
        assert lap["P'"] == 2 * pp - q1 - q2


def test_laplacian_degree_zero():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng)
        phi = random_function(rng, g)
        assert laplacian(g, phi).degree() == 0


def test_loops_do_not_fire():
    g = Graph(["a", "b"], [("a", "b"), ("a", "a")])
    phi = GraphFunction(g, [1, 0])
    assert laplacian(g, phi).as_dict() == {"a": 1, "b": -1}
    assert g.genus() == 1  # the loop still counts toward the Betti number


def test_specialization_is_minus_laplacian():
    g = quartic()
    phi = GraphFunction(g, [1, 0, 0, 0])
    assert specialize_vertical(g, phi).as_dict() == {
        "P": -4, "Q1": 2, "Q2": 2, "P'": 0}


def test_m_statistic_closed_form_vs_bruteforce():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, max_vertices=6)
        f = Divisor(g, [Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                        for _ in g.vertices])
        assert m_statistic(f) == m_statistic_bruteforce(f)


def test_m_statistic_examples():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert m_statistic(Divisor(g, [3, -1, -4])) == 5
    assert m_statistic(Divisor(g, [2, 1, 0])) == 3


def test_diameter_bound():
    # max phi - min phi <= M(laplacian(phi)) * diam
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng, max_vertices=6)
        phi = random_function(rng, g)
        spread = max(phi.values) - min(phi.values)
        assert spread <= m_statistic(laplacian(g, phi)) * max(graph_diameter(g), 1) \
            or spread == 0


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        Graph(["a", "b", "c"], [("a", "b")])


def test_disconnected_message():
    with pytest.raises(Disconnected) as err:
        Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d"), ("c", "c")])
    assert str(err.value) == "vertices unreachable from 'a': ['c', 'd']"


def test_quartic_neighbours():
    assert quartic().neighbours == (((1, 2), (2, 2)), ((0, 2), (3, 1)),
                                    ((0, 2), (3, 1)), ((1, 1), (2, 1)))


def test_neighbours_match_edge_multiset():
    # symmetric, loops excluded, parallel edges counted, in vertex order
    rng = random.Random(19)
    loops = parallels = 0
    for _ in range(300):
        g = random_graph(rng, max_vertices=6, max_extra_edges=6)
        expected = Counter()
        for u, w in g.edges:
            if u == w:
                loops += 1
            else:
                expected[g.index(u), g.index(w)] += 1
                expected[g.index(w), g.index(u)] += 1
        parallels += any(m > 1 for m in expected.values())
        assert len(g.neighbours) == len(g.vertices)
        got = Counter()
        for i, nbrs in enumerate(g.neighbours):
            assert [j for j, _ in nbrs] == sorted({j for j, _ in nbrs})
            for j, m in nbrs:
                assert j != i and m > 0
                got[i, j] += m
        assert got == expected
        assert [g.degree(v) for v in g.vertices] == [
            sum(m for (i, _), m in expected.items() if i == k)
            for k in range(len(g.vertices))]
    assert loops > 20 and parallels > 20


def test_unknown_vertex():
    g = Graph(["a", "b"], [("a", "b")])
    with pytest.raises(UnknownVertex):
        Graph(["a", "b"], [("a", "z")])
    with pytest.raises(UnknownVertex):
        Divisor(g, {"a": 1})
    with pytest.raises(UnknownVertex):
        Divisor(g, {"a": 1, "b": 0, "z": 2})


def test_vertex_vector_arithmetic():
    g = Graph(["a", "b"], [("a", "b")])
    d = Divisor(g, [1, 2]) + Divisor(g, [3, -1])
    assert d.values == (4, 1)
    assert (-d).values == (-4, -1)
    assert (d * Fraction(1, 2)).values == (2, Fraction(1, 2))
    assert d.degree() == 5
    assert not (-d).is_effective()
