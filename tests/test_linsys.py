import random
from fractions import Fraction

import pytest

from okbodies.errors import EmptySystemError
from okbodies.graphs import Divisor, Graph, GraphFunction, laplacian
from okbodies.linsys import (LinearSystemSpec, build_system,
                             least_element_path, member, minimal_element,
                             pointwise_min, zariski_shift)
from okbodies.oracles import minimal_element_lp
from okbodies.polyhedra import HPolyhedron, solve_lp
from okbodies.sampling import (random_divisor, random_graph, random_member,
                               random_rational)
from okbodies.simplex import OPTIMAL
from tests.test_graphs import quartic

F = Fraction


def test_build_system_rows_quartic():
    g = quartic()
    lam = Divisor(g, {"P": 2, "Q1": 1, "Q2": 1, "P'": 0})
    poly = build_system(LinearSystemSpec(g, lam, effective=False))
    # rows are the displayed Laplacian expansion with rhs -lam
    assert poly.constraints == (
        ((4, -2, -2, 0), -2),
        ((-2, 3, 0, -1), -1),
        ((-2, 0, 3, -1), -1),
        ((0, -1, -1, 2), 0),
    )
    eff = build_system(LinearSystemSpec(g, lam, effective=True))
    assert len(eff.constraints) == 8


def test_member_and_zero():
    g = quartic()
    lam = Divisor(g, {"P": 2, "Q1": 1, "Q2": 1, "P'": 0})
    spec = LinearSystemSpec(g, lam)
    assert member(spec, GraphFunction.zero(g))
    assert not member(spec, GraphFunction(g, [-1, 0, 0, 0]))
    assert not member(spec, GraphFunction(g, [10, 0, 0, 0]))


def test_pointwise_min_closure():
    rng = random.Random(17)
    done = 0
    while done < 200:
        g = random_graph(rng, max_vertices=5)
        lam = random_divisor(rng, g)
        effective = rng.random() < 0.5
        spec = LinearSystemSpec(g, lam, effective)
        phi1 = random_member(rng, spec, steps=4)
        phi2 = random_member(rng, spec, steps=4)
        if phi1 is None or phi2 is None:
            continue
        assert member(spec, pointwise_min(phi1, phi2))
        done += 1


def test_minimal_element_quartic():
    g = quartic()
    lam = Divisor(g, {"P": 2, "Q1": 1, "Q2": 1, "P'": 0})
    spec = LinearSystemSpec(g, lam)
    pi = minimal_element(spec)
    assert pi == GraphFunction.zero(g)
    shifted, pi2 = zariski_shift(spec)
    assert shifted == lam and pi2 == pi


def test_minimal_element_empty():
    g = Graph(["a", "b"], [("a", "b")])
    spec = LinearSystemSpec(g, Divisor(g, [-1, 0]))
    assert minimal_element(spec) is None
    with pytest.raises(EmptySystemError):
        zariski_shift(spec)


def test_zariski_shift_path():
    g = Graph(["a", "b"], [("a", "b")])
    lam = Divisor(g, {"a": 2, "b": -1})
    spec = LinearSystemSpec(g, lam)
    pi = minimal_element(spec)
    assert pi == GraphFunction(g, [0, 1])
    shifted, _ = zariski_shift(spec)
    assert shifted == lam + laplacian(g, pi)
    assert shifted.as_dict() == {"a": 1, "b": 0}
    assert minimal_element(LinearSystemSpec(g, shifted)) == GraphFunction.zero(g)
    # the shift identifies the two systems via phi |-> phi + pi
    rng = random.Random(1)
    for _ in range(50):
        phi = random_member(rng, LinearSystemSpec(g, shifted), steps=3)
        assert member(spec, phi + pi)


def test_minimal_element_below_members():
    rng = random.Random(23)
    done = 0
    while done < 40:
        g = random_graph(rng, max_vertices=5)
        spec = LinearSystemSpec(g, random_divisor(rng, g))
        pi = minimal_element(spec)
        if pi is None:
            continue
        assert member(spec, pi)
        phi = random_member(rng, spec, steps=4)
        assert all(a >= b for a, b in zip(phi.values, pi.values))
        done += 1


def test_minimal_element_matches_lp_oracle():
    # principal pivoting against one LP per vertex, on rational divisors
    rng = random.Random(29)
    empty = 0
    for _ in range(400):
        g = random_graph(rng, max_vertices=7, max_extra_edges=5)
        lam = Divisor(g, [random_rational(rng, -3, 4, 5) for _ in g.vertices])
        spec = LinearSystemSpec(g, lam)
        pi = minimal_element(spec)
        assert pi == minimal_element_lp(spec)
        empty += pi is None
    assert 100 <= empty <= 300


def test_least_element_path_matches_lp_oracle():
    # the path of least elements of L+(Lam - t*Lam1), t in [0, 6], against
    # one LP per vertex at every piece's ends and midpoint, and past its end
    rng = random.Random(31)
    points = ended = 0
    for _ in range(80):
        g = random_graph(rng, max_vertices=6, max_extra_edges=4)
        lam = Divisor(g, [random_rational(rng, -2, 4, 4) for _ in g.vertices])
        lam1 = Divisor(g, [random_rational(rng, 0, 2, 3) for _ in g.vertices])
        path = least_element_path(g.laplacian_matrix(), lam.values,
                                  [-c for c in lam1.values], 0, 6)
        if path is None:
            assert minimal_element_lp(LinearSystemSpec(g, lam)) is None
            continue
        for lo, hi, a, b in path:
            for t in (lo, (lo + hi) / 2, hi):
                pi = minimal_element_lp(LinearSystemSpec(g, lam - lam1 * t))
                assert pi.values == tuple(x + t * y for x, y in zip(a, b))
                points += 1
        end = path[-1][1]
        if end < 6:
            assert minimal_element_lp(LinearSystemSpec(g, lam - lam1 * ((end + 6) / 2))) is None
            ended += 1
    assert points >= 300 and ended >= 20


def least_element_lp(matrix, q):
    """The least element of {z >= 0 : M z + q >= 0}, by one LP per
    coordinate."""
    n = len(q)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    poly = HPolyhedron(n, [(row, -c) for row, c in zip(matrix, q)] + [(e, 0) for e in unit])
    outs = [solve_lp(poly, e, "min") for e in unit]
    assert all(out.status == OPTIMAL for out in outs)
    return tuple(out.value for out in outs)


def test_reduced_least_element_path_matches_lp_oracle():
    # the form the Arakelov route calls: the reduced Laplacian at v, q1 =
    # the removed column, t1 = None.  One LP per coordinate at every
    # piece's ends and midpoint, and past the last breakpoint.  Integer
    # q0 makes ties, where several indices enter J in one round; the
    # symmetric star (its centre removed, equal q0) starts with all of
    # them entering in the first lex round.
    rng = random.Random(37)
    star = Graph(["c", "x", "y", "z"], [("c", "x"), ("c", "y"), ("c", "z")])
    instances = [(star.laplacian_matrix(), 0, [0, 0, 0], 0)]
    for _ in range(80):
        g = random_graph(rng, max_vertices=6, max_extra_edges=4)
        v = rng.randrange(len(g.vertices))
        if rng.random() < 0.5:
            q0 = [rng.randint(0, 2) for _ in range(len(g.vertices) - 1)]
        else:
            q0 = [random_rational(rng, -2, 4, 4) for _ in range(len(g.vertices) - 1)]
        instances.append((g.laplacian_matrix(), v, q0, random_rational(rng, -1, 2, 3)))
    points = joint = 0
    for lap, v, q0, t0 in instances:
        rest = [i for i in range(len(lap)) if i != v]
        m = [[lap[i][j] for j in rest] for i in rest]
        q1 = [lap[i][v] for i in rest]
        path = least_element_path(m, q0, q1, t0)
        assert path[0][0] == t0 and path[-1][1] is None
        assert all(p[1] == q[0] for p, q in zip(path, path[1:]))
        support = set()
        for lo, hi, a, b in path:
            ends = (lo, (lo + hi) / 2, hi) if hi is not None else (lo, lo + 1, lo + 7)
            for t in ends:
                q = [x + t * y for x, y in zip(q0, q1)]
                assert least_element_lp(m, q) == tuple(x + t * y for x, y in zip(a, b))
                points += 1
            # pieces whose support gains several indices at one breakpoint
            grown = {i for i in range(len(m)) if a[i] or b[i]}
            joint += len(grown - support) >= 2
            support = grown
    assert points >= 500 and joint >= 20


def test_minimal_element_needs_an_effective_system():
    g = Graph(["a", "b"], [("a", "b")])
    spec = LinearSystemSpec(g, Divisor(g, [1, 0]), effective=False)
    for route in (minimal_element, minimal_element_lp):
        with pytest.raises(ValueError):
            route(spec)
