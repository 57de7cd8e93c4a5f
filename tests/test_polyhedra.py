import random
from fractions import Fraction

import pytest

from okbodies import linalg
from okbodies.errors import DimensionTooLarge
from okbodies.polyhedra import (HPolyhedron, VPolyhedron, canonicalize_vrep,
                                enumerate_v_rep, fm_eliminate, project_out,
                                solve_lp, vrep_equal)
from okbodies.simplex import INFEASIBLE, OPTIMAL

F = Fraction


def test_fm_example():
    # {x + y >= 0, -y >= -1}: eliminating y leaves x >= -1
    p = HPolyhedron(2, [([1, 1], 0), ([0, -1], -1)])
    q = fm_eliminate(p, 1)
    assert q.dimension == 1
    assert q.constraints == (((F(1),), F(-1)),)


def test_fm_membership_sampling():
    # point in projection iff some lift exists (checked by 1-D LP)
    rng = random.Random(2)
    p = HPolyhedron(3, [([1, 1, -1], -2), ([-1, 2, 1], -3), ([0, -1, 1], -4),
                        ([1, 0, 0], -3), ([-1, 0, -1], -5)])
    q = project_out(p, [2])
    for _ in range(1000):
        x = F(rng.randint(-40, 40), 4)
        y = F(rng.randint(-40, 40), 4)
        lifted = p.with_constraints([((1, 0, 0), x), ((-1, 0, 0), -x),
                                     ((0, 1, 0), y), ((0, -1, 0), -y)])
        has_lift = not lifted.is_empty()
        assert q.contains((x, y)) == has_lift


def test_vertex_enumeration_triangle():
    p = HPolyhedron(2, [([1, 0], 0), ([0, 1], 0), ([-1, -1], -1)])
    v = enumerate_v_rep(p)
    assert set(v.vertices) == {(0, 0), (1, 0), (0, 1)}
    assert v.rays == ()


def test_vertex_enumeration_unbounded():
    p = HPolyhedron(2, [([1, 0], 0), ([0, 1], 0)])
    v = enumerate_v_rep(p)
    assert v.vertices == ((F(0), F(0)),)
    assert set(v.rays) == {(0, 1), (1, 0)}


def test_vertex_enumeration_nonpointed():
    # a slab: lineality along x
    p = HPolyhedron(2, [([0, 1], 0), ([0, -1], -1)])
    v = enumerate_v_rep(p)
    assert (1, 0) in v.rays and (-1, 0) in v.rays
    for pt in [(0, 0), (5, 1), (-3, F(1, 2))]:
        assert v.contains(pt)
    assert not v.contains((0, 2))


def test_vertex_enumeration_empty():
    p = HPolyhedron(1, [([1], 1), ([-1], 0)])
    v = enumerate_v_rep(p)
    assert v.is_empty()


def test_round_trip_membership():
    rng = random.Random(9)
    p = HPolyhedron(2, [([1, 0], -1), ([-1, 0], -2), ([0, 1], -1),
                        ([-1, -1], -2), ([1, 2], -3)])
    v = enumerate_v_rep(p)
    for _ in range(200):
        pt = (F(rng.randint(-12, 12), 3), F(rng.randint(-12, 12), 3))
        assert p.contains(pt) == v.contains(pt)


def _random_hpolyhedron(rng, d):
    rows = []
    for _ in range(rng.randint(0, 6)):
        a = [rng.randint(-2, 2) for _ in range(d)]
        rows.append((a, F(rng.randint(-6, 6), rng.randint(1, 3))))
    if rows and rng.random() < 0.3:
        # an opposite row: slabs, hyperplanes and empty pairs
        a, b = rows[0]
        rows.append(([-x for x in a], -b - rng.randint(-2, 2)))
    return HPolyhedron(d, rows)


def test_enumerate_v_rep_invariants():
    rng = random.Random(31)
    seen = {"empty": 0, "nonpointed": 0}
    for k in range(400):
        d = k % 4
        p = _random_hpolyhedron(rng, d)
        v = enumerate_v_rep(p)
        canon = canonicalize_vrep(v)
        assert (v.vertices, v.rays) == (canon.vertices, canon.rays)
        assert v.is_empty() == p.is_empty()
        if v.is_empty():
            assert v.rays == ()
            seen["empty"] += 1
            continue
        assert all(p.contains(x) for x in v.vertices)
        assert all(linalg.dot(a, r) >= 0 for r in v.rays for a, _ in p.constraints)
        if linalg.nullspace([list(a) for a, _ in p.constraints], ncols=d):
            seen["nonpointed"] += 1
        # nothing is missing: membership agrees on points around the vertices
        for _ in range(3):
            x = [c + F(rng.randint(-8, 8), 2) for c in v.vertices[0]]
            assert v.contains(x) == p.contains(x)
    assert seen["empty"] >= 80 and seen["nonpointed"] >= 40


def test_vrep_equal_canonicalization():
    a = VPolyhedron([(0, 0), (1, 0), (F(1, 2), 0)], [(1, 1), (2, 2)])
    b = VPolyhedron([(0, 0), (1, 0)], [(1, 1)])
    assert vrep_equal(a, b)
    assert not vrep_equal(a, VPolyhedron([(0, 0)], [(1, 1)]))


def test_solve_lp_statuses():
    square = HPolyhedron(2, [([1, 0], 0), ([-1, 0], -1), ([0, 1], 0), ([0, -1], -1)])
    out = solve_lp(square, [1, 1], "max")
    assert out.status == OPTIMAL and out.value == 2
    empty = HPolyhedron(1, [([1], 3), ([-1], -2)])
    assert solve_lp(empty, [1], "min").status == INFEASIBLE


def test_dimension_cap():
    big = HPolyhedron(11, [([1] + [0] * 10, 0)])
    with pytest.raises(DimensionTooLarge):
        enumerate_v_rep(big)
