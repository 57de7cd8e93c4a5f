import itertools
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


def _reference_v_rep(p):
    """enumerate_v_rep as a loop over Fractions: a rational solve and a
    membership test per d-subset, a rational nullspace per (d-1)-subset."""
    d = p.dimension
    rays, work = set(), p
    lineality = linalg.nullspace([list(a) for a, _ in p.constraints], ncols=d)
    if lineality:
        section = []
        for vec in lineality:
            vec = linalg.primitive_direction(vec)
            for r in (vec, tuple(-v for v in vec)):
                rays.add(r)
                section.append((r, F(0)))
        work = p.with_constraints(section)
    cons = work.constraints
    vertices = set()
    for subset in itertools.combinations(cons, d):
        sol = linalg.solve_square([list(a) for a, _ in subset], [b for _, b in subset])
        if sol is not None and work.contains(sol):
            vertices.add(tuple(sol))
    if not vertices:
        return VPolyhedron([], [])
    for subset in itertools.combinations(cons, d - 1) if d else ():
        null = linalg.nullspace([list(a) for a, _ in subset], ncols=d)
        if len(null) != 1:
            continue
        r = linalg.primitive_direction(null[0])
        for cand in (r, tuple(-v for v in r)):
            if all(linalg.dot(a, cand) >= 0 for a, _ in cons):
                rays.add(cand)
    return VPolyhedron(sorted(vertices), sorted(rays))


def _random_rational_hpolyhedron(rng, d):
    """Rows with Fraction coefficients, some repeated exactly or scaled by a
    positive rational, zero rows, and opposite rows (slabs, hyperplanes,
    empty pairs); few rows leave lineality."""
    def rat(lo, hi):
        den = rng.choice((1, 1, 2, 3, 5))
        return F(rng.randint(lo * den, hi * den), den)
    rows = [([rat(-2, 2) for _ in range(d)], rat(-5, 5)) for _ in range(rng.randint(0, 5))]
    if rows and rng.random() < 0.3:
        a, b = rng.choice(rows)
        k = F(rng.randint(1, 4), rng.randint(1, 3))
        rows.append(([k * x for x in a], k * b))
    if rows and rng.random() < 0.2:
        rows.append(rng.choice(rows))
    if rows and rng.random() < 0.3:
        a, b = rows[0]
        rows.append(([-x for x in a], -b - rat(-2, 2)))
    if rng.random() < 0.1:
        rows.append(([F(0)] * d, rat(-2, 1)))
    rng.shuffle(rows)
    return HPolyhedron(d, rows)


def test_enumerate_v_rep_matches_the_fraction_loop():
    rng = random.Random(17)
    seen = {d: {"empty": 0, "rays": 0, "lineality": 0, "repeated": 0, "fractional": 0}
            for d in range(4)}
    for k in range(800):
        d = k % 4
        p = _random_rational_hpolyhedron(rng, d)
        v = enumerate_v_rep(p)
        ref = _reference_v_rep(p)
        assert (v.vertices, v.rays) == (ref.vertices, ref.rays), p
        tally = seen[d]
        tally["empty"] += v.is_empty()
        tally["rays"] += bool(v.rays) and not v.is_empty()
        tally["lineality"] += bool(linalg.nullspace([list(a) for a, _ in p.constraints],
                                                    ncols=d)) and not v.is_empty()
        tally["repeated"] += len({linalg.primitive_direction((*a, b))
                                  for a, b in p.constraints}) < len(p.constraints)
        tally["fractional"] += any(x.denominator > 1 for a, b in p.constraints
                                   for x in (*a, b))
    for d, tally in seen.items():
        assert all(count >= 20 for name, count in tally.items()
                   if not (d == 0 and name in ("rays", "lineality"))), (d, tally)


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
