import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from okbodies import toric
from okbodies.errors import (DimensionMismatch, FlagRayUnknown, NotABasis,
                             OutsideGenericPolytope, UnboundedGenericPolytope)
from okbodies.polyhedra import (VPolyhedron, enumerate_v_rep, project_out,
                                vrep_equal)
from okbodies.toric import (NOT_A_SECTION, ToricFlag, ToricModel,
                            build_generic_polytope, build_model_polyhedron,
                            lattice_point_count, monomial_valuation,
                            psi_value, toric_body, toric_body_halfspaces,
                            toric_body_projection, toric_body_vertexmap)

F = Fraction


def model_d1():
    return ToricModel(1, [((1,), 0), ((-1,), 1)], [((0,), 0), ((1,), 0)])


def flag_d1():
    return ToricFlag([((1, 0), 0), ((1, 1), 0)])


def model_d2():
    return ToricModel(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)],
                      [((0, 0), 0), ((1, 0), 0)])


def flag_d2():
    return ToricFlag([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 0)])


def test_generic_polytope_d1():
    v = enumerate_v_rep(build_generic_polytope(model_d1()))
    assert v.vertices == ((0,), (1,))


def test_generic_polytope_square():
    v = enumerate_v_rep(build_generic_polytope(model_d2()))
    assert set(v.vertices) == {(-1, -1), (-1, 1), (1, -1), (1, 1)}


def test_all_a_zero_gives_origin():
    m = ToricModel(1, [((1,), 0), ((-1,), 0)], [((0,), 0)])
    v = enumerate_v_rep(build_generic_polytope(m))
    assert v.vertices == ((0,),)


def test_unbounded_rejected():
    with pytest.raises(UnboundedGenericPolytope):
        ToricModel(1, [((1,), 0)], [((0,), 0)])  # rays do not span


def test_model_polyhedron_d1():
    p = build_model_polyhedron(model_d1())
    assert p.contains((F(1, 2), 0)) and p.contains((0, 3))
    assert not p.contains((F(1, 2), -1)) and not p.contains((2, 1))
    v = enumerate_v_rep(p)
    assert set(v.vertices) == {(0, 0), (1, 0)}
    assert v.rays == ((0, 1),)


def test_model_polyhedron_product_when_single_zero_vertex():
    m = ToricModel(1, [((1,), 0), ((-1,), 1)], [((0,), 0)])
    v = enumerate_v_rep(build_model_polyhedron(m))
    assert set(v.vertices) == {(0, 0), (1, 0)}
    assert v.rays == ((0, 1),)


def test_psi_values():
    m = model_d1()
    assert psi_value(m, [F(1, 2)]) == 0
    lifted = ToricModel(1, [((1,), 0), ((-1,), 1)], [((0,), 0), ((1,), -1)])
    assert psi_value(lifted, [0]) == 1
    with pytest.raises(OutsideGenericPolytope):
        psi_value(m, [2])


def test_psi_lower_boundary():
    rng = random.Random(53)
    for m in (model_d1(), model_d2()):
        p = build_model_polyhedron(m)
        d = m.ambient_dim
        for _ in range(100):
            pt = tuple(F(rng.randint(-8, 8), 8) for _ in range(d))
            try:
                h = psi_value(m, pt)
            except OutsideGenericPolytope:
                continue
            assert p.contains(pt + (h,))
            if h > 0:
                assert not p.contains(pt + (h - F(1, 1000),))


def test_projection_identity():
    for m in (model_d1(), model_d2()):
        pd = build_generic_polytope(m)
        projected = project_out(build_model_polyhedron(m), [m.ambient_dim])
        assert sorted(projected.constraints) == sorted(pd.constraints)


def test_overgraph_identity():
    rng = random.Random(59)
    for m in (model_d1(), model_d2()):
        p = build_model_polyhedron(m)
        pd = build_generic_polytope(m)
        d = m.ambient_dim
        for _ in range(250):
            pt = tuple(F(rng.randint(-12, 12), 6) for _ in range(d))
            h = F(rng.randint(-6, 30), 6)
            lhs = p.contains(pt + (h,))
            rhs = pd.contains(pt) and h >= psi_value(m, pt)
            assert lhs == rhs


def test_body_d1():
    body = toric_body(model_d1(), flag_d1())
    # {0 <= x <= 1, y >= x}
    assert set(body.vertices) == {(0, 0), (1, 1)}
    assert set(body.rays) == {(0, 1)}


def test_body_trivial_ray():
    m = ToricModel(1, [((1,), 0), ((-1,), 0)], [((0,), 0)])
    flag = ToricFlag([((1, 0), 0), ((0, 1), 0)])
    body = toric_body(m, flag)
    assert body.vertices == ((0, 0),)
    assert body.rays == ((0, 1),)


def test_body_routes_agree():
    for m, f in ((model_d1(), flag_d1()), (model_d2(), flag_d2())):
        body, other = toric_body_vertexmap(m, f), toric_body_projection(m, f)
        assert body == other and vrep_equal(body, other)


def _random_model(rng):
    """A model on the box rays +-e_i with random heights (P_D may be empty)
    and distinct vertical vertices, with a flag of the rays (e_i, 0) and
    one (v, 1) in random order: a lattice basis."""
    d = rng.choice((1, 2))
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays = [(u, rng.randint(-1, 3)) for u in units]
    rays += [(tuple(-x for x in u), rng.randint(-1, 3)) for u in units]
    grid = list(itertools.product(range(-2, 3), repeat=d))
    verts = [(v, rng.randint(-1, 2)) for v in rng.sample(grid, rng.randint(1, 3))]
    v, a = rng.choice(verts)
    flag = [(u + (0,), b) for u, b in rays[:d]] + [(v + (1,), a)]
    rng.shuffle(flag)
    return ToricModel(d, rays, verts), ToricFlag(flag)


def test_routes_equal_as_built_on_random_models():
    # both V-representations are canonical as built, so toric_body compares
    # them as tuples; vrep_equal is the reference, and the projection's
    # half-spaces hold the same points as the LP membership test.  The
    # integer valuation path agrees with P_model as a polyhedron: a section
    # exactly at its points, valued by the flag map
    rng = random.Random(7)
    empty = 0
    for _ in range(12):
        m, f = _random_model(rng)
        body, other = toric_body_vertexmap(m, f), toric_body_projection(m, f)
        assert body == other and vrep_equal(body, other)
        image = toric_body_halfspaces(m, f)
        pmodel = build_model_polyhedron(m)
        for x in itertools.product(range(-1, 4), repeat=m.ambient_dim + 1):
            assert image.contains(x) == body.contains(x)
            val = monomial_valuation(m, f, x[:-1], x[-1])
            if not pmodel.contains(x):
                assert val is NOT_A_SECTION
            else:
                assert val == tuple(sum(c * w for c, w in zip(x, ray)) + a
                                    for ray, a in f.rays)
        empty += body.is_empty()
    assert 0 < empty < 12


def test_model_rows_keep_h_ge_0_once(monkeypatch):
    # a vertical vertex at the origin with coefficient 0 gives the row
    # h >= 0 itself, so the job's model has its 4 + 2 rows and no seventh;
    # the rows with h >= 0 appended a second time give the same body
    with open(os.path.join(os.path.dirname(__file__), "..", "jobs",
                           "toric-d2-square.json")) as fh:
        payload = json.load(fh)["payload"]["model"]
    model = ToricModel(payload["ambient_dim"],
                       [(tuple(u), a) for u, a in payload["generic_rays"]],
                       [(tuple(v), a) for v, a in payload["vertical_vertices"]])
    rows = toric._model_rows(model)
    assert len(rows) == 6 and rows.count(((0, 0, 1), 0)) == 1
    rows = toric._model_rows(ToricModel(1, [((1,), 0), ((-1,), 1)],
                                        [((0,), 1), ((1,), 0)]))
    assert len(rows) == 5 and rows[-1] == ((0, 1), 0)

    rng = random.Random(7)
    models = [_random_model(rng) for _ in range(12)]
    models += [(model_d1(), flag_d1()), (model_d2(), flag_d2())]
    bodies = [toric_body(m, f) for m, f in models]
    model_rows = toric._model_rows

    def doubled_floor(model):
        rows = model_rows(model)
        if len(rows) == len(model.generic_rays) + len(model.vertical_vertices):
            rows.append(((0,) * model.ambient_dim + (1,), 0))
        return rows

    monkeypatch.setattr(toric, "_model_rows", doubled_floor)
    assert [toric_body(m, f) for m, f in models] == bodies
    assert any(len(doubled_floor(m)) > len(model_rows(m)) for m, _ in models)


def test_homogeneity():
    body = toric_body(model_d1(), flag_d1())
    m2 = model_d1().rescale(2)
    body2 = toric_body(m2, flag_d1())
    scaled = VPolyhedron([tuple(2 * c for c in v) for v in body.vertices],
                         body.rays)
    assert vrep_equal(body2, scaled)


def test_flag_validation():
    m = model_d1()
    with pytest.raises(FlagRayUnknown):
        ToricFlag([((1, 0), 0), ((2, 1), 0)]).validate(m)
    with pytest.raises(FlagRayUnknown):
        ToricFlag([((1, 0), 5), ((1, 1), 0)]).validate(m)  # wrong coefficient
    with pytest.raises(NotABasis):
        ToricFlag([((1, 0), 0), ((-1, 0), 1)]).validate(m)  # det 0
    with pytest.raises(NotABasis):
        ToricFlag([((1, 0), 0)]).validate(m)  # wrong count


def test_monomial_valuations():
    m, f = model_d1(), flag_d1()
    assert monomial_valuation(m, f, (1,), 0) == (1, 1)
    assert monomial_valuation(m, f, (0,), 0) == (0, 0)
    assert monomial_valuation(m, f, (2,), 0) is NOT_A_SECTION
    assert monomial_valuation(m, f, (0,), -1) is NOT_A_SECTION
    body = toric_body(m, f)
    for mm in range(-3, 4):
        for h in range(0, 6):
            val = monomial_valuation(m, f, (mm,), h)
            if val is not NOT_A_SECTION:
                assert body.contains([F(x) for x in val])


def test_lattice_saturation():
    # every lattice point of k*P_model maps into k*body, k <= 4, h <= 6
    for m, f in ((model_d1(), flag_d1()), (model_d2(), flag_d2())):
        body = toric_body(m, f)
        d = m.ambient_dim
        matrix = [[F(x) for x in w] for w, _ in f.rays]
        for k in range(1, 5):
            mk = m.rescale(k)
            pk = build_model_polyhedron(mk)
            offset = [F(k * a) for _, a in f.rays]
            kbody = VPolyhedron([tuple(k * c for c in v) for v in body.vertices],
                                body.rays)
            checked = 0
            scaled_vals = set()
            for pt in itertools.product(range(-2 * k, 2 * k + 1), repeat=d):
                for h in range(0, 7):
                    x = tuple(F(v) for v in pt) + (F(h),)
                    if not pk.contains(x):
                        continue
                    val = [sum(r * c for r, c in zip(row, x)) + off
                           for row, off in zip(matrix, offset)]
                    assert kbody.contains(val)
                    scaled_vals.add(tuple(c / k for c in val))
                    checked += 1
            assert checked > 0
            if k == 1:
                # every body vertex is itself a monomial valuation point
                for vx in body.vertices:
                    assert vx in scaled_vals


def test_lattice_point_count():
    assert lattice_point_count(build_generic_polytope(model_d1())) == 2
    assert lattice_point_count(build_generic_polytope(model_d2())) == 9


@pytest.mark.parametrize("vec, expected", [
    ((3, -2), (3, -2)),
    ((Fraction(6, 2), Fraction(-2)), (3, -2)),
    ((3.0, -2.0), (3, -2)),
    ((True, False), (1, 0)),
    (("3", "-2"), (3, -2)),
])
def test_integer_vectors_accepted(vec, expected):
    out = toric._ivec(vec, 2, "vector")
    assert out == expected and all(type(x) is int for x in out)


@pytest.mark.parametrize("vec", [
    (Fraction(1, 2), 0), (0, 2.5), (1,), (1, 2, 3),
], ids=["fraction", "float", "short", "long"])
def test_non_integer_vectors_refused(vec):
    with pytest.raises(DimensionMismatch, match="must be an integer vector of length 2"):
        toric._ivec(vec, 2, "vector")
