"""Newton-Okounkov bodies of toric schemes over a DVR.

A model is given by the rays of the generic fan (with divisor
coefficients a_sigma) and the vertices of the height-1 slice of the
special fiber fan (with coefficients a_v).  From these:

    P_D      = {m : <m, u_sigma> >= -a_sigma}            (generic polytope)
    P_model  = {(m, h) : m in P_D, <m, v> + h >= -a_v, h >= 0}
    psi(m)   = max_v(-a_v - <m, v>)   so P_model is the overgraph of psi

A flag is an ordered lattice basis w_1 .. w_{d+1} of Z^{d+1} picked from
the model's ray data; the body is the affine image of P_model under
x_i = <(m, h), w_i> + a_{w_i}.  The image is computed twice, and the two
canonical V-representations must be equal: by the vertex map, which maps
P_model's vertices forward, and by the inverse flag map, which maps
P_model's rows back to half-spaces of the image and enumerates their
vertices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Tuple

from . import linalg
from .errors import (ConsistencyError, DimensionMismatch, DimensionTooLarge,
                     FlagRayUnknown, InvalidToricModel, NotABasis,
                     OutsideGenericPolytope, UnboundedGenericPolytope)
from .polyhedra import HPolyhedron, VPolyhedron, enumerate_v_rep, in_cone

IntVec = Tuple[int, ...]

# Most points of the box lattice_point_count scans.  A point costs about
# 1.8 us (Python 3.11 on a 2-CPU VM): the 4,004,001 points of the square
# [-1000, 1000]^2 took 7.5 s there.  The largest box of the tests and the
# benchmark workloads holds 125 points.
LATTICE_COUNT_MAX_BOX = 500_000


def _ivec(v, d, what) -> IntVec:
    out = tuple(int(x) for x in v)
    # an int is its own integer: only other types need the Fraction test
    if len(out) != d or any(type(x) is not int and Fraction(x) != y for x, y in zip(v, out)):
        raise DimensionMismatch(f"{what} must be an integer vector of length {d}")
    return out


@dataclass(frozen=True)
class ToricModel:
    ambient_dim: int
    generic_rays: Tuple[Tuple[IntVec, int], ...]
    vertical_vertices: Tuple[Tuple[IntVec, int], ...]

    def __init__(self, ambient_dim, generic_rays, vertical_vertices):
        d = int(ambient_dim)
        if d < 1:
            raise DimensionMismatch("ambient dimension must be positive")
        gr = tuple((_ivec(u, d, "generic ray"), int(a)) for u, a in generic_rays)
        vv = tuple((_ivec(v, d, "vertical vertex"), int(a)) for v, a in vertical_vertices)
        if not vv:
            raise InvalidToricModel("a model needs at least one vertical vertex")
        for u, _ in gr:
            if math.gcd(*u) != 1:
                raise InvalidToricModel(f"generic ray {u} is not primitive")
        rays = [u for u, _ in gr]
        for i in range(d):
            for sign in (1, -1):
                e = tuple(sign * int(i == j) for j in range(d))
                if not in_cone(e, rays):
                    raise UnboundedGenericPolytope(
                        "generic rays do not positively span the ambient space")
        object.__setattr__(self, "ambient_dim", d)
        object.__setattr__(self, "generic_rays", gr)
        object.__setattr__(self, "vertical_vertices", vv)

    def rescale(self, k: int) -> "ToricModel":
        """Same fans, all divisor coefficients multiplied by k."""
        return ToricModel(self.ambient_dim,
                          [(u, k * a) for u, a in self.generic_rays],
                          [(v, k * a) for v, a in self.vertical_vertices])


@dataclass(frozen=True)
class ToricFlag:
    """d+1 ray/coefficient pairs forming a lattice basis of Z^{d+1}; each
    pair must literally match a model ray, either (u_sigma, 0) with
    a_sigma or (v, 1) with a_v, so the coefficient is unambiguous."""

    rays: Tuple[Tuple[IntVec, int], ...]

    def __init__(self, rays):
        object.__setattr__(
            self, "rays",
            tuple((tuple(int(x) for x in w), int(a)) for w, a in rays))

    def validate(self, model: ToricModel) -> None:
        d = model.ambient_dim
        if len(self.rays) != d + 1:
            raise NotABasis(f"a flag in dimension {d} needs {d + 1} rays")
        known = {(u + (0,)): a for u, a in model.generic_rays}
        known.update({(v + (1,)): a for v, a in model.vertical_vertices})
        for w, a in self.rays:
            if len(w) != d + 1:
                raise DimensionMismatch(f"flag ray {w} has wrong length")
            if w not in known:
                raise FlagRayUnknown(f"flag ray {w} is not a ray of the model")
            if known[w] != a:
                raise FlagRayUnknown(
                    f"flag ray {w} carries coefficient {a}, model says {known[w]}")
        det = linalg.det_int([list(w) for w, _ in self.rays])
        if det not in (1, -1):
            raise NotABasis(f"flag rays have determinant {det}, need +-1")


def _model_rows(model: ToricModel):
    """P_model's inequalities <r, (m, h)> >= b as integer pairs (r, b):
    one per generic ray, with r_h = 0, so these alone cut out P_D; one per
    vertical vertex; and h >= 0 last, unless a vertical vertex at the
    origin with coefficient 0 already gave that row.  The rows with
    r_h = 1 are the pieces of psi."""
    d = model.ambient_dim
    rows = ([(u + (0,), -a) for u, a in model.generic_rays]
            + [(v + (1,), -a) for v, a in model.vertical_vertices])
    floor = ((0,) * d + (1,), 0)
    if floor not in rows:
        rows.append(floor)
    return rows


def build_generic_polytope(model: ToricModel) -> HPolyhedron:
    """P_D = {m : <m, u_sigma> >= -a_sigma}, bounded with no LP to check
    it: ToricModel raises UnboundedGenericPolytope unless the rays
    positively span R^d, and then a recession direction r of P_D
    (<r, u_sigma> >= 0 for every ray) has -r = sum lambda_sigma u_sigma
    with lambda >= 0, so -<r, r> >= 0 and r = 0."""
    rows = _model_rows(model)[:len(model.generic_rays)]
    return HPolyhedron(model.ambient_dim, [(r[:-1], b) for r, b in rows])


def build_model_polyhedron(model: ToricModel) -> HPolyhedron:
    """P_model in coordinates (m_1..m_d, h): the generic constraints plus
    <m, v> + h >= -a_v per vertical vertex and h >= 0."""
    return HPolyhedron(model.ambient_dim + 1, _model_rows(model))


def psi_value(model: ToricModel, m) -> Fraction:
    """psi(m) = max over vertical vertices of -a_v - <m, v>, clamped below
    by 0 (the row h >= 0); (m, psi(m)) is the lowest point of P_model
    over m."""
    m = tuple(Fraction(x) for x in m)
    if not build_generic_polytope(model).contains(m):
        raise OutsideGenericPolytope(f"{m} is outside the generic polytope")
    return max(b - linalg.dot(r[:-1], m)
               for r, b in _model_rows(model)[len(model.generic_rays):])


def toric_body_vertexmap(model: ToricModel, flag: ToricFlag) -> VPolyhedron:
    """Body as the image of P_model's V-representation under the flag map
    x = W.(m, h) + a, rays without the offset.  W has just been validated
    as unimodular, so distinct vertices stay distinct and primitive rays
    stay primitive: the image only needs sorting."""
    flag.validate(model)
    vrep = enumerate_v_rep(build_model_polyhedron(model))

    def image(x, offset):
        return tuple([sum(map(mul, w, x)) + offset * a for w, a in flag.rays])
    return VPolyhedron(sorted([image(v, 1) for v in vrep.vertices]),
                       sorted([image(r, 0) for r in vrep.rays]))


def toric_body_halfspaces(model: ToricModel, flag: ToricFlag) -> HPolyhedron:
    """Body as an H-polyhedron, by the inverse flag map.  With W the matrix
    of rows w_i, the flag map is x = W.(m, h) + a, and W is in GL(Z), so
    (m, h) = W^-1.(x - a).  Each row <r, (m, h)> >= b of P_model becomes
    <z, x> >= b + <z, a> with W^T z = r: exactly the image that
    Fourier-Motzkin on the equality pairs x_i = <(m, h), w_i> + a_i
    computes, with no redundancy LP.  Rows may be redundant, which neither
    enumerate_v_rep nor a membership test minds."""
    flag.validate(model)
    k = model.ambient_dim + 1
    transpose = [[w[j] for w, _ in flag.rays] for j in range(k)]
    offset = [a for _, a in flag.rays]
    rows = []
    for r, b in _model_rows(model):
        z = linalg.solve_square(transpose, r)
        rows.append((z, b + linalg.dot(z, offset)))
    return HPolyhedron(k, rows)


def toric_body_projection(model: ToricModel, flag: ToricFlag) -> VPolyhedron:
    """Body as the vertices and extreme rays of toric_body_halfspaces."""
    return enumerate_v_rep(toric_body_halfspaces(model, flag))


def first_difference(body: VPolyhedron, other: VPolyhedron) -> str:
    """Names the first vertex, then ray, at which the vertex map's body and
    the projection's differ; "" when they are equal."""
    def text(point):
        return "none" if point is None else "(" + ", ".join(map(str, point)) + ")"

    for what, mine, theirs in (("vertex", body.vertices, other.vertices),
                               ("ray", body.rays, other.rays)):
        for i, (a, b) in enumerate(itertools.zip_longest(mine, theirs)):
            if a != b:
                return (f"first difference at {what} {i}: vertex map {text(a)}, "
                        f"projection {text(b)}")
    return ""


def toric_body(model: ToricModel, flag: ToricFlag) -> VPolyhedron:
    """The body by the vertex map, which must equal the projection's body
    as built, tuple for tuple.  The routes share only enumerate_v_rep: the
    vertex map takes P_model's vertices forward by W, and the projection
    takes P_model's rows back by W^T and enumerates the vertices of the
    half-spaces they give.

    Equal sets give equal tuples: P_model is pointed (P_D is bounded and
    h >= 0), and so is its image under the flag map, which is an affine
    map with linear part W in GL(Z).  So enumerate_v_rep returns the image
    canonically: its vertices, and its extreme rays as primitive integer
    vectors, each sorted.  W maps the vertices of P_model onto the
    vertices of the image, and primitive extreme rays onto primitive
    extreme rays, and the vertex map sorts both.  Being stricter than set
    equality, the comparison can raise where vrep_equal would not, but
    can never accept a wrong body."""
    body = toric_body_vertexmap(model, flag)
    other = toric_body_projection(model, flag)
    if body != other:
        raise ConsistencyError(f"vertex-map and projection bodies disagree: "
                               f"{first_difference(body, other)}")
    for pt in body.vertices:
        if any(c < 0 for c in pt):
            raise ConsistencyError(
                f"body vertex {pt} has a negative coordinate; "
                "valuations are vanishing orders")
    return body


NOT_A_SECTION = "not-a-section"


def valuation_map(model: ToricModel, flag: ToricFlag):
    """The valuation of monomial sections as a function of (m, h), with the
    flag validated once: the vector (<(m,h), w_i> + a_i)_i for the integer
    point (m, h), or NOT_A_SECTION when (m, h) violates a row of P_model
    (h >= 0 included); integers throughout."""
    flag.validate(model)
    rows = _model_rows(model)

    def value(m, h):
        point = _ivec(m, model.ambient_dim, "monomial exponent") + (int(h),)
        if any(sum(map(mul, r, point)) < b for r, b in rows):
            return NOT_A_SECTION
        return tuple(sum(map(mul, w, point)) + a for w, a in flag.rays)
    return value


def monomial_valuation(model: ToricModel, flag: ToricFlag, m, h):
    """Valuation vector of the monomial section indexed by (m, h), or
    NOT_A_SECTION (see valuation_map)."""
    return valuation_map(model, flag)(m, h)


def lattice_point_count(poly: HPolyhedron) -> int:
    """Number of integer points of a bounded polytope, dimension <= 3
    (a scan of the box its vertices span, each point tested by integer dot
    products; a reporting utility, not part of any theorem).  A box of
    more than LATTICE_COUNT_MAX_BOX points is refused."""
    if poly.dimension > 3:
        raise DimensionTooLarge("lattice point counting is capped at dimension 3")
    vrep = enumerate_v_rep(poly)
    if vrep.rays:
        raise UnboundedGenericPolytope("lattice point counting needs a bounded polytope")
    if vrep.is_empty():
        return 0
    box = [range(math.ceil(min(c)), math.floor(max(c)) + 1) for c in zip(*vrep.vertices)]
    points = math.prod(map(len, box))
    if points > LATTICE_COUNT_MAX_BOX:
        raise DimensionTooLarge(
            f"lattice point counting scans at most {LATTICE_COUNT_MAX_BOX} points; "
            f"the box its vertices span holds {points}")
    # the rows as integer rows (A, B), built once: A.pt >= B for a point pt
    rows, _ = linalg.int_rows([[*a, b] for a, b in poly.constraints])
    return sum(all(sum(map(mul, row, pt)) >= row[-1] for row in rows)
               for pt in itertools.product(*box))
