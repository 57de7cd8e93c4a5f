"""Newton-Okounkov bodies of semistable curves from combinatorial data.

The curve never appears: a job is a dual graph, the specialization Lam of
the divisor, and flag data.  Two flag regimes:

  tropical  (flag point on a component, horizontal first flag divisor):
      the body is the overgraph of the convex function
      a(t) = minimal value at the flag vertex over the t-family of
      effective systems L+(Lam - t*Lam1), for t in [0, deg Lam / deg Lam1];
      unbounded direction (0, 1).

  arakelov  (first flag step is a whole component):
      the body is the band between 0 and the concave function
      b(t) = Lam(v) + max laplacian(phi)(v) over members with phi(v) = t;
      b is nondecreasing, eventually constant; unbounded direction (1, 0).

Three routes compute the boundary function, and they must agree exactly:

  least elements (production): the systems are min-closed, so a(t) is the
      flag-vertex value of the least element of L+(Lam - t*Lam1), and b(t)
      is read off the least element of the slice phi(v) = t.  Both move
      along a monotone path of Z-matrix LCP solutions
      (`linsys.least_element_path`): at most |V| pieces, and one
      principal pivot of one integer tableau per index entering the
      active set J.
  parametric LP (the default cross-check of `compute_body`): optimal-basis
      continuation over the same family from one cold solve, which also
      finds where the family is feasible: the continuation ends where a
      Farkas certificate shows that no larger t is.
  support LPs (the oracle of `cross_verify` and `verify`): one lift
      {(phi, s) : phi in L+(Lam - s*D), s >= 0} in |V| + 1 coordinates,
      and its image in (phi(v), s).  Along D = Lam1 the image is the
      tropical overgraph with its axes swapped; along D = e_v, where
      s <= laplacian(phi)(v) + Lam(v), it is the Arakelov band.  Each is
      bounded by one convex or concave function, so LPs in objective
      directions find its half-planes (Lassez & Lassez 1992): the extreme
      values of s and phi(v) give the two end points, and between two
      known boundary points one LP along the chord's normal either
      certifies the chord as an edge or returns a boundary point strictly
      between them (the sandwich algorithm, Rote 1992).  That makes
      2*(breakpoints) + 1 LPs, and none is solved cold: one zero-objective
      solve of the lift keeps its tableau, and each support LP is a
      `simplex.reoptimize` of it, each end point on the optimal face of
      its range LP (lexicographic).  `enumerate_v_rep` turns the
      half-planes into vertices and rays.

The routes are independent: the least-element route makes no LP (LCP
principal pivots); the parametric route moves the right-hand side along
one tableau; the support LPs move the objective over a fixed system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import (ConsistencyError, DimensionTooLarge, EmptySystemError,
                     InfeasibleEverywhere, NonPositiveDegree, UnknownVertex)
from .graphs import Divisor, Graph
from .linalg import dot
from .linsys import (LinearSystemSpec, build_system, least_element_path,
                     minimal_element)
from .parametric import ParametricResult, parametric_value_function
from .plf import PiecewiseLinearFunction
from .polyhedra import HPolyhedron, VPolyhedron, enumerate_v_rep
from .simplex import INFEASIBLE, OPTIMAL, reoptimize, solve_raw

# Largest graph `cross_verify` checks by support LPs.  It makes one cold
# solve of the lift and 2*(breakpoints) + 1 re-optimisations of it, and
# both the breakpoints and the pivots per re-optimisation grow with |V|.
# On the ladder instance (`tests/test_cli._ladder_doc`: C_n plus n//2
# chords, Python 3.11 on a 2-CPU VM), over three vertex orders and either
# flag, the projection took 0.07-0.09 s at n = 20, 0.32-0.45 s at n = 30
# and 1.35-1.64 s at n = 40.
VERIFY_MAX_VERTICES = 30

# A tropical job has deg Lam > 0, and the Laplacian maps onto the rational
# divisors of degree 0, so L+(Lam) is nonempty: its body is never empty.
_NONEMPTY_AT_ZERO = "the effective system at t = 0 is empty although deg(lam) > 0"


@dataclass(frozen=True)
class TropicalFlag:
    y1_specialization: Divisor
    vertex: str


@dataclass(frozen=True)
class ArakelovFlag:
    vertex: str


@dataclass(frozen=True)
class CurveBodyJob:
    graph: Graph
    lam: Divisor
    flag: Union[TropicalFlag, ArakelovFlag]

    def __post_init__(self):
        if self.lam.graph != self.graph:
            raise UnknownVertex("divisor does not live on the job's graph")
        self.graph.index(self.flag.vertex)
        if isinstance(self.flag, TropicalFlag):
            y1 = self.flag.y1_specialization
            if y1.graph != self.graph:
                raise UnknownVertex("flag divisor does not live on the job's graph")
            if not y1.is_effective() or y1.degree() <= 0:
                raise NonPositiveDegree(
                    "tropical flag needs an effective specialization of positive degree")
            if self.lam.degree() <= 0:
                raise NonPositiveDegree("tropical jobs need deg(lam) > 0")


@dataclass(frozen=True)
class NOBody2D:
    """A two-dimensional body, unbounded along `recession` only."""

    kind: str  # "overgraph" | "band"
    lower: PiecewiseLinearFunction
    upper: Optional[PiecewiseLinearFunction]
    recession: Tuple[Fraction, Fraction]
    warnings: Tuple[str, ...] = ()

    @property
    def boundary(self) -> PiecewiseLinearFunction:
        """The function the body is bounded by: `lower` for an overgraph,
        `upper` for a band (whose lower side is y = 0)."""
        return self.lower if self.kind == "overgraph" else self.upper

    def contains(self, point) -> bool:
        t, y = Fraction(point[0]), Fraction(point[1])
        f = self.boundary
        if not f.in_domain(t):
            return False
        if self.kind == "overgraph":
            return y >= f.value_at(t)
        return 0 <= y <= f.value_at(t)

    def halfplanes(self):
        """The body as rows ((a_t, a_y), b), a.(t, y) >= b: one per piece
        of the boundary (y above it for an overgraph, below it for a band),
        y >= 0 for a band, and the ends of the boundary's domain.  A
        one-point domain reads as one piece of slope 0, which pins y to
        its side of the value there."""
        f = self.boundary
        sign = 1 if self.kind == "overgraph" else -1
        # sign (y - v - m (x - t)) >= 0 at a point (x, y), (t, v) the piece's left end
        rows = [((-sign * m, sign), sign * (v - m * t))
                for (t, v), m in zip(f.breakpoints, f.slopes() or [0])]
        if self.kind == "band":
            rows.append(((0, 1), 0))
        rows.append(((1, 0), f.domain_start))
        if f.tail_slope is None:
            rows.append(((-1, 0), -f.breakpoints[-1][0]))
        return rows


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    agree: bool
    # the boundary function of the least-element (production) route, under
    # the name perfbench/workloads.py reads
    parametric: PiecewiseLinearFunction
    projection: PiecewiseLinearFunction
    first_disagreement: Optional[Fraction] = None
    body: Optional[NOBody2D] = None  # the least-element-route body


def _first_disagreement(p, q) -> Optional[Fraction]:
    for (ta, va), (tb, vb) in zip(p.breakpoints, q.breakpoints):
        if ta != tb:
            return min(ta, tb)
        if va != vb:
            return ta
    if len(p.breakpoints) != len(q.breakpoints):
        longer = p if len(p.breakpoints) > len(q.breakpoints) else q
        return longer.breakpoints[min(len(p.breakpoints), len(q.breakpoints))][0]
    if p.tail_slope != q.tail_slope:
        return p.breakpoints[-1][0]
    return None


def _system_rows(job: CurveBodyJob):
    """(rows, rhs) of L+(Lam) as `build_system` lays it out: the Laplacian
    rows, then the rows phi >= 0."""
    poly = build_system(LinearSystemSpec(job.graph, job.lam, True))
    return [a for a, _ in poly.constraints], [b for _, b in poly.constraints]


def _tropical_end(job: CurveBodyJob) -> Fraction:
    return job.lam.degree() / job.flag.y1_specialization.degree()


def _check_tropical_end(t_feasible, t_end) -> None:
    """A route must reach t_end: for t <= t_end, D = Lam - t*Lam1 has
    degree >= 0, so (deg D / n) - D = laplacian(phi) for a rational phi,
    which a constant shift makes >= 0, and L+(D) is not empty."""
    if t_feasible != t_end:
        raise ConsistencyError(
            f"the family is empty past t = {t_feasible} although its degree "
            f"is >= 0 up to t = {t_end}")


def _overgraph(lower: PiecewiseLinearFunction) -> NOBody2D:
    return NOBody2D("overgraph", lower, None, (Fraction(0), Fraction(1)))


def _band(upper: PiecewiseLinearFunction, t_start) -> NOBody2D:
    """The band between 0 and `upper` from t_start on, which warns when
    members must vanish at the flag component."""
    if upper.tail_slope != 0:
        raise ConsistencyError("upper function is not eventually constant")
    warnings = ()
    if t_start > 0:
        warnings = (f"members must vanish to order >= {t_start} at the flag "
                    f"component; band starts at t = {t_start}, not 0",)
    zero = PiecewiseLinearFunction(((t_start, 0),), tail_slope=0)
    return NOBody2D("band", zero, upper, (Fraction(1), Fraction(0)), warnings)


def combinatorial_body(job: CurveBodyJob) -> NOBody2D:
    """The body by the least-element route.

    Tropical: the path of least elements of L+(Lam - t*Lam1) over
    t in [0, deg Lam / deg Lam1]; a(t) is its value at the flag vertex.

    Arakelov: the path starts at t_start = pi(v), pi the least element of
    L+(Lam).  For t >= t_start, z(t) is the least element on V - {v} of the
    reduced Laplacian system with right-hand side Lam' + t*laplacian_{.v}
    (a nonsingular M-matrix, so it is never empty).  Row v has
    non-positive coefficients off v, so z(t) maximizes laplacian(phi)(v)
    over the slice and b(t) = Lam(v) + deg(v)*t - sum_w m_vw z(t)(w)."""
    g = job.graph
    lap = g.laplacian_matrix()
    lam = job.lam.values
    iv = g.index(job.flag.vertex)
    if isinstance(job.flag, TropicalFlag):
        t_end = _tropical_end(job)
        path = least_element_path(lap, lam, [-c for c in job.flag.y1_specialization.values],
                                  0, t_end)
        if path is None:
            raise ConsistencyError(_NONEMPTY_AT_ZERO)
        _check_tropical_end(path[-1][1], t_end)
        lower = PiecewiseLinearFunction.from_pieces(
            [(lo, hi, a[iv], b[iv]) for lo, hi, a, b in path], shape="convex")
        return _overgraph(lower)
    pi = minimal_element(LinearSystemSpec(g, job.lam, True))
    if pi is None:
        raise EmptySystemError("the effective system is empty")
    t_start = pi[job.flag.vertex]
    rest = [i for i in range(len(lam)) if i != iv]
    path = least_element_path([[lap[i][j] for j in rest] for i in rest],
                              [lam[i] for i in rest], [lap[i][iv] for i in rest],
                              t_start)
    row = [lap[iv][j] for j in rest]
    pieces = [(lo, hi, lam[iv] + dot(row, a), lap[iv][iv] + dot(row, b))
              for lo, hi, a, b in path]
    upper = PiecewiseLinearFunction.from_pieces(pieces, shape="concave",
                                                tail_slope=pieces[-1][3])
    return _band(upper, t_start)


def _tropical_family(job: CurveBodyJob):
    """(A, b0, b1, objective) for the family laplacian(phi) + Lam - t*Lam1 >= 0,
    phi >= 0, minimizing phi at the flag vertex."""
    g = job.graph
    n = len(g.vertices)
    rows, b0 = _system_rows(job)
    b1 = list(job.flag.y1_specialization.values) + [Fraction(0)] * n
    objective = [Fraction(0)] * n
    objective[g.index(job.flag.vertex)] = Fraction(1)
    return rows, b0, b1, objective


def tropical_body_parametric(job: CurveBodyJob) -> ParametricResult:
    """The parametric LP over [0, t_end]; the family is nonempty on all of
    it (see _check_tropical_end)."""
    t_end = _tropical_end(job)
    rows, b0, b1, objective = _tropical_family(job)
    try:
        result = parametric_value_function(rows, b0, b1, objective, "min",
                                           (Fraction(0), t_end))
    except InfeasibleEverywhere:
        raise ConsistencyError(_NONEMPTY_AT_ZERO) from None
    _check_tropical_end(result.feasible_end, t_end)
    return result


def _sandwich(p, q, support):
    """(slope m, intercept c) of each edge dep = m*ind + c of a convex or
    concave boundary between two of its points p and q, given as
    (ind, dep) with p[0] <= q[0].  support(m) returns a point of the region
    where dep - m*ind is optimal: least under a convex boundary, greatest
    over a concave one.  When p[0] == q[0] the boundary is that one point,
    given as the level line through it."""
    if p[0] == q[0]:
        return [(Fraction(0), p[1])]
    edges, todo = [], [(p, q)]
    while todo:
        p, q = todo.pop()
        m = (q[1] - p[1]) / (q[0] - p[0])
        r = support(m)
        if r[1] - m * r[0] == p[1] - m * p[0]:
            edges.append((m, p[1] - m * p[0]))
            continue
        if not p[0] < r[0] < q[0]:
            raise ConsistencyError(f"support point {r} is not between {p} and {q}")
        todo += [(p, r), (r, q)]
    return edges


def _support_image(job: CurveBodyJob) -> VPolyhedron:
    """The image in (phi(v), s) of the lift {(phi, s) : phi in L+(Lam - s*D),
    s >= 0}, D = Lam1 for a tropical flag and e_v for an Arakelov one, from
    its half-planes (empty when the lift is).  One cold solve of the lift
    with a zero objective; every support LP re-optimises its tableau: the
    range LPs and the sandwich LPs from that solve, each end point on the
    face of its range LP."""
    g = job.graph
    n, iv = len(g.vertices), g.index(job.flag.vertex)
    tropical = isinstance(job.flag, TropicalFlag)
    direction = (job.flag.y1_specialization.values if tropical
                 else [int(i == iv) for i in range(n)])
    rows, rhs = _system_rows(job)
    lift = [((*a, -d), b) for a, d, b in zip(rows, [*direction] + [0] * n, rhs)]
    lift.append(((0,) * n + (1,), 0))
    base = solve_raw(lift, [0] * (n + 1), "min")
    if base.status == INFEASIBLE:
        return VPolyhedron([])

    def lp(face, objective, sense):
        """The optimal outcome of objective (c_y, c_s), for c_y*phi(v) +
        c_s*s, over the optimal points of `face`."""
        c = [0] * (n + 1)
        c[iv], c[n] = objective
        out = reoptimize(face, c, sense)
        if out.status != OPTIMAL:
            raise ConsistencyError(f"the lift is unbounded along {objective} ({sense})")
        return out

    def point(out):
        return out.witness[iv], out.witness[n]

    if tropical:
        # the overgraph of a(s) over [t_lo, t_hi]; points as (s, a(s))
        low, high = lp(base, (0, 1), "min"), lp(base, (0, 1), "max")
        t_lo, t_hi = low.value, high.value
        ends = [point(lp(face, (1, 0), "min"))[::-1] for face in (low, high)]
        edges = _sandwich(*ends, lambda m: point(lp(base, (1, -m), "min"))[::-1])
        halfplanes = [((0, 1), t_lo), ((0, -1), -t_hi)]
        halfplanes += [((1, -m), c) for m, c in edges]
    else:
        # the band under b(t) from t_lo on, constant B from t* on
        low, top = lp(base, (1, 0), "min"), lp(base, (0, 1), "max")
        t_lo = low.value
        ends = [point(lp(low, (0, 1), "max")), point(lp(top, (1, 0), "min"))]
        edges = _sandwich(*ends, lambda m: point(lp(base, (-m, 1), "max")))
        halfplanes = [((1, 0), t_lo), ((0, 1), 0), ((0, -1), -top.value)]
        halfplanes += [((m, -1), -c) for m, c in edges]
    return enumerate_v_rep(HPolyhedron(2, halfplanes))


def tropical_body_projection(job: CurveBodyJob) -> PiecewiseLinearFunction:
    """Same function via support LPs, from the lift along D = Lam1:
    {(phi(v), t) : phi in L+(Lam - t*Lam1), t >= 0} is the overgraph
    {(y, t) : 0 <= t <= t_end, y >= a(t)}, because L+ is closed under
    adding constants and the sum of the Laplacian rows gives t <= t_end.
    So its vertices, read as (t, phi(v)), are the breakpoints."""
    vrep = _support_image(job)
    if vrep.is_empty():
        raise ConsistencyError(f"projected body is empty: {_NONEMPTY_AT_ZERO}")
    if (Fraction(1), Fraction(0)) not in vrep.rays:
        raise ConsistencyError(f"projected region is not an overgraph: rays {vrep.rays}")
    return PiecewiseLinearFunction(tuple(sorted((t, a) for a, t in vrep.vertices)),
                                   shape="convex")


def _arakelov_family(job: CurveBodyJob):
    """(A, b0, b1, objective) for L+(Lam) sliced by phi(v) = t, maximizing
    laplacian(phi)(v)."""
    g = job.graph
    n = len(g.vertices)
    iv = g.index(job.flag.vertex)
    rows, b0 = _system_rows(job)
    b1 = [Fraction(0)] * (2 * n)
    # slice phi(v) = t as a pair of parametric inequalities
    ev = [Fraction(0)] * n
    ev[iv] = Fraction(1)
    rows += [tuple(ev), tuple(-v for v in ev)]
    b0 += [Fraction(0), Fraction(0)]
    b1 += [Fraction(1), Fraction(-1)]
    objective = list(rows[iv])
    return rows, b0, b1, objective


def arakelov_body_parametric(job: CurveBodyJob) -> ParametricResult:
    """The parametric LP of max laplacian(phi)(v) over t >= 0.  The body's
    upper function is Lam(v) + its value, from the left end of its feasible
    range (`feasible_start`) on."""
    rows, b0, b1, objective = _arakelov_family(job)
    try:
        return parametric_value_function(rows, b0, b1, objective, "max",
                                         (Fraction(0), None))
    except InfeasibleEverywhere:
        raise EmptySystemError("the effective system is empty") from None


def arakelov_body_projection(job: CurveBodyJob) -> PiecewiseLinearFunction:
    """Upper function via support LPs, from the lift along D = e_v:
    {(phi(v), u) : phi in L+(Lam - u*e_v), u >= 0} is the band
    {(t, u) : 0 <= u <= b(t)}, because row v of the lift reads
    u <= laplacian(phi)(v) + Lam(v) (row v of L+(Lam) follows from it and
    u >= 0).  The upper boundary is read off the vertices."""
    vrep = _support_image(job)
    if vrep.is_empty():
        raise EmptySystemError("the effective system is empty")
    if vrep.rays != ((Fraction(1), Fraction(0)),):
        raise ConsistencyError(f"projected band has unexpected rays {vrep.rays}")
    tops = {}
    for t, u in vrep.vertices:
        tops[t] = max(tops.get(t, u), u)
    pts = sorted(tops.items())
    return PiecewiseLinearFunction(tuple(pts), tail_slope=Fraction(0), shape="concave")


def _parametric_body(job: CurveBodyJob) -> NOBody2D:
    """The body by the parametric route; the only place it is assembled."""
    if isinstance(job.flag, TropicalFlag):
        return _overgraph(tropical_body_parametric(job).function)
    result = arakelov_body_parametric(job)
    shift = job.lam[job.flag.vertex]
    raw = result.function
    upper = PiecewiseLinearFunction(
        tuple((t, v + shift) for t, v in raw.breakpoints),
        tail_slope=raw.tail_slope, shape="concave")
    return _band(upper, result.feasible_start)


def compute_body(job: CurveBodyJob, cross_check: bool = True) -> NOBody2D:
    """The body of the job by the least-element route; with cross_check,
    the parametric route must build the same body, warnings included."""
    body = combinatorial_body(job)
    if cross_check:
        try:
            check = _parametric_body(job)
        except EmptySystemError as exc:
            check = f"an empty system ({exc})"
        if check != body:
            raise ConsistencyError("least-element and parametric routes disagree: "
                                   + _disagreement(body, check))
    return body


def _disagreement(body: NOBody2D, check) -> str:
    """Where the parametric route's body `check`, or the text naming its
    empty system, first differs from the least-element route's `body`."""
    if isinstance(check, str):
        return f"the parametric route finds {check}"
    if check.kind != body.kind:
        return f"kinds {body.kind} vs {check.kind}"
    t = _first_disagreement(body.boundary, check.boundary)
    if t is not None:
        return f"first disagreement at t = {t}"
    return f"different warnings: {body.warnings} vs {check.warnings}"


def stabilization(body: NOBody2D) -> Tuple[Fraction, Fraction]:
    """(t*, constant value) of a band body's upper function."""
    if body.kind != "band":
        raise ValueError("stabilization is a band-body notion")
    t_star, value = body.upper.breakpoints[-1]
    return t_star, value


def cross_verify(job: CurveBodyJob) -> VerificationReport:
    """Build the body by the least-element route, compare its boundary
    function with the projection route's exactly, and keep the body.
    Graphs over VERIFY_MAX_VERTICES vertices are refused up front."""
    n = len(job.graph.vertices)
    if n > VERIFY_MAX_VERTICES:
        raise DimensionTooLarge(
            f"the support-LP cross-check takes at most {VERIFY_MAX_VERTICES} "
            f"vertices; this graph has {n}")
    body = combinatorial_body(job)
    if body.kind == "overgraph":
        kind, proj = "tropical", tropical_body_projection(job)
    else:
        kind, proj = "arakelov", arakelov_body_projection(job)
    route = body.boundary
    agree = route == proj
    return VerificationReport(kind, agree, route, proj,
                              None if agree else _first_disagreement(route, proj), body)
