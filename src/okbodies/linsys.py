"""Linear systems on graphs.

L(Lam) is the set of functions phi with laplacian(phi) + Lam >= 0; the
effective system L+(Lam) additionally requires phi >= 0.  Both are cut
out by finitely many half-spaces in |V| coordinates (canonical vertex
order); `build_system` writes them as an HPolyhedron for the LP routes
and oracles, and membership is a direct check of those rows.

The minimal element of a nonempty effective system is the coordinatewise
minimum vector; min-closure of the system guarantees it is itself a
member, and we assert that rather than assume it.  It comes from no LP:
it is the least element of an LCP on the Laplacian, found by principal
pivots (`least_element_path`), which also follows it along a ray of
divisors for the curve bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from . import linalg
from .errors import EmptySystemError, UnknownVertex
from .graphs import Divisor, Graph, GraphFunction, laplacian
from .polyhedra import HPolyhedron


@dataclass(frozen=True)
class LinearSystemSpec:
    graph: Graph
    lam: Divisor
    effective: bool = True

    def __post_init__(self):
        if self.lam.graph != self.graph:
            raise UnknownVertex("divisor does not live on the spec's graph")


def build_system(spec: LinearSystemSpec) -> HPolyhedron:
    """H-polyhedron of the system: one row laplacian(phi)(v) >= -Lam(v) per
    vertex, plus phi(v) >= 0 per vertex when effective."""
    g = spec.graph
    n = len(g.vertices)
    rows = []
    for i, lrow in enumerate(g.laplacian_matrix()):
        rows.append((lrow, -spec.lam.values[i]))
    if spec.effective:
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            rows.append((tuple(e), Fraction(0)))
    return HPolyhedron(n, rows)


def member(spec: LinearSystemSpec, phi: GraphFunction) -> bool:
    if phi.graph != spec.graph:
        raise UnknownVertex("function does not live on the spec's graph")
    if spec.effective and any(v < 0 for v in phi.values):
        return False
    lap = laplacian(spec.graph, phi)
    return all(a + b >= 0 for a, b in zip(lap.values, spec.lam.values))


def pointwise_min(phi1: GraphFunction, phi2: GraphFunction) -> GraphFunction:
    if phi1.graph != phi2.graph:
        raise UnknownVertex("functions live on different graphs")
    return GraphFunction(phi1.graph, [min(a, b) for a, b in zip(phi1.values, phi2.values)])


def least_element_path(matrix, q0, q1, t0, t1=None):
    """The least element z(t) of {z >= 0 : M z + q0 + t*q1 >= 0} for t from
    t0 up to t1 (None = +infinity), as pieces (lo, hi, a, b) on which
    z(t) = a + t*b; hi is None on an unbounded last piece.  Returns None
    when the system is empty at t0; otherwise the pieces tile the closed
    interval of t >= t0 (up to t1) where it is nonempty.

    M is an integer Z-matrix whose proper principal submatrices are
    nonsingular M-matrices: a connected graph's Laplacian, or a reduced
    one.  The least element solves LCP(M, q) (Cottle & Veinott 1972), and
    Chandrasekaran's algorithm finds it: z is 0 off an active set J and
    solves M_JJ z_J = -q_J on it; each round adds to J every i where
    w = M z + q < 0.  Then z rises and stays below the least element pi,
    and J stays inside the support of pi.  A singular M_JJ means J is every
    index of a Laplacian, whose least elements have min 0 (constants are in
    its kernel): the system is empty.

    With q1 <= 0, q falls as t grows, so pi(t) rises and its active set
    only grows (Cottle 1972, "Monotone solutions of the parametric linear
    complementarity problem").  One integer tableau holds w - M z = q0 +
    t*q1, row i with basic variable w_i.  J gains i by one principal pivot
    at z_i, the Schur-complement update of M_JJ (Tucker's principal pivot
    transform), so the path costs O(n^3), and a zero pivot element means
    M_JJ is singular.  Every row's last two entries are then the line
    (value, rate) of its basic variable: z_i on J, w_i off J.  Comparing
    each w_i as the pair (value at t, slope) grows J to the active set
    valid on [t, t + eps); the piece ends at the first t where some w_i
    off J with negative slope reaches 0, and J grows again there.  So
    there are at most len(q0) pieces.  The first round at t0 compares
    values alone, which decides emptiness at t0 itself."""
    n = len(q0)
    rows, dens = linalg.int_rows([[int(i == j) for j in range(n)] + [-m for m in row]
                                  + [q0[i], q1[i]] for i, row in enumerate(matrix)])
    active, pieces = set(), []
    t, lex = Fraction(t0), False
    while True:
        a, b = [Fraction(0)] * n, [Fraction(0)] * n
        for i in active:
            a[i], b[i] = Fraction(rows[i][-2], dens[i]), Fraction(rows[i][-1], dens[i])
        # off J a row's last two entries are w_i's line times the row's
        # positive denominator, which neither the signs nor the roots see
        w = [(i, row[-2], row[-1]) for i, row in enumerate(rows) if i not in active]
        entering = [i for i, w0, w1 in w if (w0 + t * w1, w1 if lex else 0) < (0, 0)]
        if entering:
            for i in entering:
                if not rows[i][n + i]:
                    if not lex:
                        return None
                    return pieces or [(t, t, a, b)]
                linalg.pivot(rows, dens, i, n + i)
                active.add(i)
            continue
        if not lex:
            lex = True
            continue
        # the first t at which a falling w_i reaches 0, or t1 on a tie
        roots = [Fraction(-w0, w1) for _, w0, w1 in w if w1 < 0]
        hi = min(roots, default=None) if t1 is None else min([t1, *roots])
        pieces.append((t, hi, a, b))
        if hi is None or hi == t1:
            return pieces
        t = hi


def minimal_element(spec: LinearSystemSpec) -> Optional[GraphFunction]:
    """Coordinatewise minimum of L+(Lam), or None when the system is empty:
    the constant path of `least_element_path` for the Laplacian and
    q = Lam.  Membership of the result is checked, not assumed."""
    if not spec.effective:
        raise ValueError("minimal elements exist only for effective systems")
    n = len(spec.lam.values)
    path = least_element_path(spec.graph.laplacian_matrix(), spec.lam.values,
                              [0] * n, 0, 0)
    if path is None:
        return None
    ((_, _, z, _),) = path
    pi = GraphFunction(spec.graph, z)
    if not member(spec, pi):
        raise AssertionError("minimal element failed the membership check")
    return pi


def zariski_shift(spec: LinearSystemSpec) -> Tuple[Divisor, GraphFunction]:
    """Zariski-style normalization: with pi the minimal element, phi |->
    phi + pi identifies L+(Lam + laplacian(pi)) with L+(Lam), and the
    shifted system has minimal element 0 (pi maps to itself)."""
    pi = minimal_element(spec)
    if pi is None:
        raise EmptySystemError("cannot shift an empty system")
    shifted = spec.lam + laplacian(spec.graph, pi)
    return shifted, pi
