"""Linear systems on graphs.

L(Lam) is the set of functions phi with laplacian(phi) + Lam >= 0; the
effective system L+(Lam) additionally requires phi >= 0.  Both are cut
out by finitely many half-spaces in |V| coordinates (canonical vertex
order), so everything here reduces to the polyhedron kernel.

The minimal element of a nonempty effective system is the coordinatewise
minimum vector; min-closure of the system guarantees it is itself a
member, and we assert that rather than assume it.
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


@dataclass(frozen=True)
class EnrichedSystemSpec:
    base: LinearSystemSpec
    vertex: str

    def __post_init__(self):
        if not self.base.effective:
            raise ValueError("enriched systems are built over effective systems")
        self.base.graph.index(self.vertex)  # raises UnknownVertex


def laplacian_rows(g: Graph):
    """Integer Laplacian rows as Fractions, in vertex order."""
    return [tuple(Fraction(x) for x in row) for row in g.laplacian_matrix()]


def build_system(spec: LinearSystemSpec) -> HPolyhedron:
    """H-polyhedron of the system: one row laplacian(phi)(v) >= -Lam(v) per
    vertex, plus phi(v) >= 0 per vertex when effective."""
    g = spec.graph
    n = len(g.vertices)
    rows = []
    for i, lrow in enumerate(laplacian_rows(g)):
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


def minimal_element(spec: LinearSystemSpec) -> Optional[GraphFunction]:
    """Coordinatewise minimum of L+(Lam), or None when the system is empty.

    The Laplacian is a Z-matrix, so this is the least solution of
    LCP(laplacian, Lam) (Cottle & Veinott 1972), and Chandrasekaran's
    algorithm finds it: z is 0 off an active set J and solves
    laplacian_JJ z_J = -Lam_J on it; each round adds to J every vertex where
    laplacian(z) + Lam < 0.  Proper principal submatrices of a connected
    Laplacian are nonsingular M-matrices, so z rises and stays below the
    least element pi, and J stays inside the support of pi.  pi has min 0
    (constants are in the kernel), so J = V means the system is empty.
    Membership of the result is checked, not assumed."""
    if not spec.effective:
        raise ValueError("minimal elements exist only for effective systems")
    lap = spec.graph.laplacian_matrix()
    lam = spec.lam.values
    n = len(lam)
    z = [Fraction(0)] * n
    active = []
    while True:
        entering = [i for i in range(n) if linalg.dot(lap[i], z) + lam[i] < 0]
        if not entering:
            break
        active += entering
        if len(active) == n:
            return None
        sol = linalg.solve_square([[lap[i][j] for j in active] for i in active],
                                  [-lam[i] for i in active])
        for i, v in zip(active, sol):
            z[i] = v
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


def enriched_system(spec: EnrichedSystemSpec) -> HPolyhedron:
    """System in |V|+1 coordinates (phi, u): the base constraints plus
    0 <= u <= laplacian(phi)(v) + Lam(v) at the marked vertex."""
    base = build_system(spec.base)
    g = spec.base.graph
    n = len(g.vertices)
    i = g.index(spec.vertex)
    rows = [(a + (Fraction(0),), b) for a, b in base.constraints]
    u_nonneg = tuple(Fraction(0) for _ in range(n)) + (Fraction(1),)
    rows.append((u_nonneg, Fraction(0)))
    lrow = laplacian_rows(g)[i]
    cap = lrow + (Fraction(-1),)
    rows.append((cap, -spec.base.lam.values[i]))
    return HPolyhedron(n + 1, rows)
