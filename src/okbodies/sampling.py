"""Seeded random instances for the verification harness and the tests.

Everything is driven by a caller-supplied random.Random so runs are
reproducible from a seed.  Graphs come out connected by construction
(random spanning tree first, extra edges after).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .errors import ConsistencyError
from .graphs import Divisor, Graph, GraphFunction
from .linsys import LinearSystemSpec, build_system, member
from .polyhedra import solve_lp
from .simplex import OPTIMAL


def random_graph(rng: random.Random, max_vertices: int = 5,
                 max_extra_edges: int = 3) -> Graph:
    """Connected multigraph: a random spanning tree plus a few extra
    edges (parallels and loops allowed)."""
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((names[rng.randrange(i)], names[i]))
    for _ in range(rng.randint(0, max_extra_edges)):
        edges.append((names[rng.randrange(n)], names[rng.randrange(n)]))
    return Graph(names, edges)


def random_divisor(rng: random.Random, g: Graph, bound: int = 4) -> Divisor:
    return Divisor(g, [rng.randint(-bound, bound) for _ in g.vertices])


def random_rational(rng: random.Random, lo: int = -4, hi: int = 4,
                    max_den: int = 6) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_function(rng: random.Random, g: Graph, lo: int = -4,
                    hi: int = 4) -> GraphFunction:
    return GraphFunction(g, [random_rational(rng, lo, hi) for _ in g.vertices])


def random_member(rng: random.Random, spec: LinearSystemSpec,
                  steps: int = 8) -> Optional[GraphFunction]:
    """A random member of the system, or None when it is empty.

    Solve the LP for a random objective to land on the boundary, then
    take bounded random rational steps, rejecting any that leave the
    system; the walk reaches interior-ish points the LP alone would not."""
    poly = build_system(spec)
    n = poly.dimension
    objective = [random_rational(rng, -3, 3) for _ in range(n)]
    out = solve_lp(poly, objective, "min")
    if out.status != OPTIMAL:
        # the random objective may be unbounded below (L(lam) always has
        # the all-ones lineality direction); settle for any feasible point
        out = solve_lp(poly, [Fraction(0)] * n, "min")
        if out.status != OPTIMAL:
            return None
    point = list(out.witness)
    for _ in range(steps):
        candidate = [x + random_rational(rng, -1, 1, 4) for x in point]
        if poly.contains(candidate):
            point = candidate
    phi = GraphFunction(spec.graph, point)
    if not member(spec, phi):
        raise ConsistencyError("random walk left the linear system")
    return phi
