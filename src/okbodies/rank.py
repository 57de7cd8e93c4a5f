"""Integer non-negative rank via reduced divisors.

A divisor Lam with integer coefficients has non-negative rank when some
integer-valued phi >= 0 satisfies laplacian(phi) + Lam >= 0; equivalently
when Lam is chip-firing equivalent to an effective divisor.  We decide
this with Dhar's burning algorithm: compute the divisor reduced with
respect to a base vertex and read off effectivity there.  The answer is
independent of the base vertex.

Two stages, both in exact integer arithmetic:
  1. level firing: walking the BFS levels from the base outward-in, fire
     the sub-level set enough times (closed form, no iteration) to make
     every non-base vertex non-negative;
  2. Dhar burning from the base, incrementally: each newly burnt vertex
     heats its unburnt neighbours once, so a round heats along each edge
     at most once; each surviving unburnt set is fired the maximal number
     of times it tolerates at once.
"""

from __future__ import annotations

from typing import List, Optional

from .errors import NonIntegerDivisor
from .graphs import Divisor, Graph


def q_reduced(g: Graph, lam: Divisor, base: Optional[str] = None) -> List[int]:
    """The divisor reduced with respect to `base`, as an int list in vertex
    order.  Requires an integer divisor."""
    if not lam.is_integral():
        raise NonIntegerDivisor("reduced divisors need integer coefficients")
    n = len(g.vertices)
    q = g.index(base) if base is not None else 0
    nbrs = g.neighbours
    d = [int(v) for v in lam.values]

    # stage 1: make d >= 0 away from q.  Only the level k - 1 has edges
    # leaving the ball {dist < k}, so firing the ball moves chips along
    # exactly the edges between levels k - 1 and k.
    dist = g.distances_from(g.vertices[q])
    levels = [[] for _ in range(max(dist) + 1)]
    for v, k in enumerate(dist):
        levels[k].append(v)
    for k in range(len(levels) - 1, 0, -1):
        firings = 0
        for v in levels[k]:
            if d[v] < 0:
                gain = sum(m for w, m in nbrs[v] if dist[w] == k - 1)  # >= 1 by BFS
                firings = max(firings, (-d[v] + gain - 1) // gain)
        if firings:
            for v in levels[k - 1]:
                for w, m in nbrs[v]:
                    if dist[w] == k:
                        d[v] -= firings * m
                        d[w] += firings * m

    # stage 2: Dhar burning from q.  heat[v] counts the edges from v to
    # the burnt set; a vertex burns once its heat exceeds its chips.
    while True:
        heat = [0] * n
        burnt = [False] * n
        burnt[q] = True
        stack = [q]
        while stack:
            for w, m in nbrs[stack.pop()]:
                if not burnt[w]:
                    heat[w] += m
                    if heat[w] > d[w]:
                        burnt[w] = True
                        stack.append(w)
        unburnt = [v for v in range(n) if not burnt[v]]
        if not unburnt:
            return d
        # the graph is connected, so some unburnt vertex is heated, and
        # each heated one holds at least its heat: times >= 1
        times = min(d[v] // heat[v] for v in unburnt if heat[v])
        for v in unburnt:
            if heat[v]:
                d[v] -= times * heat[v]
                for w, m in nbrs[v]:
                    if burnt[w]:
                        d[w] += times * m


def has_nonnegative_rank(g: Graph, lam: Divisor, base: Optional[str] = None) -> bool:
    """True iff some integer phi >= 0 has laplacian(phi) + lam >= 0."""
    if not lam.is_integral():
        raise NonIntegerDivisor("non-negative rank is defined for integer divisors")
    if lam.degree() < 0:
        return False
    reduced = q_reduced(g, lam, base)
    q = g.index(base) if base is not None else 0
    return reduced[q] >= 0
