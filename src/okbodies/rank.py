"""Integer non-negative rank via reduced divisors.

A divisor Lam with integer coefficients has non-negative rank when some
integer-valued phi >= 0 satisfies laplacian(phi) + Lam >= 0; equivalently
when Lam is chip-firing equivalent to an effective divisor.  We decide
this with Dhar's burning algorithm: compute the divisor reduced with
respect to a base vertex q and read off effectivity there.  The answer is
independent of the base vertex.

Three stages, all in exact integer arithmetic:
  1. level firing: walking the BFS levels from the base outward-in, fire
     the sub-level set enough times (closed form, no iteration) to make
     every non-base vertex non-negative;
  2. the energy step (Baker & Shokrieh, "Chip-firing games, potential
     theory on graphs, and spanning trees", JCTA 120, 2013), only when
     at least n^2 chips are left off q: solve L_q x = d exactly on
     V - {q} (L_q the reduced Laplacian), fire floor(x) from V - {q},
     which leaves -deg(v) < d(v) < deg(v) there, and level-fire again.
     A reduced divisor keeps at most genus chips off q, so without the
     step Dhar burning carries every excess chip to q a few at a time;
     below the gate the O(n^3) solve costs more than those rounds;
  3. Dhar burning from the base, incrementally: each newly burnt vertex
     heats its unburnt neighbours once, so a round heats along each edge
     at most once; each surviving unburnt set is fired the maximal number
     of times it tolerates at once.
floor(x) is an integer firing script, so every stage stays in the class
of Lam, and the reduced divisor is unique in its class.
"""

from __future__ import annotations

from typing import List, Optional

from . import linalg
from .errors import NonIntegerDivisor
from .graphs import Divisor, Graph


def _fire_levels(d: List[int], nbrs, dist, levels) -> None:
    """Stage 1 in place: make d >= 0 away from the base.  Only the level
    k - 1 has edges leaving the ball {dist < k}, so firing the ball moves
    chips along exactly the edges between levels k - 1 and k."""
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


def q_reduced(g: Graph, lam: Divisor, base: Optional[str] = None) -> List[int]:
    """The divisor reduced with respect to `base`, as an int list in vertex
    order.  Requires an integer divisor."""
    if not lam.is_integral():
        raise NonIntegerDivisor("reduced divisors need integer coefficients")
    q = g.index(base) if base is not None else 0
    return _reduce(g, [v.numerator for v in lam.values], q)


def has_nonnegative_rank(g: Graph, lam: Divisor, base: Optional[str] = None) -> bool:
    """True iff some integer phi >= 0 has laplacian(phi) + lam >= 0."""
    if not lam.is_integral():
        raise NonIntegerDivisor("non-negative rank is defined for integer divisors")
    d = [v.numerator for v in lam.values]
    if sum(d) < 0:
        return False
    q = g.index(base) if base is not None else 0
    return _reduce(g, d, q)[q] >= 0


def _reduce(g: Graph, d: List[int], q: int) -> List[int]:
    """The chips d reduced in place with respect to vertex index q."""
    n = len(g.vertices)
    nbrs = g.neighbours
    dist = g.distances_from(g.vertices[q])
    levels = [[] for _ in range(max(dist) + 1)]
    for v, k in enumerate(dist):
        levels[k].append(v)
    _fire_levels(d, nbrs, dist, levels)

    # stage 2: d >= 0 off q here, and L_q^-1 >= 0 (an M-matrix inverse),
    # so x >= 0 and each vertex fires floor(x(v)) >= 0 times
    if sum(d) - d[q] >= n * n:
        others = [v for v in range(n) if v != q]
        lap = g.laplacian_matrix()
        x = linalg.solve_square([[lap[i][j] for j in others] for i in others],
                                [d[i] for i in others])
        for v, xv in zip(others, x):
            times = xv.numerator // xv.denominator
            if times:
                d[v] -= times * lap[v][v]
                for w, m in nbrs[v]:
                    d[w] += times * m
        _fire_levels(d, nbrs, dist, levels)

    # stage 3: Dhar burning from q.  heat[v] counts the edges from v to
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
