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
  2. energy step, then borrowing (the step after Baker & Shokrieh,
     "Chip-firing games, potential theory on graphs, and spanning
     trees", JCTA 120, 2013), only when at least n^2 chips are left off
     q: solve L_q x = d exactly on V - {q} (L_q the reduced Laplacian),
     as integer numerators over one positive denominator, and fire
     floor(x) from V - {q} by integer division, which leaves
     -deg(v) < d(v) < deg(v) there.  Firing scripts that keep d >= 0 off
     q are closed under maximum and, as L_q^-1 >= 0, bounded by x, so
     floor(x) is at or above the greatest of them, whose result is the
     reduced divisor.  Borrowing walks down to it: a vertex v != q in
     debt un-fires ceil(-d(v)/deg v) times, the least that clears its
     debt, which never passes below that script.  A reduced divisor
     keeps at most genus chips off q, so without the step Dhar burning
     carries every excess chip to q a few at a time; below the gate the
     O(n^3) solve costs more than those rounds.  Timed on the divisors
     of the rank-sweep benchmark (n = 8 ... 24; Python 3.11, 2 CPUs,
     best of 7 in each of three runs): below the gate a reduction took
     1.5-2.2x as long with the step as without it (0.07 against 0.03 ms
     at n = 8, 0.61 against 0.38 ms at n = 24); above it the step made
     it 1.5x faster at n = 8 and 9x at n = 24 (0.60 against 5.4 ms);
  3. Dhar burning from the base, incrementally: each newly burnt vertex
     heats its unburnt neighbours once, so a round heats along each edge
     at most once; each surviving unburnt set is fired the maximal number
     of times it tolerates at once.  After stage 2 every vertex burns in
     the first round and nothing fires.
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
    """True iff some integer phi >= 0 has laplacian(phi) + lam >= 0: iff
    the reduced divisor, which keeps the degree and is >= 0 off the base,
    is >= 0 at the base too (so a divisor of degree < 0 reads False)."""
    return q_reduced(g, lam, base)[g.index(base) if base is not None else 0] >= 0


def _borrow(d: List[int], nbrs, deg, q: int) -> None:
    """Stage 2's descent in place: while some v != q is in debt, v un-fires
    ceil(-d(v)/deg v) times, the fewest that clear its debt.  From a
    firing script at or above the greatest one that keeps d >= 0 off q,
    this lowers the script and never passes that one, so it stops on the
    q-reduced divisor."""
    debtors = [v for v, c in enumerate(d) if c < 0 and v != q]
    while debtors:
        v = debtors.pop()
        times = (deg[v] - 1 - d[v]) // deg[v]
        d[v] += times * deg[v]
        for w, m in nbrs[v]:
            # w joins the list as it goes into debt, so it is on the list
            # at most once at a time
            was = d[w]
            d[w] = was - times * m
            if d[w] < 0 <= was and w != q:
                debtors.append(w)


def _dhar(d: List[int], nbrs, q: int) -> int:
    """Stage 3 in place: Dhar burning from q until every vertex burns; the
    number of rounds that fired.  heat[v] counts the edges from v to the
    burnt set; a vertex burns once its heat exceeds its chips."""
    n = len(d)
    rounds = 0
    while True:
        heat = [0] * n
        burnt = [False] * n
        burnt[q] = True
        left = n - 1
        stack = [q]
        while stack:
            for w, m in nbrs[stack.pop()]:
                if not burnt[w]:
                    heat[w] += m
                    if heat[w] > d[w]:
                        burnt[w] = True
                        left -= 1
                        stack.append(w)
        if not left:
            return rounds
        # the graph is connected, so some unburnt vertex is heated, and
        # each heated one holds at least its heat: times >= 1
        heated = [v for v in range(n) if heat[v] and not burnt[v]]
        times = min([d[v] // heat[v] for v in heated])
        for v in heated:
            d[v] -= times * heat[v]
            for w, m in nbrs[v]:
                if burnt[w]:
                    d[w] += times * m
        rounds += 1


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
        nums, den = linalg.solve_integer([[lap[i][j] for j in others] + [d[i]]
                                          for i in others])
        for v, num in zip(others, nums):
            times = num // den
            if times:
                d[v] -= times * lap[v][v]
                for w, m in nbrs[v]:
                    d[w] += times * m
        _borrow(d, nbrs, [lap[v][v] for v in range(n)], q)

    _dhar(d, nbrs, q)
    return d
