"""Integer non-negative rank via reduced divisors.

A divisor Lam with integer coefficients has non-negative rank when some
integer-valued phi >= 0 satisfies laplacian(phi) + Lam >= 0; equivalently
when Lam is chip-firing equivalent to an effective divisor.  We decide
this with Dhar's burning algorithm: compute the divisor reduced with
respect to a base vertex q and read off effectivity there.  The answer is
independent of the base vertex.

Why two moves suffice.  Call a firing script sigma with sigma(q) = 0
valid when d - L sigma >= 0 off q.  Valid scripts are closed under
maximum, and as L_q^-1 >= 0 (L_q the reduced Laplacian, an M-matrix)
every one is <= x = L_q^-1 d whatever the signs of d, so a greatest one,
sigma*, exists; its result is the reduced divisor.  When a vertex
v != q in debt un-fires ceil(-d(v)/deg v) times, the fewest that clear
its debt, every valid script that was below the current one stays below
it, and some valid script lies below any start (-k adj(L_q) 1 for large
k).  So borrowing, repeated while some vertex off q is in debt, stops on
the greatest valid script below its start.  Each move works on the
divisor it is given, so it may follow any other.

The moves, in exact integer arithmetic:
  1. the energy step (after Baker & Shokrieh, "Chip-firing games,
     potential theory on graphs, and spanning trees", JCTA 120, 2013),
     when the input holds at least n^2 chips off q, counted with their
     signs dropped: solve L_q x = d exactly on V - {q}, as integer
     numerators over one positive denominator, and fire floor(x) from
     V - {q} (a negative count un-fires).  floor(x) >= sigma*, so the
     borrowing that follows stops on sigma* and Dhar burning fires
     nothing.  A reduced divisor keeps at most genus chips off q, so
     without the step Dhar burning carries every excess chip to q a few
     at a time; below the gate the O(n^3) solve costs more than those
     rounds.  Timed on the divisors of the rank-sweep benchmark (n = 8
     ... 24; Python 3.11, 2 CPUs, best of 7 in each of six runs): below
     the gate a reduction took 1.8-4.2x as long with the step as without
     it (0.05 against 0.02 ms at n = 8, 0.53-0.77 against 0.19-0.33 ms
     at n = 24); above it the step made it 1.5-2.1x faster at n = 8 and
     2.3-2.6x at n = 24 (0.55-0.60 against 1.3-1.6 ms);
  2. borrowing, then Dhar burning from the base, incrementally: each
     newly burnt vertex heats its unburnt neighbours once, so a round
     heats along each edge at most once; each surviving unburnt set is
     fired the maximal number of times it tolerates at once.  Without
     the step, borrowing starts from the zero script and leaves d >= 0
     off q, and Dhar burning climbs from there to sigma*.
Borrowing carries a debt to q like a diffusion, back and forth along
each edge: on a path of n = 40, a debt of n^2 - 1 chips at the far end
took 976,496 moves (0.48 s; 9.1 s at n = 80).  So below the gate
borrowing gives up after 2 n^2 moves (the rank-sweep divisors take at
most about n^2), and the step runs on the divisor it reached, then
borrowing to the end: 15 ms for that debt at n = 80.  Every firing
script is an integer one, so each move stays in the class of Lam, and
the reduced divisor is unique in its class.
"""

from __future__ import annotations

from typing import List, Optional

from . import linalg
from .errors import NonIntegerDivisor
from .graphs import Divisor, Graph


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


def _energy_step(g: Graph, d: List[int], q: int) -> None:
    """Move 1 in place: fire floor(L_q^-1 d) from V - {q}."""
    others = [v for v in range(len(d)) if v != q]
    lap = g.laplacian_matrix()
    nums, den = linalg.solve_integer([[lap[i][j] for j in others] + [d[i]]
                                      for i in others])
    for v, num in zip(others, nums):
        times = num // den
        if times:
            d[v] -= times * lap[v][v]
            for w, m in g.neighbours[v]:
                d[w] += times * m


def _borrow(d: List[int], nbrs, q: int, moves: int = -1) -> bool:
    """Borrowing in place: while some v != q is in debt, v un-fires
    ceil(-d(v)/deg v) times, the fewest that clear its debt.  It stops on
    the greatest valid script below the one it starts from and returns
    True, or returns False after `moves` such moves (never, when `moves`
    is negative)."""
    debtors = [v for v, c in enumerate(d) if c < 0 and v != q]
    while debtors and moves:
        moves -= 1
        v = debtors.pop()
        deg = sum([m for _, m in nbrs[v]])
        times = (deg - 1 - d[v]) // deg
        d[v] += times * deg
        for w, m in nbrs[v]:
            # w joins the list as it goes into debt, so it is on the list
            # at most once at a time
            d[w] -= times * m
            if d[w] < 0 <= d[w] + times * m and w != q:
                debtors.append(w)
    return not debtors


def _dhar(d: List[int], nbrs, q: int) -> int:
    """In place: Dhar burning from q until every vertex burns; the
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
    n, nbrs = len(d), g.neighbours
    # move 1 on the input's mass, or once borrowing has made 2 n^2 moves
    if sum(map(abs, d)) - abs(d[q]) >= n * n or not _borrow(d, nbrs, q, 2 * n * n):
        _energy_step(g, d, q)
        _borrow(d, nbrs, q)
    _dhar(d, nbrs, q)
    return d
