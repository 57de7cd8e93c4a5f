"""Independent oracles used by the verification harness and the tests.

Each oracle recomputes a quantity by a route deliberately different from
the production code: subset enumeration instead of the closed form,
effective-divisor enumeration plus exact lattice algebra instead of
burning, boxed integer search instead of anything clever, one LP per
vertex instead of principal pivoting.  Keep them dumb; their value is
independence.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from . import linalg
from .graphs import Divisor, Graph, GraphFunction, graph_diameter
from .linsys import LinearSystemSpec, build_system, member
from .polyhedra import solve_lp
from .simplex import INFEASIBLE, OPTIMAL


def m_statistic_bruteforce(f: Divisor) -> Fraction:
    """Max |sum over S| over all vertex subsets, enumerated directly."""
    vals = f.values
    best = Fraction(0)
    for r in range(len(vals) + 1):
        for subset in itertools.combinations(vals, r):
            s = abs(sum(subset, Fraction(0)))
            if s > best:
                best = s
    return best


def minimal_element_lp(spec: LinearSystemSpec) -> Optional[GraphFunction]:
    """Coordinatewise minimum of L+(Lam) by one LP per vertex, or None when
    the system is empty; membership of the assembled vector is a
    consequence of min-closure and is checked, not assumed."""
    if not spec.effective:
        raise ValueError("minimal elements exist only for effective systems")
    poly = build_system(spec)
    n = poly.dimension
    values = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        out = solve_lp(poly, e, "min")
        if out.status == INFEASIBLE:
            return None
        if out.status != OPTIMAL:
            raise AssertionError("per-coordinate minimum cannot be unbounded below 0")
        values.append(out.value)
    pi = GraphFunction(spec.graph, values)
    if not member(spec, pi):
        raise AssertionError("minimal element failed the membership check")
    return pi


class RankOracle:
    """Decides non-negative rank by enumerating all effective divisors of
    the right degree and testing chip-firing equivalence with exact
    integer linear algebra on the reduced Laplacian.

    Equivalence test: divisors of equal degree are equivalent iff the
    difference of their reduced coordinate vectors (base coordinate
    dropped) lies in the image of the reduced Laplacian over Z, which
    holds iff adjugate(L_red) . diff == 0 mod det(L_red)."""

    def __init__(self, graph: Graph):
        self.graph = graph
        n = len(graph.vertices)
        self.n = n
        if n == 1:
            self.det = 1
            self.adjugate = []
        else:
            lap = graph.laplacian_matrix()
            red = [row[1:] for row in lap[1:]]
            inv_cols = []
            det = linalg.det_int(red)
            if det == 0:
                raise AssertionError("reduced Laplacian of a connected graph is invertible")
            self.det = abs(det)
            adj = []
            for i in range(n - 1):
                rhs = [Fraction(int(i == j)) for j in range(n - 1)]
                col = linalg.solve_square(red, rhs)
                inv_cols.append([q * det for q in col])
            for i in range(n - 1):
                row = []
                for j in range(n - 1):
                    q = inv_cols[j][i]
                    if q.denominator != 1:
                        raise AssertionError("adjugate entry not integral")
                    row.append(int(q) * (1 if det > 0 else -1))
                adj.append(row)
            self.adjugate = adj
        self._winnable_cache = {}

    def _key(self, reduced_coords) -> tuple:
        if self.n == 1:
            return ()
        d = self.det
        return tuple(
            sum(a * c for a, c in zip(row, reduced_coords)) % d
            for row in self.adjugate)

    def _winnable_keys(self, degree: int):
        if degree not in self._winnable_cache:
            keys = set()
            for comp in _compositions(degree, self.n):
                keys.add(self._key(comp[1:]))
            self._winnable_cache[degree] = keys
        return self._winnable_cache[degree]

    def has_nonnegative_rank(self, lam: Divisor) -> bool:
        coeffs = [int(v) for v in lam.values]
        degree = sum(coeffs)
        if degree < 0:
            return False
        return self._key(coeffs[1:]) in self._winnable_keys(degree)


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def rank_boxed_search(g: Graph, lam: Divisor) -> bool:
    """Literal brute force over integer phi >= 0 in a box; only usable for
    tiny instances.  A winning phi normalized to min 0 has spread at most
    M(laplacian(phi)) * diam, and M is bounded by the positive part of lam
    (the negative part of laplacian(phi) is confined to -lam)."""
    degree = lam.degree()
    if degree < 0:
        return False
    pos = sum(int(v) for v in lam.values if v > 0)
    bound = pos * max(graph_diameter(g), 1)
    n = len(g.vertices)
    lap = g.laplacian_matrix()
    coeffs = [int(v) for v in lam.values]
    for phi in itertools.product(range(bound + 1), repeat=n):
        ok = True
        for i in range(n):
            s = sum(lap[i][j] * phi[j] for j in range(n)) + coeffs[i]
            if s < 0:
                ok = False
                break
        if ok:
            return True
    return False
