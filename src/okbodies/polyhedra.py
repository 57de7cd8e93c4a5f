"""Exact convex polyhedra: H- and V-representations, LP, Fourier-Motzkin
projection, brute-force vertex/ray enumeration, and the canonical form,
membership and equality tests of V-representations.  Maps of polyhedra
live with their one user: the toric flag map in `toric`.

Conventions: an HPolyhedron in R^d is a list of constraints a.x >= b.
A VPolyhedron is conv(vertices) + cone(rays).  Emptiness is a status,
never an exception.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import linalg, simplex
from .errors import DimensionMismatch, DimensionTooLarge
from .simplex import INFEASIBLE, LPOutcome, OPTIMAL

Vector = Tuple[Fraction, ...]
Constraint = Tuple[Vector, Fraction]

# Most row subsets enumerate_v_rep may solve: C(r, d) + C(r, d - 1) for r
# working rows in dimension d.  A subset costs about 35 us (Python 3.11 on
# a 2-CPU VM), so the bound keeps one enumeration under a second there and
# to seconds on a host several times slower.  The largest enumeration of
# the tests and the benchmark workloads tries 3,432 subsets.  Toric bodies
# of boxes (tests/test_cli._box_doc(d, 2, 3)) make two enumerations of
# 19,448 subsets at d = 6 (1.3 s a job), 75,582 at d = 7 (3.7 s) and
# 293,930 at d = 8 (23 s).
VERTEX_ENUMERATION_MAX_SUBSETS = 20_000


def _vec(values) -> Vector:
    # a tuple from a list, not a generator: see linalg.int_rows
    return tuple([v if isinstance(v, Fraction) else Fraction(v) for v in values])


@dataclass(frozen=True)
class HPolyhedron:
    """Intersection of half-spaces a.x >= b in fixed dimension."""

    dimension: int
    constraints: Tuple[Constraint, ...]

    def __init__(self, dimension: int, constraints):
        norm = []
        for a, b in constraints:
            a = _vec(a)
            if len(a) != dimension:
                raise DimensionMismatch(
                    f"constraint length {len(a)} in dimension {dimension}")
            norm.append((a, Fraction(b)))
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "constraints", tuple(norm))

    def contains(self, point) -> bool:
        point = _vec(point)
        if len(point) != self.dimension:
            raise DimensionMismatch("point dimension mismatch")
        return all(linalg.dot(a, point) >= b for a, b in self.constraints)

    def with_constraints(self, extra) -> "HPolyhedron":
        return HPolyhedron(self.dimension, list(self.constraints) + list(extra))

    def is_empty(self) -> bool:
        zero = [Fraction(0)] * self.dimension
        return solve_lp(self, zero, "min").status == INFEASIBLE


@dataclass(frozen=True)
class VPolyhedron:
    """conv(vertices) + cone(rays)."""

    vertices: Tuple[Vector, ...]
    rays: Tuple[Vector, ...] = ()

    def __init__(self, vertices, rays=()):
        object.__setattr__(self, "vertices", tuple(_vec(v) for v in vertices))
        object.__setattr__(self, "rays", tuple(_vec(r) for r in rays))

    @property
    def dimension(self) -> Optional[int]:
        if self.vertices:
            return len(self.vertices[0])
        if self.rays:
            return len(self.rays[0])
        return None

    def is_empty(self) -> bool:
        return not self.vertices

    def contains(self, point) -> bool:
        """Membership by LP: (point, 1) in the cone of the (vertex, 1) and
        (ray, 0)."""
        if self.is_empty():
            return False
        return in_cone((*_vec(point), 1),
                       [(*v, 1) for v in self.vertices] + [(*r, 0) for r in self.rays])


def solve_lp(p: HPolyhedron, objective, sense: str = "min") -> LPOutcome:
    """Exact LP over an H-polyhedron, with verified certificates."""
    objective = _vec(objective)
    if len(objective) != p.dimension:
        raise DimensionMismatch(
            f"objective length {len(objective)} in dimension {p.dimension}")
    return simplex.solve_raw(p.constraints, objective, sense)


def _drop_redundant(constraints) -> list:
    """Remove rows implied by the others, via one LP per candidate row.
    Trivial rows (0 >= b with b <= 0) and duplicates go first, cheaply.
    When the other rows are already infeasible, the system is empty and
    becomes the single row 0 >= 1."""
    seen = set()
    rows = []
    for a, b in constraints:
        # positive scaling to a primitive integer row, rhs included
        *a, b = linalg.primitive_direction((*a, b))
        a = tuple(a)
        if all(v == 0 for v in a):
            if b > 0:
                rows.append((a, b))  # keep: records infeasibility
            continue
        if (a, b) not in seen:
            seen.add((a, b))
            rows.append((a, b))
    kept = list(rows)
    i = 0
    while i < len(kept):
        a, b = kept[i]
        others = kept[:i] + kept[i + 1:]
        out = simplex.solve_raw(others, a, "min")
        if out.status == INFEASIBLE:
            return [((Fraction(0),) * len(a), Fraction(1))]
        if out.status == OPTIMAL and out.value >= b:
            kept.pop(i)
        else:
            i += 1
    return kept


def fm_eliminate(p: HPolyhedron, var_index: int) -> HPolyhedron:
    """Project out coordinate `var_index` by Fourier-Motzkin pairing.
    LP-based redundancy removal keeps the output tame."""
    if not (0 <= var_index < p.dimension):
        raise DimensionMismatch(
            f"variable index {var_index} out of range for dimension {p.dimension}")

    def strip(a):
        return a[:var_index] + a[var_index + 1:]

    zero, lower, upper = [], [], []
    for a, b in p.constraints:
        c = a[var_index]
        if c == 0:
            zero.append((strip(a), b))
        elif c > 0:
            lower.append((a, b))
        else:
            upper.append((a, b))
    combined = list(zero)
    for (al, bl), (au, bu) in itertools.product(lower, upper):
        cl, cu = al[var_index], au[var_index]
        # cl > 0, cu < 0; positive multipliers -cu and cl kill the variable
        row = tuple(-cu * x + cl * y for x, y in zip(al, au))
        rhs = -cu * bl + cl * bu
        combined.append((strip(row), rhs))
    return HPolyhedron(p.dimension - 1, _drop_redundant(combined))


def project_out(p: HPolyhedron, var_indices: Sequence[int]) -> HPolyhedron:
    """Eliminate several coordinates (indices in the original numbering)."""
    remaining = p
    for idx in sorted(var_indices, reverse=True):
        remaining = fm_eliminate(remaining, idx)
    return remaining


def enumerate_v_rep(p: HPolyhedron) -> VPolyhedron:
    """Exact vertices and extreme rays by brute force over constraint
    subsets.  A non-pointed polyhedron is split into a pointed section
    plus its lineality directions (emitted as opposite ray pairs).

    The rows, section rows included, become integer rows (A, B), A.x >= B,
    once.  Each d-subset is solved by `linalg.solve_integer` to numerators
    X over one denominator D > 0, so feasibility reads A.X >= B*D; each
    (d-1)-subset of rank d-1 gives a primitive integer direction r by
    `linalg.null_vector`, tested by A.r >= 0.  Fractions are built only
    for the result.

    The result is canonical as built, with no LP:
    - `work` (the rows plus the section) is pointed: L, the lineality
      space of p, meets L^perp, which the section rows cut out, only in 0.
    - A feasible solution of a nonsingular d-subset of rows is a vertex,
      and a nonempty pointed polyhedron has one; so finding no vertex means
      p (which is work + L) is empty.
    - A cone ray tight at a rank-(d-1) subset is extreme in the pointed
      recession cone, so it is not in the cone of the other rays, and a
      vertex of work is not in the hull of the others plus that cone.
    - The lineality pairs lie in L and the section lies in L^perp, so adding
      the pairs keeps both facts: canonicalize_vrep would drop nothing.
    - For d = 0 the vertex loop tries the empty subset, whose solution ()
      is a vertex iff every row reads 0 >= b; only the ray loop is skipped.

    More than VERTEX_ENUMERATION_MAX_SUBSETS subsets of `work` are refused
    with DimensionTooLarge before any is solved.
    """
    d = p.dimension
    lineality = linalg.nullspace([list(a) for a, _ in p.constraints], ncols=d)
    rays = set()
    section = []
    for vec in lineality:
        vec = linalg.primitive_direction(vec)
        for r in (vec, tuple(-v for v in vec)):
            rays.add(r)
            section.append([*r, 0])
    work, _ = linalg.int_rows([[*a, b] for a, b in p.constraints] + section)
    subsets = math.comb(len(work), d) + (math.comb(len(work), d - 1) if d else 0)
    if subsets > VERTEX_ENUMERATION_MAX_SUBSETS:
        raise DimensionTooLarge(
            f"vertex enumeration solves at most {VERTEX_ENUMERATION_MAX_SUBSETS} "
            f"row subsets; {len(work)} rows in dimension {d} give {subsets}")

    vertices = set()
    for subset in itertools.combinations(work, d):
        sol = linalg.solve_integer(subset)
        if sol is None:
            continue
        x, den = sol
        if all(linalg.int_dot(row, x) >= row[d] * den for row in work):
            vertices.add(tuple([Fraction(v, den) for v in x]))
    if not vertices:
        return VPolyhedron([], [])

    for subset in itertools.combinations(work, d - 1) if d else ():
        r = linalg.null_vector(subset, d)
        if r is None:
            continue
        for cand in (r, [-v for v in r]):
            if all(linalg.int_dot(row, cand) >= 0 for row in work):
                rays.add(tuple(cand))
    return VPolyhedron(sorted(vertices), sorted(rays))


def canonicalize_vrep(v: VPolyhedron) -> VPolyhedron:
    """Drop rays inside the cone of the others and vertices inside the
    hull of the others plus the cone; gives a comparable canonical form."""
    rays = [linalg.primitive_direction(r) for r in v.rays]
    rays = sorted({r for r in rays if any(x != 0 for x in r)})
    kept_rays = []
    for i, r in enumerate(rays):
        others = kept_rays + rays[i + 1:]
        if not in_cone(r, others):
            kept_rays.append(r)
    verts = sorted(set(v.vertices))
    kept_verts = []
    for i, pt in enumerate(verts):
        others = kept_verts + verts[i + 1:]
        if not others:
            kept_verts.append(pt)
            continue
        if not VPolyhedron(others, kept_rays).contains(pt):
            kept_verts.append(pt)
    return VPolyhedron(kept_verts, kept_rays)


def in_cone(r, generators) -> bool:
    """True iff r is a non-negative combination of the generators."""
    if not generators:
        return all(v == 0 for v in r)
    d = len(r)
    n = len(generators)
    cons = []
    for k in range(d):
        row = [g[k] for g in generators]
        cons.append((row, r[k]))
        cons.append(([-c for c in row], -r[k]))
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        cons.append((e, Fraction(0)))
    return simplex.solve_raw(cons, [Fraction(0)] * n, "min").status == OPTIMAL


def vrep_equal(a: VPolyhedron, b: VPolyhedron) -> bool:
    """Exact set equality via canonical forms."""
    ca, cb = canonicalize_vrep(a), canonicalize_vrep(b)
    return ca.vertices == cb.vertices and ca.rays == cb.rays
