"""Exact rational simplex with Bland's anti-cycling rule.

Solves  min/max  c.x  subject to  A x >= b  with free variables, via the
standard form  A(x+ - x-) - s = b,  x+, x-, s >= 0  and a two-phase full
tableau.  Every outcome carries a certificate that is verified by direct
substitution before it is returned:

  optimal    -> witness point attaining the value
  infeasible -> Farkas vector y >= 0 with y.A = 0 and y.b > 0
  unbounded  -> ray r with A r >= 0 improving the objective

The tableau rows, reduced-cost row included, are integer rows from
`linalg` (numerators over one positive denominator) and are updated by
`linalg.pivot`, so the pivot loops do integer arithmetic only: the
entering test reads the sign of a numerator and the ratio test compares
by cross-multiplication.  Fractions are built only for the outcome.

Right-hand-side sensitivity: every tableau carries a direction d, one
rational per constraint, all zeros unless the caller passes one.  It
rides as one extra column between the artificial block and the rhs,
never a candidate to enter and never read by the ratio test, so the
pivots do not depend on it.  At the optimum that column holds B^-1 d,
the rate of each basic variable as b moves to b + s*d, and the
reduced-cost row holds the objective's rate c_B.B^-1 d.  `continue_along` moves such an outcome
along d by dual simplex pivots on its final tableau (Lemke 1954), with
the rhs column left at the solve point: a pivot on a row whose value at
b + s*d is 0 moves no value there.

Lexicographic re-optimisation: `reoptimize` optimises a new objective
over the optimal points of any optimal outcome (of a solve, a
continuation or another re-optimisation), each of which keeps its final
tableau.  It prices the new cost row on a copy of that tableau and runs
phase 2 with only the outcome's own candidate columns whose reduced cost
is 0 allowed to enter.  The others stay nonbasic at 0, which holds every visited point
on the optimal face, and the artificials never enter.  A reduced cost set
positive would not block a column, since each pivot rewrites that row, so
the face is kept by the entering scan alone.  From a zero-objective solve
every structural column has reduced cost 0: the face is the whole system,
and the re-optimisation is a phase 2 from the phase-1 basis.  The
standard-form layout stays private to this module.

Determinism over speed: Bland's rule, fixed tie-breaks, no scaling
heuristics.  Intended for dimensions <= 10 and a few hundred constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Tuple

from .errors import ConsistencyError, DimensionMismatch
from .linalg import dot, eliminate, int_dot, int_rows, pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
_ZERO = Fraction(0)


@dataclass(frozen=True)
class LPOutcome:
    status: str
    value: Optional[Fraction] = None
    witness: Optional[Tuple[Fraction, ...]] = None
    certificate: Optional[Tuple[Fraction, ...]] = None
    # standard-form basis (column indices), for parametric continuation
    basis: Optional[Tuple[int, ...]] = None
    # optimal: (value, rate along the rhs direction d) of each basic
    # variable in `basis` order, the optimal value as the tableau's
    # reduced-cost row holds it, and that value's rate along d
    basic: Optional[Tuple[Tuple[Fraction, Fraction], ...]] = None
    tableau_value: Optional[Fraction] = None
    slope: Optional[Fraction] = None
    # optimal: the final tableau and the columns that may enter, for
    # `continue_along` and `reoptimize`
    tableau: Optional[tuple] = field(default=None, compare=False, repr=False)


def _run_simplex(rows, dens, basis, cols):
    """Bland pivoting until optimal or unbounded, with only the columns in
    `cols` (ascending) candidates to enter.  rows[-1] is the reduced-cost
    row.  Returns the entering column on unboundedness, else None."""
    m = len(basis)
    rcost = rows[m]
    while True:
        enter = next((j for j in cols if rcost[j] < 0), None)
        if enter is None:
            return None
        leave = None
        for i in range(m):
            row = rows[i]
            coef = row[enter]
            if coef > 0:
                if leave is not None:
                    # rhs/coef against the best ratio; row denominators cancel
                    lhs, rhs = row[-1] * best_coef, best_rhs * coef
                    if not (lhs < rhs or (lhs == rhs and basis[i] < basis[leave])):
                        continue
                leave, best_rhs, best_coef = i, row[-1], coef
        if leave is None:
            return enter
        pivot(rows, dens, leave, enter)
        basis[leave] = enter
        rcost = rows[m]


def _price(rows, dens, basis, cost):
    """The reduced-cost row of `cost` (a rational row as long as the
    tableau's): the cost row with every basic column eliminated."""
    (rc,), (den,) = int_rows([cost])
    for i, k in enumerate(basis):
        if rc[k]:
            support = [j for j, v in enumerate(rows[i]) if v]
            rc, den = eliminate(rc, den, rows[i], k, support)
    return rc, den


def _cost(objective, sense):
    """The objective as the internal minimisation's cost vector."""
    if sense == "max":
        return [-c for c in objective]
    if sense != "min":
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    return list(objective)


def _ray(tab, dens, basis, entering, n):
    """The ray of a final tableau on which column `entering` improves the
    cost without bound: that column at 1, each basic one moved by minus
    its entry, read in the free variables x = x+ - x-."""
    step = {entering: Fraction(1)}
    for i, k in enumerate(basis):
        step[k] = Fraction(-tab[i][entering], dens[i])
    return [step.get(k, _ZERO) - step.get(n + k, _ZERO) for k in range(n)]


def solve_raw(constraints: Sequence[Tuple[Sequence[Fraction], Fraction]],
              objective: Sequence[Fraction],
              sense: str = "min",
              direction: Optional[Sequence[Fraction]] = None) -> LPOutcome:
    """Solve min/max objective.x over {x : a.x >= b for (a, b) in constraints}.

    Coefficients are ints or Fractions.  An optimal outcome also carries
    `basic`, `tableau_value` and `slope`: the optimal basis's value line as
    b moves along `direction` d (one entry per constraint; all zeros when
    it is absent or empty), and its final tableau."""
    nvars = len(objective)
    for a, _ in constraints:
        if len(a) != nvars:
            raise DimensionMismatch(
                f"constraint has {len(a)} coefficients, expected {nvars}")
    obj = _cost(objective, sense)
    rows = constraints
    m = len(rows)
    n = nvars
    nstruct = 2 * n + m
    direction = direction or [0] * m
    if len(direction) != m:
        raise DimensionMismatch(f"direction has {len(direction)} entries, expected {m}")

    if m == 0 and any(obj):
        # unconstrained and a nonzero objective; for "max" the ray improves
        # the internal min, equivalently the max
        ray = tuple(Fraction(0) if c == 0 else (Fraction(-1) if c > 0 else Fraction(1))
                    for c in obj)
        return LPOutcome(UNBOUNDED, certificate=ray)

    # phase 1 tableau: rows scaled to nonnegative rhs, one artificial per row,
    # the direction column, then the reduced-cost row of the artificial
    # objective
    sigma = [1 if b >= 0 else -1 for _, b in rows]
    tab, dens = int_rows([[*a, d, b] for (a, b), d in zip(rows, direction)])
    # the given rows as integer rows (a, d, b), kept for the certificate
    # checks; the rewrite below replaces the rows of `tab`, never mutates them
    given, given_dens = tab[:], dens[:]
    for i, s in enumerate(sigma):
        a, d = tab[i], dens[i]
        row = [s * v for v in a[:n]] + [-s * v for v in a[:n]] + [0] * (2 * m) + [
            s * v for v in a[n:]]
        row[2 * n + i] = -s * d
        row[nstruct + i] = d
        tab[i] = row
    basis = [nstruct + i for i in range(m)]
    # the direction column and the rhs cost 0
    rc, rden = _price(tab, dens, basis, [0] * nstruct + [1] * m + [0, 0])
    tab.append(rc)
    dens.append(rden)

    # the direction column and the rhs never enter
    _run_simplex(tab, dens, basis, range(nstruct + m))
    rc, rden = tab[m], dens[m]
    if rc[-1] < 0:
        # phase-1 optimum -rcost[-1] > 0.  Farkas from phase-1 duals:
        # y_i = 1 - reduced cost of artificial i
        y = [sigma[i] * (rden - rc[nstruct + i]) for i in range(m)]
        _check_farkas(given, given_dens, n, y)
        return LPOutcome(INFEASIBLE, certificate=tuple([Fraction(v, rden) for v in y]))

    # drive artificials out of the basis (rows are always independent here
    # because of the slack block, so a pivot column always exists)
    for i in range(m):
        if basis[i] >= nstruct:
            j = next((j for j in range(nstruct) if tab[i][j]), None)
            if j is None:
                raise ConsistencyError("zero row in full-rank standard form")
            pivot(tab, dens, i, j)
            basis[i] = j

    # phase 2: real costs, only structural columns enter; the rhs entry of
    # the reduced-cost row is minus the objective value
    tab[m], dens[m] = _price(tab, dens, basis, obj + [-c for c in obj] + [0] * (2 * m + 2))
    cols = range(nstruct)
    entering = _run_simplex(tab, dens, basis, cols)

    if entering is not None:
        ray = _ray(tab, dens, basis, entering, n)
        _check_ray(given, obj, ray)
        return LPOutcome(UNBOUNDED, certificate=tuple(ray))

    return _optimal((tab, dens, basis, given, given_dens, obj, sense, cols), _ZERO)


def reoptimize(out: LPOutcome, objective: Sequence[Fraction],
               sense: str = "min") -> LPOutcome:
    """Optimise `objective` over the optimal points of `out`, an optimal
    outcome of `solve_raw`, `continue_along` or `reoptimize` (so a chain
    of calls is lexicographic).  Phase 2 on a copy of out's final tableau,
    by Bland's rule over the columns that could enter out and have reduced
    cost 0 in its cost row.  OPTIMAL with a witness that must keep out's
    value, or UNBOUNDED with a ray that must keep it too; each certificate
    is checked as `solve_raw` checks its own."""
    if out.status != OPTIMAL:
        raise ValueError(f"reoptimize needs an optimal outcome, got {out.status}")
    tab, dens, basis, given, given_dens, old, _, cols = out.tableau
    n = len(old)
    if len(objective) != n:
        raise DimensionMismatch(f"objective has {len(objective)} entries, expected {n}")
    obj = _cost(objective, sense)
    tab, dens, basis = tab[:], dens[:], basis[:]
    m = len(basis)
    rc = tab[m]
    cols = [j for j in cols if rc[j] == 0]
    # costs of the slack, artificial and direction columns and the rhs are 0
    tab[m], dens[m] = _price(tab, dens, basis, obj + [-c for c in obj] + [0] * (2 * m + 2))
    entering = _run_simplex(tab, dens, basis, cols)
    if entering is not None:
        ray = _ray(tab, dens, basis, entering, n)
        _check_ray(given, obj, ray)
        if dot(old, ray) != 0:
            raise ConsistencyError("re-optimised ray leaves the optimal face")
        return LPOutcome(UNBOUNDED, certificate=tuple(ray))
    new = _optimal((tab, dens, basis, given, given_dens, obj, sense, cols), _ZERO)
    if dot(old, new.witness) != dot(old, out.witness):
        raise ConsistencyError("re-optimised witness leaves the optimal face")
    return new


def continue_along(out: LPOutcome, s) -> LPOutcome:
    """Move an optimal outcome (of a solve, a continuation or a
    re-optimisation) along its solve's rhs direction d to b + s*d, b
    being that solve's rhs and the basis feasible there.  Dual pivots on
    a copy of the tableau, by Bland's rule on the dual, make the basis
    feasible on b + (s + eps)*d for small eps > 0: among rows whose value
    is 0 at s and whose rate is negative, the lowest basic column leaves;
    the structural column j with the least rc_j / -row_j over row_j < 0
    enters, ties to the lowest.  INFEASIBLE when none can: that row's
    slack entries are a Farkas vector y of d (y.A = 0, y.d > 0) with
    y.(b + s*d) = 0."""
    tab, dens, basis, given, given_dens, obj, sense, cols = out.tableau
    tab, dens, basis = tab[:], dens[:], basis[:]
    m, n, s = len(basis), len(obj), Fraction(s)
    p, q = s.numerator, s.denominator
    # the rows whose value is 0 at s; the pivots keep every value there
    zero = [i for i in range(m) if tab[i][-1] * q + p * tab[i][-2] == 0]
    while True:
        leave = min((i for i in zero if tab[i][-2] < 0), key=basis.__getitem__, default=None)
        if leave is None:
            return _optimal((tab, dens, basis, given, given_dens, obj, sense, cols), s)
        row, rc, enter = tab[leave], tab[m], None
        for j in range(2 * n + m):
            # rc_j / -row_j against the best ratio; denominators cancel
            if row[j] < 0 and (enter is None or rc[j] * row[enter] > rc[enter] * row[j]):
                enter = j
        if enter is None:
            y = row[2 * n:2 * n + m]
            _check_farkas([g[:-1] for g in given], given_dens, n, y)
            return LPOutcome(INFEASIBLE,
                             certificate=tuple([Fraction(v, dens[leave]) for v in y]))
        pivot(tab, dens, leave, enter)
        basis[leave] = enter


def _optimal(tableau, s):
    """The optimal outcome of a final tableau read at b + s*d, with its
    basic values' line and the tableau."""
    tab, dens, basis, given, _, obj, sense, _ = tableau
    m, n = len(basis), len(obj)
    p, q = s.numerator, s.denominator
    # each row's value at b + s*d; the reduced-cost row's is minus the value
    vals = [Fraction(row[-1] * q + p * row[-2], den * q) for row, den in zip(tab, dens)]
    x = dict(zip(basis, vals))
    point = [x.get(k, _ZERO) - x.get(n + k, _ZERO) for k in range(n)]
    value = sum((c * v for c, v in zip(obj, point)), _ZERO)
    # the given rows (a, d, b) at b + s*d, as integer rows (q*a, q*b + p*d)
    _check_point([[q * v for v in g[:n]] + [q * g[-1] + p * g[-2]] for g in given]
                 if p else given, point)
    sign = -1 if sense == "max" else 1
    # a tuple from a list, not a generator: see linalg.int_rows
    basic = tuple([(vals[i], Fraction(tab[i][-2], dens[i]))
                   for i in sorted(range(m), key=basis.__getitem__)])
    return LPOutcome(OPTIMAL, sign * value, tuple(point), None, tuple(sorted(basis)), basic,
                     -sign * vals[m], Fraction(-sign * tab[m][-2], dens[m]), tableau)


# The checks run on the given rows as integer rows (numerators of a, d, b
# over a positive row denominator), so a.x >= b reads A.x >= B for the
# integer row (A, B), and every rational vector is scaled to integers by a
# positive factor first.

def _check_point(ints, point):
    (x,), (den,) = int_rows([point])
    for row in ints:
        if int_dot(row, x) < row[-1] * den:
            raise ConsistencyError("simplex witness violates a constraint")


def _check_ray(ints, obj, ray):
    (r,), _ = int_rows([ray])
    for row in ints:
        if int_dot(row, r) < 0:
            raise ConsistencyError("unbounded ray leaves the feasible cone")
    (c,), _ = int_rows([obj])
    if int_dot(c, r) >= 0:
        raise ConsistencyError("unbounded ray does not improve the objective")


def _check_farkas(ints, dens, n, y):
    """y: the Farkas vector's numerators over one positive denominator.
    Row i stands for (a_i, b_i) times dens[i], so z_i = y_i/dens[i] over
    the denominator lcm(dens) must give sum z_i A_i = 0, sum z_i B_i > 0."""
    if any(v < 0 for v in y):
        raise ConsistencyError("Farkas vector has a negative entry")
    big = lcm(*dens)
    z = [v * (big // den) for v, den in zip(y, dens)]
    for k in range(n):
        if sum(zi * row[k] for zi, row in zip(z, ints)) != 0:
            raise ConsistencyError("Farkas combination does not vanish")
    if sum(zi * row[-1] for zi, row in zip(z, ints)) <= 0:
        raise ConsistencyError("Farkas combination is not positive")
