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

Tableau layout: phase 1 works on the columns x+ (n), x- (n), s (m), one
artificial per row (m), the direction d and the rhs, 2n + 2m + 2 entries
a row.  Once phase 1 has read its Farkas vector or driven every
artificial out of the basis, `solve_raw` drops the artificial block and
reduces each row by its gcd, so every tableau an outcome keeps is
2n + m + 2 wide.  This changes no pivot:
  - no artificial enters again: phase 2, `continue_along` and
    `reoptimize` offer only x+, x- and s;
  - in every constraint row artificial column i is -sigma_i times slack
    column i (sigma_i the sign the row was scaled by), so the block holds
    nothing the slacks do not, and `continue_along` reads its Farkas
    vector from the slack block;
  - every entering and ratio test compares entries within one row, so
    scaling a row by a positive factor changes none of them.

Right-hand-side sensitivity: every tableau carries a direction d, one
rational per constraint, all zeros unless the caller passes one.  It
rides as one extra column before the rhs, never a candidate to enter and
never read by the ratio test, so the pivots do not depend on it.  At the
optimum that column holds B^-1 d, the rate of each basic variable as b
moves to b + s*d, and the reduced-cost row holds the objective's rate
c_B.B^-1 d.  `continue_along` moves such an outcome along d by dual
simplex pivots on its final tableau (Lemke 1954), with the rhs column
left at the solve point: a pivot on a row whose value at b + s*d is 0
moves no value there.

An outcome costs what its callers read.  The witness of an optimal one
is read in integers: the structural basic rows' numerators at b + s*d
over one denominator, checked against the given rows as integer rows;
Fractions are built only for the witness and the value.  The basic
values' line along d (`basic`), the value as the reduced-cost row holds
it (`tableau_value`) and its rate (`slope`) are computed on request from
the kept tableau and the point s it is read at; only the parametric
route reads them.

Phase 2: one routine prices a cost row on a tableau with a feasible
basis and runs Bland's rule over given candidate columns, checking the
ray when it ends unbounded; otherwise its caller reads the witness with
`_point`, in integers.  A cold solve is phase 1 followed by that
phase 2, from the phase-1 basis with every structural column a
candidate; an unconstrained LP is no special case (with no rows, the
first column of negative cost gives the ray).

Lexicographic re-optimisation: `reoptimize` optimises a new objective
over the optimal points of any optimal outcome read at its solve's rhs
(s = 0), each of which keeps its final tableau.  It runs the same
phase 2 on a copy of that tableau with only the outcome's own candidate
columns whose reduced cost is 0 allowed to enter.  The others stay
nonbasic at 0, which holds every visited point on the optimal face.  A
reduced cost set positive would not block a column, since each pivot
rewrites that row, so the face is kept by the entering scan alone.  From
a zero-objective solve every structural column has reduced cost 0: the
face is the whole system, and the re-optimisation is a phase 2 from the
phase-1 basis.  The standard-form layout stays private to this module.
Only the support LPs of `curves` call `reoptimize`, and they are the
tests' reference for curve bodies, on no production path.

Determinism over speed: Bland's rule, fixed tie-breaks, no scaling
heuristics.  A full tableau of Python integers: the package's LPs run to
a few hundred rows, such as the 180-row families the parametric route
solves on a 90-vertex graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import ConsistencyError, DimensionMismatch
from .linalg import eliminate, int_dot, int_rows, pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
_ZERO = Fraction(0)


class _Tableau(NamedTuple):
    """A tableau with a feasible basis: where phase 2 starts, and the
    final tableau an optimal outcome keeps."""
    # integer rows over x+, x-, s, d and the rhs, the reduced-cost row
    # last, with their denominators, and the basis of the constraint rows
    rows: List[List[int]]
    dens: List[int]
    basis: List[int]
    # the given rows (a, d, b) as integer rows, for the certificate checks
    given: List[List[int]]
    given_dens: List[int]
    # the internal (minimised) cost as numerators over cost_den, and its
    # sign: -1 when it is a maximisation's negated objective
    cost: List[int]
    cost_den: int
    sign: int
    # the columns that may enter
    cols: Sequence[int]


@dataclass(frozen=True)
class LPOutcome:
    status: str
    value: Optional[Fraction] = None
    witness: Optional[Tuple[Fraction, ...]] = None
    certificate: Optional[Tuple[Fraction, ...]] = None
    # standard-form basis (column indices), for parametric continuation
    basis: Optional[Tuple[int, ...]] = None
    # optimal: the final tableau, for `continue_along`, `reoptimize` and
    # the properties below, and the point s at which it is read, b + s*d
    tableau: Optional[_Tableau] = field(default=None, compare=False, repr=False)
    s: Optional[Fraction] = None

    @property
    def basic(self) -> Optional[Tuple[Tuple[Fraction, Fraction], ...]]:
        """optimal: (value at s, rate along d) of each basic variable, in
        `basis` order."""
        if self.tableau is None:
            return None
        tab, dens, basis = self.tableau.rows, self.tableau.dens, self.tableau.basis
        p, q = self.s.numerator, self.s.denominator
        # a tuple from a list, not a generator: see linalg.int_rows
        return tuple([(Fraction(tab[i][-1] * q + p * tab[i][-2], dens[i] * q),
                       Fraction(tab[i][-2], dens[i]))
                      for i in sorted(range(len(basis)), key=basis.__getitem__)])

    @property
    def tableau_value(self) -> Optional[Fraction]:
        """optimal: the value at s as the reduced-cost row holds it (minus
        the internal value in its rhs entry)."""
        if self.tableau is None:
            return None
        rc, den = self.tableau.rows[-1], self.tableau.dens[-1]
        p, q = self.s.numerator, self.s.denominator
        return Fraction(-self.tableau.sign * (rc[-1] * q + p * rc[-2]), den * q)

    @property
    def slope(self) -> Optional[Fraction]:
        """optimal: the value's rate along d."""
        if self.tableau is None:
            return None
        return Fraction(-self.tableau.sign * self.tableau.rows[-1][-2], self.tableau.dens[-1])


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


def _price(rows, dens, basis, rc, den):
    """The reduced-cost row of the integer cost row (rc, den), as long as
    the tableau's rows: the cost row with every basic column eliminated."""
    for i, k in enumerate(basis):
        if rc[k]:
            support = [j for j, v in enumerate(rows[i]) if v]
            rc, den = eliminate(rc, den, rows[i], k, support)
    return rc, den


def _cost(objective, sense):
    """The objective as the internal minimisation's cost vector, as
    numerators over one denominator, and its sign."""
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    sign = -1 if sense == "max" else 1
    (cost,), (den,) = int_rows([[sign * c for c in objective]])
    return cost, den, sign


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

    Coefficients are ints or Fractions.  An optimal outcome also keeps its
    final tableau, from which `basic`, `tableau_value` and `slope` read the
    optimal basis's value line as b moves along `direction` d (one entry
    per constraint; all zeros when it is absent or empty)."""
    n = len(objective)
    for a, _ in constraints:
        if len(a) != n:
            raise DimensionMismatch(
                f"constraint has {len(a)} coefficients, expected {n}")
    cost, cost_den, sign = _cost(objective, sense)
    rows = constraints
    m = len(rows)
    nstruct = 2 * n + m
    direction = direction or [0] * m
    if len(direction) != m:
        raise DimensionMismatch(f"direction has {len(direction)} entries, expected {m}")

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
    rc, rden = _price(tab, dens, basis, [0] * nstruct + [1] * m + [0, 0], 1)
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

    # drop the artificial block (see the module docstring), each row
    # reduced by its gcd
    for i in range(m):
        row = tab[i][:nstruct] + tab[i][-2:]
        g = gcd(*row, dens[i])
        if g != 1:
            row = [v // g for v in row]
        tab[i], dens[i] = row, dens[i] // g

    # phase 2 from the phase-1 basis, every structural column a candidate
    start = _Tableau(tab, dens, basis, given, given_dens, cost, cost_den, sign,
                     range(nstruct))
    return _phase2(start) or _optimal(start, _ZERO, *_point(start, _ZERO))


def _phase2(start) -> Optional[LPOutcome]:
    """Phase 2 in place on the lists of `start`, a tableau whose basis is
    feasible and whose cost fields hold the cost to optimise: prices that
    cost into the reduced-cost row and runs Bland's rule over start.cols.
    UNBOUNDED with a ray that passed `_check_ray`, or None when `start`
    has become a final tableau, whose point `_point` reads."""
    tab, dens, basis, cost = start.rows, start.dens, start.basis, start.cost
    m = len(basis)
    # the rhs entry of the reduced-cost row is minus the internal value;
    # the slack and direction columns and the rhs cost 0
    tab[m], dens[m] = _price(tab, dens, basis, cost + [-c for c in cost] + [0] * (m + 2),
                             start.cost_den)
    entering = _run_simplex(tab, dens, basis, start.cols)
    if entering is None:
        return None
    ray = _ray(tab, dens, basis, entering, len(cost))
    _check_ray(start.given, cost, ray)
    return LPOutcome(UNBOUNDED, certificate=tuple(ray))


def reoptimize(out: LPOutcome, objective: Sequence[Fraction],
               sense: str = "min") -> LPOutcome:
    """Optimise `objective` over the optimal points of `out`, an optimal
    outcome read at its solve's rhs: of `solve_raw`, of `reoptimize` (so a
    chain of calls is lexicographic) or of `continue_along` at s = 0.  Any
    other raises ValueError, since the ratio tests read the rhs column,
    which holds the solve's b.  Phase 2 on a copy of out's final tableau,
    by Bland's rule over the columns that could enter out and have reduced
    cost 0 in its cost row.  OPTIMAL with a witness that must keep out's
    value, or UNBOUNDED with a ray that must keep it too; each certificate
    is checked as `solve_raw` checks its own."""
    if out.status != OPTIMAL:
        raise ValueError(f"reoptimize needs an optimal outcome, got {out.status}")
    if out.s:
        raise ValueError(f"reoptimize needs an outcome read at the solve's rhs, "
                         f"not at s = {out.s}")
    old = out.tableau
    n = len(old.cost)
    if len(objective) != n:
        raise DimensionMismatch(f"objective has {len(objective)} entries, expected {n}")
    cost, cost_den, sign = _cost(objective, sense)
    cols = [j for j in old.cols if old.rows[-1][j] == 0]
    new = old._replace(rows=old.rows[:], dens=old.dens[:], basis=old.basis[:],
                       cost=cost, cost_den=cost_den, sign=sign, cols=cols)
    unbounded = _phase2(new)
    if unbounded is not None:
        (ray,), _ = int_rows([unbounded.certificate])
        if int_dot(old.cost, ray) != 0:
            raise ConsistencyError("re-optimised ray leaves the optimal face")
        return unbounded
    x, den = _point(new, _ZERO)
    # out's internal cost at the new point, x over den, keeps out's value
    value = old.sign * out.value
    if int_dot(old.cost, x) * value.denominator != value.numerator * old.cost_den * den:
        raise ConsistencyError("re-optimised witness leaves the optimal face")
    return _optimal(new, _ZERO, x, den)


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
    old = out.tableau
    tab, dens, basis = old.rows[:], old.dens[:], old.basis[:]
    m, n, s = len(basis), len(old.cost), Fraction(s)
    p, q = s.numerator, s.denominator
    # the rows whose value is 0 at s; the pivots keep every value there
    zero = [i for i in range(m) if tab[i][-1] * q + p * tab[i][-2] == 0]
    while True:
        leave = min((i for i in zero if tab[i][-2] < 0), key=basis.__getitem__, default=None)
        if leave is None:
            new = old._replace(rows=tab, dens=dens, basis=basis)
            return _optimal(new, s, *_point(new, s))
        row, rc, enter = tab[leave], tab[m], None
        for j in range(2 * n + m):
            # rc_j / -row_j against the best ratio; denominators cancel
            if row[j] < 0 and (enter is None or rc[j] * row[enter] > rc[enter] * row[j]):
                enter = j
        if enter is None:
            y = row[2 * n:2 * n + m]
            _check_farkas([g[:-1] for g in old.given], old.given_dens, n, y)
            return LPOutcome(INFEASIBLE,
                             certificate=tuple([Fraction(v, dens[leave]) for v in y]))
        pivot(tab, dens, leave, enter)
        basis[leave] = enter


def _point(tableau, s):
    """The point x = x+ - x- a final tableau reads at b + s*d, checked
    against the given rows there: (numerators, denominator)."""
    tab, dens, basis = tableau.rows, tableau.dens, tableau.basis
    n = len(tableau.cost)
    p, q = s.numerator, s.denominator
    # the structural basic rows' values at b + s*d, over den*q
    rows = [i for i, k in enumerate(basis) if k < 2 * n]
    den = lcm(*[dens[i] for i in rows])
    x = [0] * n
    for i in rows:
        row, k = tab[i], basis[i]
        v = (row[-1] * q + p * row[-2]) * (den // dens[i])
        if k < n:
            x[k] += v
        else:
            x[k - n] -= v
    _check_point(tableau.given, x, den, p, q)
    return x, den * q


def _optimal(tableau, s, x, den):
    """The optimal outcome of a final tableau read at b + s*d, its point
    x/den from `_point`."""
    value = Fraction(tableau.sign * int_dot(tableau.cost, x), tableau.cost_den * den)
    # tuples from lists, not generators: see linalg.int_rows
    return LPOutcome(OPTIMAL, value, tuple([Fraction(v, den) for v in x]), None,
                     tuple(sorted(tableau.basis)), tableau, s)


# The checks run on the given rows as integer rows (numerators of a, d, b
# over a positive row denominator), so a.x >= b reads A.x >= B for the
# integer row (A, B), and every rational vector is scaled to integers by a
# positive factor first.

def _check_point(ints, x, den, p=0, q=1):
    """The point x/(den*q) satisfies every integer row (A, D, B) with its
    rhs moved to B + (p/q)*D: A.x >= den*(q*B + p*D).  With p = 0 the rows
    are read as (A, B)."""
    for row in ints:
        rhs = q * row[-1] + p * row[-2] if p else row[-1]
        if int_dot(row, x) < rhs * den:
            raise ConsistencyError("simplex witness violates a constraint")


def _check_ray(ints, cost, ray):
    (r,), _ = int_rows([ray])
    for row in ints:
        if int_dot(row, r) < 0:
            raise ConsistencyError("unbounded ray leaves the feasible cone")
    (c,), _ = int_rows([cost])
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
