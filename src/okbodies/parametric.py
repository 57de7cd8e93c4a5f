"""Parametric LP value functions.

For the family {x : A x >= b0 + t*b1} with t in a closed interval (the
right end may be +infinity), computes the exact optimal value val(t) as a
piecewise linear function over the maximal feasible closed subinterval.

Method: optimal-basis continuation (Lemke 1954; Gal 1979).  The optimal
basis at a point stays optimal while B^-1 (b0 + t b1) >= 0, which is an
exact rational interval in t; value is linear there.  One cold solve at
the left end of the feasible range passes b1 to the simplex as its rhs
direction, so the final tableau's direction column gives the basic
values' rates B^-1 b1 and the reduced-cost row gives the value's slope:
the interval and the line are read off the outcome.  At the interval's
right end, degenerate or not, `simplex.continue_along` restores
feasibility just beyond it by dual pivots: the next piece.

The feasible range comes from the same tableau.  Its left end is the
interval's, unless the cold solve there is infeasible; then one LP over
the lifted system in (x, t) finds the least feasible t, and the cold
solve moves there.  Its right end is where a continuation finds no
feasible basis and returns a Farkas vector y of b1 (y.A = 0, y.b1 > 0)
that vanishes there, so no larger t is feasible; else the interval's
right end, or +infinity when the last basis is feasible for every larger
t.

Termination: within one continuation, Bland's rule on the dual rules out
cycling.  Each basis it yields is optimal on an interval of positive
length that starts where the last one ended, so no basis recurs, and
there are finitely many.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import simplex
from .errors import InfeasibleEverywhere, UnboundedValue
from .plf import PiecewiseLinearFunction
from .simplex import INFEASIBLE, UNBOUNDED


@dataclass(frozen=True)
class ParametricResult:
    feasible_start: Fraction
    feasible_end: Optional[Fraction]  # None = +infinity
    function: PiecewiseLinearFunction


def parametric_value_function(A: Sequence[Sequence[Fraction]],
                              b0: Sequence[Fraction],
                              b1: Sequence[Fraction],
                              objective: Sequence[Fraction],
                              sense: str = "min",
                              interval: Tuple[Fraction, Optional[Fraction]] = (0, None),
                              ) -> ParametricResult:
    """val(t) = min or max of objective.x over {x : A x >= b0 + t*b1}, exact
    and piecewise linear, on the largest closed subinterval of `interval`
    (t_min, t_max) on which the family is feasible; t_max None is
    +infinity.

    The left end is t_min when the family is feasible there.  Else it is
    the least feasible t, from one LP over the lift {(x, t) : A x - t*b1
    >= b0, t_min <= t <= t_max}.  The continuation from the left end finds
    the right end: the point past which `simplex.continue_along` finds no
    feasible basis (a checked Farkas certificate of infeasibility for every
    larger t), else t_max, else +infinity when a basis stays feasible for
    every larger t.  A feasible range of one point is one piece of length
    0.  So a family feasible at t_min costs one cold solve, and any other
    three.

    Raises InfeasibleEverywhere when no t in the interval is feasible, and
    UnboundedValue when the objective is unbounded at the left end, hence
    at every feasible t."""
    rows = [tuple(Fraction(v) for v in row) for row in A]
    b0 = [Fraction(v) for v in b0]
    b1 = [Fraction(v) for v in b1]
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    t_min = Fraction(interval[0])
    t_max = None if interval[1] is None else Fraction(interval[1])
    if t_max is not None and t_max < t_min:
        raise InfeasibleEverywhere("empty parameter interval")

    def solve_at(t):
        return simplex.solve_raw([(a, p + t * q) for a, p, q in zip(rows, b0, b1)],
                                 objective, sense, b1)

    t_lo, out = t_min, solve_at(t_min)
    if out.status == INFEASIBLE:
        t_lo = _least_feasible(rows, b0, b1, len(objective), t_min, t_max)
        out = solve_at(t_lo)
    if out.status == UNBOUNDED:
        # the recession cone {r : A r >= 0} does not depend on t, so the
        # solve at t_lo decides boundedness for every t
        raise UnboundedValue("objective unbounded over the parametric family")

    pieces = []
    t_cur, val_cur = t_lo, out.value
    while True:
        hi, alpha, beta = _basis_line(out, t_cur)
        if alpha + beta * t_cur != val_cur:
            raise AssertionError("basis line misses the previous piece's value")
        if hi is None or (t_max is not None and hi >= t_max):
            t_hi = t_max  # None: an infinite tail
            pieces.append((t_cur, t_hi, alpha, beta))
            break
        if hi > t_cur:  # else a degenerate start
            pieces.append((t_cur, hi, alpha, beta))
            t_cur, val_cur = hi, alpha + beta * hi
        out = simplex.continue_along(out, t_cur - t_lo)
        if out.status == INFEASIBLE:  # certified for every t > t_cur
            t_hi = t_cur
            pieces = pieces or [(t_cur, t_cur, alpha, beta)]  # a one-point range
            break

    tail = pieces[-1][3] if t_hi is None else None
    shape = "convex" if sense == "min" else "concave"
    plf = PiecewiseLinearFunction.from_pieces(pieces, shape=shape, tail_slope=tail)
    return ParametricResult(t_lo, t_hi, plf)


def _basis_line(out, t):
    """(hi, alpha, beta): where the optimal basis of `out`, read at t,
    stops being feasible (None = never), and its value line."""
    hi = min((t - p / q for p, q in out.basic if q < 0), default=None)
    return hi, out.tableau_value - out.slope * t, out.slope


def _least_feasible(rows, b0, b1, nvars, t_min, t_max):
    """The least t in [t_min, t_max] at which {x : A x >= b0 + t b1} is
    feasible."""
    lifted = [([*a, -q], p) for a, p, q in zip(rows, b0, b1)]
    tcol = [Fraction(0)] * nvars + [Fraction(1)]
    lifted.append((tcol, t_min))
    if t_max is not None:
        lifted.append(([-v for v in tcol], -t_max))
    low = simplex.solve_raw(lifted, tcol, "min")
    if low.status == INFEASIBLE:
        raise InfeasibleEverywhere("no feasible parameter value")
    return low.value
