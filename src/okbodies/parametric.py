"""Parametric LP value functions.

For the family {x : A x >= b0 + t*b1} with t in a closed interval (the
right end may be +infinity), computes the exact optimal value val(t) as a
piecewise linear function over the maximal feasible closed subinterval.

Method: optimal-basis continuation.  The optimal basis at a point stays
optimal while B^-1 (b0 + t b1) >= 0, which is an exact rational interval
in t; value is linear there.  Each solve passes b1 to the simplex as its
rhs direction, so the final tableau's direction column gives the basic
values' rates B^-1 b1 and the reduced-cost row gives the value's slope:
the interval and the line are read off the outcome, with no solve
against the basis matrix here.  At degenerate breakpoints the next piece is found by
re-solving at a probe point strictly inside the remaining gap and
validating the candidate line against the known value at the current
abscissa (a convexity argument makes that check exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import simplex
from .errors import InfeasibleEverywhere, UnboundedValue
from .plf import PiecewiseLinearFunction
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED

_SAFETY_CAP = 100000


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
    rows = [tuple(Fraction(v) for v in row) for row in A]
    b0 = [Fraction(v) for v in b0]
    b1 = [Fraction(v) for v in b1]
    nvars = len(objective)
    obj = [Fraction(c) for c in objective]
    if sense == "max":
        internal_obj = [-c for c in obj]
    elif sense == "min":
        internal_obj = list(obj)
    else:
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    t_min = Fraction(interval[0])
    t_max = None if interval[1] is None else Fraction(interval[1])
    if t_max is not None and t_max < t_min:
        raise InfeasibleEverywhere("empty parameter interval")

    t_lo, t_hi = _feasible_range(rows, b0, b1, nvars, t_min, t_max)

    def constraints_at(t):
        return [(a, p + t * q) for a, p, q in zip(rows, b0, b1)]

    def solve_at(t):
        out = simplex.solve_raw(constraints_at(t), internal_obj, "min", b1)
        if out.status == UNBOUNDED:
            # the recession cone {r : A r >= 0} does not depend on t, so the
            # first solve, at t_lo, decides boundedness for every t
            raise UnboundedValue("objective unbounded over the parametric family")
        if out.status != OPTIMAL:
            raise AssertionError(f"expected optimal at t={t}, got {out.status}")
        return out

    pieces = []
    t_cur = t_lo
    out = solve_at(t_cur)
    val_cur = out.value
    steps = 0
    while True:
        steps += 1
        if steps > _SAFETY_CAP:
            raise RuntimeError("parametric continuation did not terminate")
        _, hi, alpha, beta = _basis_line(out, t_cur)
        if alpha + beta * t_cur != val_cur:
            raise AssertionError("basis line misses the known value")
        if hi is None or (t_hi is not None and hi >= t_hi):
            end = t_hi  # may be None: infinite tail with slope beta
        elif hi > t_cur:
            end = hi
        else:
            # degenerate at t_cur: probe strictly to the right for the next line
            end, alpha, beta = _probe_right(t_cur, val_cur, t_hi, solve_at)
        pieces.append((t_cur, end, alpha, beta))
        if end is None or (t_hi is not None and end >= t_hi):
            break
        t_cur = end
        val_cur = alpha + beta * end
        out = solve_at(t_cur)
        if out.value != val_cur:
            raise AssertionError("value mismatch at a breakpoint")

    tail = None
    if t_hi is None:
        tail = pieces[-1][3]
        pieces[-1] = (pieces[-1][0], None, pieces[-1][2], pieces[-1][3])
    shape = "convex" if sense == "min" else "concave"
    if sense == "max":
        pieces = [(lo, hi, -a, -b) for (lo, hi, a, b) in pieces]
        tail = None if tail is None else -tail
    plf = PiecewiseLinearFunction.from_pieces(pieces, shape=shape, tail_slope=tail)
    return ParametricResult(t_lo, t_hi, plf)


def _basis_line(out, t):
    """(lo, hi, alpha, beta): validity interval (None = unbounded side) of
    the optimal basis of `out`, solved at t, and its value line as the
    tableau holds it."""
    lo, hi = None, None
    for p, q in out.basic:
        if q:
            bound = t - p / q
            if q > 0:
                lo = bound if lo is None or bound > lo else lo
            else:
                hi = bound if hi is None or bound < hi else hi
    return lo, hi, out.tableau_value - out.slope * t, out.slope


def _probe_right(t_cur, val_cur, t_hi, solve_at):
    probe = (t_cur + t_hi) / 2 if t_hi is not None else t_cur + 1
    for _ in range(_SAFETY_CAP):
        lo, hi, alpha, beta = _basis_line(solve_at(probe), probe)
        if alpha + beta * t_cur == val_cur:
            end = hi
            if end is None or (t_hi is not None and end >= t_hi):
                end = t_hi  # None stays None
            return end, alpha, beta
        if lo is None or lo <= t_cur:
            raise AssertionError("optimal line undercuts the value function")
        probe = (t_cur + lo) / 2
    raise RuntimeError("degenerate breakpoint probing did not terminate")


def _feasible_range(rows, b0, b1, nvars, t_min, t_max):
    """Feasible t interval of {x : A x >= b0 + t b1, t in [t_min, t_max]}."""
    lifted = []
    for a, p, q in zip(rows, b0, b1):
        lifted.append((list(a) + [-q], p))
    tcol = [Fraction(0)] * nvars + [Fraction(1)]
    lifted.append((tcol, t_min))
    if t_max is not None:
        lifted.append(([-v for v in tcol], -t_max))
    objective = tcol
    low = simplex.solve_raw(lifted, objective, "min")
    if low.status == INFEASIBLE:
        raise InfeasibleEverywhere("no feasible parameter value")
    if low.status != OPTIMAL:
        raise AssertionError("parameter lower bound cannot be unbounded")
    high = simplex.solve_raw(lifted, objective, "max")
    if high.status == UNBOUNDED:
        return low.value, None
    return low.value, high.value

