import json
import random
from fractions import Fraction

import pytest

from okbodies import curves, simplex
from okbodies.errors import InfeasibleEverywhere, UnboundedValue
from okbodies.jobs import parse_job
from okbodies.parametric import parametric_value_function
from okbodies.simplex import INFEASIBLE, OPTIMAL, solve_raw
from tests.test_cli import _ladder_doc

F = Fraction


def _lp_at(A, b0, b1, objective, sense, t):
    cons = [(row, p + q * t) for row, p, q in zip(A, b0, b1)]
    out = solve_raw(cons, objective, sense)
    assert out.status == OPTIMAL
    return out.value


def _status_at(A, b0, b1, objective, sense, t):
    cons = [(row, p + q * t) for row, p, q in zip(A, b0, b1)]
    return solve_raw(cons, objective, sense).status


def test_simple_growing_bound():
    # min x s.t. x >= t on [0, 3]: value t
    res = parametric_value_function([[F(1)]], [F(0)], [F(1)], [F(1)], "min",
                                    (F(0), F(3)))
    assert res.feasible_start == 0 and res.feasible_end == 3
    f = res.function
    assert f.breakpoints == ((0, 0), (3, 3))


def test_breakpoint_from_competing_constraints():
    # min x s.t. x >= t, x >= 2 - t on [0, 2]: value max(t, 2-t)
    res = parametric_value_function([[F(1)], [F(1)]], [F(0), F(2)],
                                    [F(1), F(-1)], [F(1)], "min", (F(0), F(2)))
    assert res.function.breakpoints == ((0, 2), (1, 1), (2, 2))
    assert res.function.shape == "convex"


def _rat(rng, lo, hi):
    d = rng.choice((1, 2, 3, 4))
    return F(rng.randint(lo * d, hi * d), d)


def _random_family(rng, infinite):
    """A box around the origin plus random rows a.x >= p + t*q.  With an
    infinite interval every q is <= 0, so the rows only loosen as t grows;
    the box rows widen or stay, so the value stays bounded.  Sometimes one
    row is repeated, scaled, for degeneracy."""
    n = rng.randint(1, 3)
    A, b0, b1 = [], [], []
    for i in range(n):
        for sign in (1, -1):
            e = [F(0)] * n
            e[i] = F(sign)
            A.append(e)
            b0.append(-_rat(rng, 1, 4))
            b1.append(-_rat(rng, 0, 2) if infinite else _rat(rng, -1, 1))
    for _ in range(rng.randint(2, 6)):
        A.append([_rat(rng, -2, 2) for _ in range(n)])
        b0.append(_rat(rng, -3, 1))
        b1.append(-_rat(rng, 0, 2) if infinite else _rat(rng, -2, 2))
    repeated = rng.random() < 0.5
    if repeated:
        k = rng.randrange(len(A))
        c = F(rng.randint(1, 4), rng.randint(1, 3))
        A.append([c * v for v in A[k]])
        b0.append(c * b0[k])
        b1.append(c * b1[k])
    obj = [_rat(rng, -2, 2) for _ in range(n)]
    return A, b0, b1, obj, repeated


def test_matches_direct_lp_at_random_t():
    rng = random.Random(21)
    seen = set()
    for _ in range(150):
        infinite = rng.random() < 0.4
        sense = rng.choice(("min", "max"))
        A, b0, b1, obj, repeated = _random_family(rng, infinite)
        t_min = _rat(rng, -2, 1)
        t_max = None if infinite else t_min + _rat(rng, 1, 4)
        try:
            res = parametric_value_function(A, b0, b1, obj, sense, (t_min, t_max))
        except InfeasibleEverywhere:
            for t in (t_min, t_min + 1 if t_max is None else t_max):
                assert _status_at(A, b0, b1, obj, sense, t) == INFEASIBLE
            seen.add(("infeasible",))
            continue
        f = res.function
        lo, end = res.feasible_start, res.feasible_end
        assert (f.tail_slope is None) == (end is not None)
        # the feasible window is maximal inside the interval
        if lo > t_min:
            assert _status_at(A, b0, b1, obj, sense, (t_min + lo) / 2) == INFEASIBLE
        if end is not None and t_max is not None and end < t_max:
            assert _status_at(A, b0, b1, obj, sense, (end + t_max) / 2) == INFEASIBLE
        hi = end if end is not None else f.breakpoints[-1][0] + 3
        abscissae = [t for t, _ in f.breakpoints]
        abscissae += [lo + (hi - lo) * F(rng.randint(0, 100), 100) for _ in range(8)]
        for t in abscissae:
            assert f.value_at(t) == _lp_at(A, b0, b1, obj, sense, t)
        seen.add((sense, infinite, len(f.breakpoints) > 2, repeated))
    # every kind of family was met, with a kink, and some with a repeated row
    for sense in ("min", "max"):
        for infinite in (False, True):
            assert any(k[:3] == (sense, infinite, True) for k in seen)
    assert any(k[-1] is True for k in seen)


def test_concave_max_with_tail():
    # max u s.t. 0 <= u <= min(2 + 4t, 4), t >= 0: breaks at 1/2, constant after
    A = [[F(1)], [F(-1)], [F(-1)]]
    b0 = [F(0), F(-2), F(-4)]
    b1 = [F(0), F(-4), F(0)]
    res = parametric_value_function(A, b0, b1, [F(1)], "max", (F(0), None))
    f = res.function
    assert f.breakpoints == ((0, 2), (F(1, 2), 4))
    assert f.tail_slope == 0
    assert f.shape == "concave"


def test_infeasible_everywhere():
    with pytest.raises(InfeasibleEverywhere):
        parametric_value_function([[F(1)], [F(-1)]], [F(1), F(0)],
                                  [F(0), F(0)], [F(1)], "min", (F(0), F(5)))


def test_unbounded_value():
    with pytest.raises(UnboundedValue):
        parametric_value_function([[F(1)]], [F(0)], [F(0)], [F(-1)], "min",
                                  (F(0), F(1)))


def test_feasibility_window_detected():
    # x >= t and x <= 1 (so -x >= -1): feasible only for t <= 1
    res = parametric_value_function([[F(1)], [F(-1)]], [F(0), F(-1)],
                                    [F(1), F(0)], [F(1)], "min", (F(0), F(5)))
    assert res.feasible_start == 0
    assert res.feasible_end == 1


@pytest.fixture
def solves(monkeypatch):
    """Counts the simplex.solve_raw calls."""
    calls = []
    solve = simplex.solve_raw

    def counted(*args):
        calls.append(len(args[0]))
        return solve(*args)

    monkeypatch.setattr(simplex, "solve_raw", counted)
    return calls


def test_one_cold_solve_per_family(solves):
    # one at t_min, which the family is feasible at; every breakpoint, a
    # degenerate start and the right end are continuations of that tableau
    res = parametric_value_function([[F(1)], [F(1)], [F(1)]], [F(0), F(2), F(-3)],
                                    [F(1), F(-1), F(2)], [F(1)], "min", (F(0), F(4)))
    assert res.function.breakpoints == ((0, 2), (1, 1), (3, 3), (4, 5))
    assert len(solves) == 1
    for flag in ("tropical", "arakelov"):
        (job,) = parse_job(json.dumps(_ladder_doc(10, flag))).parsed
        solves.clear()
        f = curves._parametric_body(job)
        assert len(solves) == 1, flag
        assert f == curves.combinatorial_body(job)
    # 0.x >= 1 - t and 0.x >= t - 1, x >= 0: feasible at t = 1 only.  From
    # t_min = 0, the least feasible t is an LP over the lift and a second
    # cold solve starts there; the continuation certifies the right end
    A, b0, b1 = [[F(0)], [F(0)], [F(1)]], [F(1), F(-1), F(0)], [F(-1), F(1), F(0)]
    solves.clear()
    res = parametric_value_function(A, b0, b1, [F(1)], "min", (F(0), F(5)))
    assert (res.feasible_start, res.feasible_end) == (1, 1)
    assert res.function.breakpoints == ((1, 0),)
    assert len(solves) == 3
    solves.clear()
    res = parametric_value_function(A, b0, b1, [F(1)], "min", (F(1), F(5)))
    assert (res.feasible_start, res.feasible_end) == (1, 1)
    assert res.function.breakpoints == ((1, 0),)
    assert len(solves) == 1
