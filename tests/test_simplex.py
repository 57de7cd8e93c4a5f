import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from okbodies.errors import ConsistencyError
from okbodies.linalg import int_rows
from okbodies.simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, _check_farkas,
                              _check_point, _check_ray, continue_along, reoptimize,
                              solve_raw)

F = Fraction


def test_small_min():
    # min x + y  s.t. x >= 1, y >= 2
    out = solve_raw([([1, 0], 1), ([0, 1], 2)], [1, 1], "min")
    assert out.status == OPTIMAL
    assert out.value == 3
    assert out.witness == (1, 2)


def test_max_by_negation():
    # max x  s.t. x <= 5 (i.e. -x >= -5), x >= 0
    out = solve_raw([([-1], -5), ([1], 0)], [1], "max")
    assert out.status == OPTIMAL
    assert out.value == 5


def test_infeasible_with_farkas():
    # x >= 1 and -x >= 0 cannot both hold
    out = solve_raw([([1], 1), ([-1], 0)], [1], "min")
    assert out.status == INFEASIBLE
    assert out.certificate is not None  # verified internally by substitution


def test_unbounded_with_ray():
    out = solve_raw([([1], 0)], [-1], "min")  # min -x, x >= 0
    assert out.status == UNBOUNDED
    assert out.certificate is not None


def test_free_variables():
    # variables are free: min x s.t. x >= -7 reaches a negative optimum
    out = solve_raw([([1], -7)], [1], "min")
    assert out.status == OPTIMAL
    assert out.value == -7


def test_degenerate_and_redundant_rows():
    out = solve_raw([([1, 1], 2), ([1, 1], 2), ([2, 2], 4), ([1, 0], 0), ([0, 1], 0)],
                    [1, 1], "min")
    assert out.status == OPTIMAL
    assert out.value == 2


def _bruteforce_min(constraints, objective, grid):
    best = None
    n = len(objective)
    for pt in itertools.product(grid, repeat=n):
        if all(sum(a[i] * pt[i] for i in range(n)) >= b for a, b in constraints):
            val = sum(objective[i] * pt[i] for i in range(n))
            if best is None or val < best:
                best = val
    return best


def test_random_boxed_lps_vs_grid():
    # boxed problems so the optimum sits on a small integer grid corner
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 3)
        cons = []
        for i in range(n):
            e = [F(0)] * n
            e[i] = F(1)
            cons.append((list(e), F(rng.randint(-3, 0))))
            cons.append(([-x for x in e], F(-rng.randint(0, 3))))
        for _ in range(rng.randint(0, 3)):
            a = [F(rng.randint(-2, 2)) for _ in range(n)]
            cons.append((a, F(rng.randint(-6, 0))))
        obj = [F(rng.randint(-3, 3)) for _ in range(n)]
        out = solve_raw(cons, obj, "min")
        grid = [F(k, 2) for k in range(-8, 9)]
        brute = _bruteforce_min(cons, obj, grid)
        if out.status == INFEASIBLE:
            assert brute is None
        else:
            assert out.status == OPTIMAL
            assert brute is not None
            # vertex optima have coordinates on the half-integer grid here?
            # not guaranteed, so only check the LP value is <= the grid min
            # and the witness is feasible with matching objective
            assert out.value <= brute
            assert all(sum(a[i] * out.witness[i] for i in range(len(a))) >= b
                       for a, b in cons)
            assert sum(o * w for o, w in zip(obj, out.witness)) == out.value


# Non-integer data.  The outcomes below (status, value, witness, basis and
# certificate) were recorded with the Fraction-tableau kernel this simplex
# replaced; Bland's rule on identical values must reproduce them exactly.

def _lp(cons, obj):
    return ([([F(v) for v in a], F(b)) for a, b in cons], [F(c) for c in obj])


def _vec(v):
    return tuple(F(x) for x in v)


def test_fractional_degenerate_vertex():
    # four constraints through (-2, 0), rational slopes, negative rhs
    cons, obj = _lp([(["1", "0"], "-2"), (["0", "1"], "0"), (["1/2", "1/3"], "-1"),
                     (["3/4", "-2/5"], "-3/2")], ["1", "1/7"])
    out = solve_raw(cons, obj, "min")
    assert (out.status, out.value, out.witness, out.basis) == (
        OPTIMAL, -2, _vec(["-2", "0"]), (2, 3, 6, 7))
    assert out.certificate is None


def test_fractional_artificial_driven_out_by_negative_pivot():
    # phase 1 ends with an artificial basic at level 0 whose row only has
    # negative structural entries, so it leaves on a negative pivot
    cons, obj = _lp([(["-1/3"], "0"), (["-1"], "-3/2"), (["2/3"], "-15/7"),
                     (["-6/5"], "-2/3"), (["3/5"], "0"), (["-3/5"], "-1/3")], ["1"])
    out = solve_raw(cons, obj, "max")
    assert (out.status, out.value, out.witness, out.basis) == (
        OPTIMAL, 0, _vec(["0"]), (0, 3, 4, 5, 6, 7))


def test_fractional_unbounded_after_negative_pivot():
    cons, obj = _lp([(["-3/7", "-10/7"], "-5/2"), (["0", "0"], "0"),
                     (["-4/7", "-3/2"], "-1/2")], ["-1/5", "-8/5"])
    out = solve_raw(cons, obj, "min")
    assert out.status == UNBOUNDED
    assert out.certificate == _vec(["-140/17", "42/17"])
    assert (out.value, out.witness, out.basis) == (None, None, None)


def test_fractional_infeasible_farkas():
    cons, obj = _lp([(["1/2"], "3/4"), (["-1/3"], "-1/6")], ["2/3"])
    out = solve_raw(cons, obj, "min")
    assert out.status == INFEASIBLE
    assert out.certificate == _vec(["1", "3/2"])
    cons, obj = _lp([(["-1/3", "-4/5"], "1"), (["1", "3/4"], "-7/3"),
                     (["0", "5/3"], "-2/5"), (["-1", "0"], "-1"),
                     (["-7/6", "-8/7"], "-12/5")], ["11/6", "5/6"])
    out = solve_raw(cons, obj, "max")
    assert out.status == INFEASIBLE
    assert out.certificate == _vec(["1", "1/3", "33/100", "0", "0"])


def _rat(rng, lo, hi):
    d = rng.choice((1, 2, 3, 4, 5, 6, 7))
    return F(rng.randint(lo * d, hi * d), d)


def _random_rational_lp(rng):
    """Rational coefficients, mostly negative rhs, optional box rows and an
    optional positively scaled copy of a row (degeneracy)."""
    n = rng.randint(1, 3)
    cons = [([_rat(rng, -2, 2) for _ in range(n)], _rat(rng, -3, 1))
            for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.5:
        for i in range(n):
            e = [F(0)] * n
            e[i] = F(rng.choice((1, 2, 3)), rng.choice((1, 2, 5)))
            cons.append((e, _rat(rng, -3, 0)))
            cons.append(([-x for x in e], _rat(rng, -3, 0)))
    if rng.random() < 0.4:
        a, b = rng.choice(cons)
        k = F(rng.randint(1, 5), rng.randint(1, 3))
        cons.insert(rng.randrange(len(cons) + 1), ([k * x for x in a], k * b))
    obj = [_rat(rng, -2, 2) for _ in range(n)]
    return cons, obj, rng.choice(("min", "max"))


def _fingerprint(out):
    def vec(v):
        return None if v is None else ",".join(str(x) for x in v)
    return f"{out.status}|{out.value}|{vec(out.witness)}|{vec(out.certificate)}|{out.basis}"


def test_random_rational_lps_pinned():
    # 300 seeded LPs: 178 optimal, 76 unbounded, 46 infeasible; the digest of
    # their full outcomes was recorded with the Fraction-tableau kernel
    import hashlib
    from collections import Counter
    rng = random.Random(20161)
    digest = hashlib.sha256()
    statuses = Counter()
    for _ in range(300):
        out = solve_raw(*_random_rational_lp(rng))
        statuses[out.status] += 1
        digest.update(_fingerprint(out).encode() + b"\n")
    assert statuses == {OPTIMAL: 178, UNBOUNDED: 76, INFEASIBLE: 46}
    assert digest.hexdigest() == (
        "2c17853f879152543ece3780daf70f13941d64a9b81ae97d607900be7d65e4ea")


# Right-hand-side direction: the extra tableau column must leave the pivot
# path alone and give the optimal basis's value line along d.

def test_direction_small_min_and_max():
    # min x s.t. x >= 1 + 2s: x+ is basic at 1 with rate 2
    out = solve_raw([([1], 1)], [1], "min", [2])
    assert (out.value, out.basis, out.basic) == (1, (0,), ((1, 2),))
    assert (out.tableau_value, out.slope) == (1, 2)
    out = solve_raw([([1], 1)], [-1], "max", [2])
    assert (out.value, out.tableau_value, out.slope) == (-1, -1, -2)


def test_direction_unconstrained_and_non_optimal():
    out = solve_raw([], [0, 0], "min", [])
    assert (out.status, out.basic, out.tableau_value, out.slope) == (OPTIMAL, (), 0, 0)
    out = solve_raw([([1], 1), ([-1], 0)], [1], "min", [1, 1])
    assert out.status == INFEASIBLE
    assert (out.basic, out.tableau_value, out.slope) == (None, None, None)
    out = solve_raw([([1], 0)], [-1], "min", [1])
    assert out.status == UNBOUNDED
    assert (out.basic, out.tableau_value, out.slope) == (None, None, None)


def _validity(basic):
    """The s-interval on which every basic value p + s*q stays >= 0."""
    lo = max((-p / q for p, q in basic if q > 0), default=None)
    hi = min((-p / q for p, q in basic if q < 0), default=None)
    return lo, hi


def test_direction_gives_value_line_on_random_lps():
    rng = random.Random(1609)
    checked = optimal = 0
    for _ in range(250):
        cons, obj, sense = _random_rational_lp(rng)
        d = [_rat(rng, -2, 2) for _ in cons]
        plain = solve_raw(cons, obj, sense)
        out = solve_raw(cons, obj, sense, d)
        # same pivots, same outcome
        assert (out.status, out.value, out.witness, out.certificate, out.basis) == (
            plain.status, plain.value, plain.witness, plain.certificate, plain.basis)
        if out.status != OPTIMAL:
            assert (out.basic, out.tableau_value, out.slope) == (None, None, None)
            continue
        optimal += 1
        assert out.tableau_value == out.value
        assert len(out.basic) == len(cons)
        lo, hi = _validity(out.basic)
        assert (lo is None or lo <= 0) and (hi is None or hi >= 0)
        left = lo if lo is not None else -F(rng.randint(1, 9), rng.randint(1, 4))
        right = hi if hi is not None else F(rng.randint(1, 9), rng.randint(1, 4))
        shifts = {left, right, F(0)}
        shifts.update(left + (right - left) * F(rng.randint(1, 99), 100) for _ in range(3))
        for s in shifts:
            moved = [(a, b + s * di) for (a, b), di in zip(cons, d)]
            again = solve_raw(moved, obj, sense)
            assert again.status == OPTIMAL
            assert again.value == out.value + s * out.slope
            checked += 1
    assert optimal >= 140 and checked >= 600


def test_continuation_matches_cold_solves_on_random_lps():
    # each optimal outcome is continued to the right end of its interval,
    # up to four times; each continuation must give the cold value there
    # and, one step inside its own interval, the cold line.  The digest of
    # the continued bases pins the pivot rule's tie-breaks.
    import hashlib
    rng = random.Random(1610)
    digest = hashlib.sha256()
    seen = {OPTIMAL: 0, INFEASIBLE: 0}
    for _ in range(250):
        cons, obj, sense = _random_rational_lp(rng)
        d = [_rat(rng, -2, 2) for _ in cons]
        out = solve_raw(cons, obj, sense, d)
        s = F(0)
        for _ in range(4):
            if out.status != OPTIMAL:
                break
            _, hi = _validity(out.basic)
            if hi is None:
                break
            s += hi
            out = continue_along(out, s)
            seen[out.status] += 1
            digest.update(f"{out.status}|{out.basis}\n".encode())
            if out.status == INFEASIBLE:
                # a Farkas vector of d that vanishes at b + s*d
                y = out.certificate
                assert all(v >= 0 for v in y)
                assert all(sum(v * a[k] for v, (a, _) in zip(y, cons)) == 0
                           for k in range(len(obj)))
                assert _dot(y, d) > 0 and _dot(y, [b + s * e for (_, b), e in zip(cons, d)]) == 0
                assert _solve_at(cons, obj, sense, d, s + F(1, 1000)).status == INFEASIBLE
                continue
            assert out.value == out.tableau_value == _solve_at(cons, obj, sense, d, s).value
            lo, hi = _validity(out.basic)
            assert (lo is None or lo <= 0) and (hi is None or hi > 0)
            step = hi / 2 if hi is not None else F(rng.randint(1, 9), rng.randint(1, 4))
            assert (_solve_at(cons, obj, sense, d, s + step).value
                    == out.value + step * out.slope)
    assert seen == {OPTIMAL: 196, INFEASIBLE: 97}
    assert digest.hexdigest() == (
        "d3b1ef97801174bc4d49274dcad41e22e549dff3d10d77c1557fa5d7788901a4")


def _solve_at(cons, obj, sense, d, s):
    return solve_raw([(a, b + s * e) for (a, b), e in zip(cons, d)], obj, sense)


# Lexicographic re-optimisation: from a zero-objective solve the face is
# the whole system, so a re-optimisation must match a cold solve; on the
# optimal face of an objective it must match a cold solve with that
# objective pinned to its optimum by two rows.

def _assert_certified(out, cons, obj, sense):
    cost = obj if sense == "min" else [-c for c in obj]
    if out.status == OPTIMAL:
        assert all(_dot(a, out.witness) >= b for a, b in cons)
        assert _dot(obj, out.witness) == out.value
    else:
        assert out.status == UNBOUNDED
        assert all(_dot(a, out.certificate) >= 0 for a, _ in cons)
        assert _dot(cost, out.certificate) < 0


def test_reoptimize_matches_cold_solves_on_random_lps():
    # up to three objectives in turn on each seeded LP: each re-optimised
    # outcome equals, in status and value, the cold solve of the system
    # with every earlier objective pinned to its optimum, and its
    # certificate holds on that system
    rng = random.Random(1611)
    seen = Counter()
    for _ in range(400):
        cons, obj, sense = _random_rational_lp(rng)
        n = len(obj)
        # sparse objectives leave faces larger than a vertex, unbounded ones
        # included
        obj = [c if rng.random() < 0.5 else F(0) for c in obj]
        out = solve_raw(cons, [0] * n, "min", [0] * len(cons))
        if out.status == INFEASIBLE:
            assert solve_raw(cons, obj, sense).status == INFEASIBLE
            seen["infeasible"] += 1
            continue
        face = list(cons)
        for level in range(3):
            if level:
                obj = [_rat(rng, -2, 2) if rng.random() < 0.5 else F(0) for _ in range(n)]
                sense = rng.choice(("min", "max"))
            again = reoptimize(out, obj, sense)
            cold = solve_raw(face, obj, sense)
            assert (again.status, again.value) == (cold.status, cold.value)
            _assert_certified(again, face, obj, sense)
            seen[level, again.status] += 1
            if again.status != OPTIMAL:
                break
            face += [(obj, again.value), ([-c for c in obj], -again.value)]
            out = again
    assert seen == {"infeasible": 62, (0, OPTIMAL): 261, (0, UNBOUNDED): 77,
                    (1, OPTIMAL): 233, (1, UNBOUNDED): 28,
                    (2, OPTIMAL): 221, (2, UNBOUNDED): 12}


def test_reoptimize_needs_a_kept_tableau():
    # every optimal outcome keeps its tableau, a solve without a direction
    # included: re-optimising it matches a cold solve with the first
    # objective pinned to its optimum
    out = solve_raw([([1, 0], 1), ([0, 1], 0), ([-1, -1], -3)], [1, 0], "min")
    again = reoptimize(out, [0, 1], "max")
    cold = solve_raw([([1, 0], 1), ([0, 1], 0), ([-1, -1], -3), ([1, 0], 1), ([-1, 0], -1)],
                     [0, 1], "max")
    assert (again.status, again.value, again.witness) == (OPTIMAL, 2, (1, 2))
    assert (again.status, again.value, again.witness) == (cold.status, cold.value, cold.witness)
    # infeasible and unbounded outcomes keep none
    for out in (solve_raw([([1], 1), ([-1], 0)], [1], "min"),
                solve_raw([([1], 0)], [-1], "min")):
        assert out.status in (INFEASIBLE, UNBOUNDED)
        with pytest.raises(ValueError):
            reoptimize(out, [1], "max")


# The certificate checks read the constraints as integer rows; their
# verdicts must be those of the rational definitions, on true certificates
# and on perturbed ones.

def _rejects(check, *args):
    try:
        check(*args)
    except ConsistencyError:
        return True
    return False


def _dot(a, x):
    return sum((u * v for u, v in zip(a, x)), F(0))


def test_integer_certificate_checks_match_rational_definitions():
    rng = random.Random(20162)
    verdicts = set()
    for _ in range(300):
        cons, obj, sense = _random_rational_lp(rng)
        out = solve_raw(cons, obj, sense)
        ints, dens = int_rows([[*a, b] for a, b in cons])
        cost = obj if sense == "min" else [-c for c in obj]
        vec = out.witness or out.certificate
        bent = list(vec)
        bent[rng.randrange(len(bent))] += F(rng.choice((-1, 1)), rng.randint(1, 6))
        for v in (vec, bent):
            (num,), (den,) = int_rows([v])
            if out.status == OPTIMAL:
                ok = all(_dot(a, v) >= b for a, b in cons)
                rejected = _rejects(_check_point, ints, num, den)
            elif out.status == UNBOUNDED:
                ok = all(_dot(a, v) >= 0 for a, _ in cons) and _dot(cost, v) < 0
                rejected = _rejects(_check_ray, ints, cost, v)
            else:
                ok = (all(y >= 0 for y in v)
                      and all(_dot(v, col) == 0 for col in zip(*(a for a, _ in cons)))
                      and _dot(v, [b for _, b in cons]) > 0)
                rejected = _rejects(_check_farkas, ints, dens, len(obj), num)
            assert rejected != ok
            verdicts.add((out.status, ok))
    assert len(verdicts) == 6


# An optimal outcome keeps its tableau without the artificial block: each
# row, the reduced-cost row included, holds x+, x-, the slacks, the
# direction and the rhs, reduced by its gcd.

def test_kept_tableau_has_no_artificial_block():
    rng = random.Random(1612)
    kept = 0
    for _ in range(200):
        cons, obj, sense = _random_rational_lp(rng)
        d = [_rat(rng, -2, 2) for _ in cons]
        out = solve_raw(cons, obj, sense, d)
        if out.status != OPTIMAL:
            continue
        outs = [out, reoptimize(out, [0] * len(obj))]
        _, hi = _validity(out.basic)
        if hi is not None:
            outs.append(continue_along(out, hi))
        for o in outs:
            if o.status != OPTIMAL:
                continue
            width = 2 * len(obj) + len(cons) + 2
            assert len(o.tableau.rows) == len(cons) + 1
            for row, den in zip(o.tableau.rows, o.tableau.dens):
                assert len(row) == width and gcd(*row, den) == 1
            kept += 1
    assert kept >= 250


# The certificate checks stay on every optimal read: a tableau corrupted
# after the solve must not yield an outcome.

def _box_outcome():
    # min x + y over the unit square: the optimum (0, 0)
    return solve_raw([([1, 0], 0), ([-1, 0], -1), ([0, 1], 0), ([0, -1], -1)],
                     [1, 1], "min")


def _rhs_moved(out):
    """A copy of `out` whose first structural basic row reads 1000 more."""
    t = out.tableau
    n = len(out.witness)
    i = next(i for i, k in enumerate(t.basis) if k < 2 * n)
    rows = [row[:] for row in t.rows]
    rows[i][-1] += 1000 * t.dens[i]
    return replace(out, tableau=t._replace(rows=rows))


def test_corrupted_tableau_fails_its_witness_check():
    out = _box_outcome()
    assert (out.status, out.value, out.witness) == (OPTIMAL, 0, (0, 0))
    bad = _rhs_moved(out)
    with pytest.raises(ConsistencyError, match="violates a constraint"):
        continue_along(bad, 0)
    with pytest.raises(ConsistencyError, match="violates a constraint"):
        reoptimize(bad, [0, 0])
    # the untouched outcome still reads its point
    assert continue_along(out, 0).witness == reoptimize(out, [0, 0]).witness == (0, 0)


def test_tampered_value_fails_the_face_check():
    out = _box_outcome()
    assert reoptimize(out, [1, -1], "max").value == 0
    with pytest.raises(ConsistencyError, match="leaves the optimal face"):
        reoptimize(replace(out, value=out.value + 1), [1, -1], "max")


def test_reoptimize_refuses_an_outcome_read_past_its_rhs():
    # the ratio tests of a re-optimisation read the solve's rhs column, so
    # a continuation read at s != 0 is refused; one at s = 0 is not
    out = solve_raw([([1], 0), ([-1], -1)], [0], "min", [1, 0])
    assert continue_along(out, 0).s == 0
    assert reoptimize(continue_along(out, 0), [1], "min").value == 0
    moved = continue_along(out, F(1, 2))
    assert (moved.status, moved.s) == (OPTIMAL, F(1, 2))
    with pytest.raises(ValueError):
        reoptimize(moved, [1], "min")
