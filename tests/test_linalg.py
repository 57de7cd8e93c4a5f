import math
import random
from fractions import Fraction

import pytest

from okbodies.errors import ConsistencyError
from okbodies.linalg import (det_int, int_rows, mat_vec, nullspace, pivot,
                             primitive_direction, solve_square)

F = Fraction


def test_solve_square_needs_row_swap():
    # zero in the leading position forces a swap; rational entries throughout
    m = [[F(0), F(2, 3), F(-1, 2)],
         [F(3, 4), F(0), F(1, 5)],
         [F(-1, 6), F(5, 7), F(0)]]
    rhs = [F(1, 2), F(-3), F(7, 3)]
    x = solve_square(m, rhs)
    assert x is not None
    assert mat_vec(m, x) == rhs


def test_solve_square_singular():
    # third row = 1/2 first row - 2/3 second row
    m = [[F(1, 2), F(-1), F(3)],
         [F(3, 4), F(1, 3), F(0)],
         [F(1, 4) - F(1, 2), F(-1, 2) - F(2, 9), F(3, 2)]]
    assert solve_square(m, [F(1), F(2), F(3)]) is None
    assert solve_square([[F(0), F(0)], [F(1, 3), F(2)]], [F(1), F(1)]) is None


def test_solve_square_random_rational():
    rng = random.Random(7)
    solved = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.6 else F(0)
              for _ in range(n)] for _ in range(n)]
        rhs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        x = solve_square(m, rhs)
        if x is None:
            assert det_int([[v * 420 for v in row] for row in m]) == 0
            continue
        solved += 1
        assert all(type(v) is Fraction for v in x)
        assert mat_vec(m, x) == rhs
    assert 100 < solved < 200


def test_nullspace_with_swap_and_rank_deficiency():
    m = [[F(0), F(0), F(1, 2), F(-1, 3)],
         [F(2, 5), F(-1), F(0), F(1)],
         [F(4, 5), F(-2), F(1, 2), F(5, 3)]]   # row 3 = 2 row 2 + row 1
    null = nullspace(m)
    assert len(null) == 2
    for v in null:
        assert any(v)
        assert mat_vec(m, v) == [0, 0, 0]
    # independent: distinct free coordinates carry the unit entries
    assert null[0][1] == 1 and null[0][3] == 0
    assert null[1][1] == 0 and null[1][3] == 1


def test_nullspace_random_rational():
    rng = random.Random(11)
    for _ in range(200):
        r, n = rng.randint(1, 4), rng.randint(1, 5)
        m = [[F(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.5 else F(0)
              for _ in range(n)] for _ in range(r)]
        null = nullspace(m)
        rank = n - len(null)
        assert 0 <= rank <= min(r, n)
        for v in null:
            assert mat_vec(m, v) == [0] * r


def test_nullspace_of_empty_matrix():
    assert nullspace([]) == []
    assert nullspace([], ncols=2) == [[1, 0], [0, 1]]


def test_det_int():
    assert det_int([]) == 1
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 1, 0], [0, 1, 1], [1, 0, 0]]) == 1
    assert det_int([[2, 0, 1], [1, 3, 2], [1, 1, 2]]) == 6
    assert det_int([[1, 2], [2, 4]]) == 0
    rng = random.Random(3)
    for _ in range(100):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        e, f, g, h, i = (rng.randint(-9, 9) for _ in range(5))
        m = [[a, b, c], [d, e, f], [g, h, i]]
        assert det_int(m) == (a * (e * i - f * h) - b * (d * i - f * g)
                              + c * (d * h - e * g))


def test_det_int_rejects_a_non_integer_determinant():
    with pytest.raises(ConsistencyError):
        det_int([[F(1, 2)]])


def test_integer_rows_hold_the_fraction_values():
    rows, dens = int_rows([[F(1, 2), F(-2, 3), 4], [0, F(5, 6), F(-1, 4)]])
    assert (rows, dens) == ([[3, -4, 24], [0, 10, -3]], [6, 12])
    pivot(rows, dens, 1, 1)   # column 1 of row 1 becomes 1, column 1 of row 0 becomes 0
    values = [[F(v, d) for v in row] for row, d in zip(rows, dens)]
    assert values == [[F(1, 2), 0, F(4) - F(1, 5)], [0, 1, F(-3, 10)]]


def test_primitive_direction():
    assert primitive_direction([F(2, 3), F(-4, 9), 0]) == (3, -2, 0)
    assert primitive_direction([F(0), 0, F(0)]) == (0, 0, 0)
    assert primitive_direction([]) == ()
    rng = random.Random(11)
    for _ in range(300):
        vec = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
        out = primitive_direction(vec)
        assert all(v.denominator == 1 for v in out)
        if any(vec):
            # a positive multiple of vec with coprime entries
            k = next(o / v for o, v in zip(out, vec) if v)
            assert k > 0 and list(out) == [k * v for v in vec]
            g = 0
            for v in out:
                g = math.gcd(g, int(v))
            assert g == 1
        else:
            assert not any(out)
