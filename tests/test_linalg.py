import math
import random
from fractions import Fraction

import pytest

from okbodies.errors import ConsistencyError
from okbodies.linalg import (det_int, int_rows, null_vector, nullspace, pivot,
                             primitive_direction, solve_integer, solve_square)
from tests.test_rank import _ladder_graph

F = Fraction


def test_solve_square_needs_row_swap():
    # zero in the leading position forces a swap; rational entries throughout
    m = [[F(0), F(2, 3), F(-1, 2)],
         [F(3, 4), F(0), F(1, 5)],
         [F(-1, 6), F(5, 7), F(0)]]
    rhs = [F(1, 2), F(-3), F(7, 3)]
    x = solve_square(m, rhs)
    assert x is not None
    assert [sum(a * b for a, b in zip(row, x)) for row in m] == rhs


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
        assert [sum(a * b for a, b in zip(row, x)) for row in m] == rhs
    assert 100 < solved < 200


def test_nullspace_with_swap_and_rank_deficiency():
    m = [[F(0), F(0), F(1, 2), F(-1, 3)],
         [F(2, 5), F(-1), F(0), F(1)],
         [F(4, 5), F(-2), F(1, 2), F(5, 3)]]   # row 3 = 2 row 2 + row 1
    null = nullspace(m)
    assert len(null) == 2
    for v in null:
        assert any(v)
        assert [sum(a * b for a, b in zip(row, v)) for row in m] == [0, 0, 0]
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
            assert [sum(a * b for a, b in zip(row, v)) for row in m] == [0] * r


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


def _reference_rref(matrix, ncols):
    """Plain Gauss-Jordan elimination over Fractions on the first ncols
    columns: (reduced rows, pivot columns, product of the pivots times the
    sign of the row swaps)."""
    rows = [[F(v) for v in row] for row in matrix]
    pivots, det = [], F(1)
    for col in range(ncols):
        k = len(pivots)
        r = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if r is None:
            continue
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            det = -det
        p = rows[k][col]
        det *= p
        rows[k] = [v / p for v in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[k])]
        pivots.append(col)
    return rows, pivots, det


def _reference_nullspace(matrix, ncols):
    rows, pivots, _ = _reference_rref(matrix, ncols)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [F(int(j == fc)) for j in range(ncols)]
            for row, pc in zip(rows, pivots):
                vec[pc] = -row[fc]
            basis.append(vec)
    return basis


def _random_matrix(rng, nrows, ncols):
    """Integer or rational entries, some rank-deficient by construction
    (a product through fewer columns), some with zero leading entries."""
    rational = rng.random() < 0.4
    zeros = rng.choice((0.0, 0.3, 0.6))

    def entry():
        if rng.random() < zeros:
            return 0
        if rational:
            return F(rng.randint(-4, 4), rng.randint(1, 5))
        return rng.randint(-5, 5)

    kind = rng.random()
    if kind < 0.3:
        inner = rng.randint(1, max(1, min(nrows, ncols) - 1))
        left = [[entry() for _ in range(inner)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(inner)]
        matrix = [[sum((F(a) * b for a, b in zip(row, col)), F(0)) for col in zip(*right)]
                  for row in left]
    else:
        matrix = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if kind > 0.8 and nrows > 1:
        # singular: the last row is a combination of the others
        c = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(nrows - 1)]
        matrix[-1] = [sum((ci * row[j] for ci, row in zip(c, matrix)), F(0))
                      for j in range(ncols)]
    if rng.random() < 0.3:
        # leading zeros in the first rows force row swaps
        for row in matrix[:rng.randint(1, nrows)]:
            row[0] = 0
    return matrix


def _check_against_reference(matrix, rhs):
    ncols = len(matrix[0])
    null = _reference_nullspace(matrix, ncols)
    assert nullspace(matrix) == null
    line = null_vector(matrix, ncols)
    # later columns ride along, as the rhs of enumerate_v_rep's rows do
    assert null_vector([row + [b] for row, b in zip(matrix, rhs)], ncols) == line
    if len(null) != 1:
        assert line is None
    else:
        assert line == list(primitive_direction(null[0]))
    if len(matrix) != ncols:
        return
    n = ncols
    rows, pivots, det = _reference_rref([row + [b] for row, b in zip(matrix, rhs)], n)
    x = [row[n] for row in rows] if len(pivots) == n else None
    sol = solve_integer([row + [b] for row, b in zip(matrix, rhs)])
    assert solve_square(matrix, rhs) == x
    if x is None:
        assert sol is None and det_int(matrix) == 0
    else:
        nums, den = sol
        assert den > 0 and [F(v, den) for v in nums] == x
        if det.denominator == 1:
            assert det_int(matrix) == det
        else:
            with pytest.raises(ConsistencyError):
                det_int(matrix)


def test_elimination_against_a_fraction_reference():
    # 2,400 seeded matrices of 1-8 rows and columns, then the reduced
    # Laplacians of the rank-sweep ladders
    rng = random.Random(2013)
    seen = {"singular": 0, "solved": 0, "swapped": 0, "deficient": 0}
    for _ in range(2400):
        nrows = rng.randint(1, 8)
        ncols = nrows if rng.random() < 0.5 else rng.randint(1, 8)
        matrix = _random_matrix(rng, nrows, ncols)
        rhs = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(nrows)]
        _check_against_reference(matrix, rhs)
        rank = ncols - len(_reference_nullspace(matrix, ncols))
        seen["deficient"] += rank < min(nrows, ncols)
        if nrows == ncols:
            seen["singular" if rank < ncols else "solved"] += 1
            seen["swapped"] += rank == ncols and matrix[0][0] == 0
    assert min(seen.values()) > 100, seen
    for n in (8, 12, 16, 20, 24):
        lap = _ladder_graph(random.Random(n), n).laplacian_matrix()
        for q in (0, n // 2):
            others = [v for v in range(n) if v != q]
            reduced = [[lap[i][j] for j in others] for i in others]
            rhs = [rng.randint(-4 * n, 4 * n) for _ in others]
            _check_against_reference(reduced, rhs)
            assert det_int(reduced) > 0


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
