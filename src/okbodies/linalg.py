"""Small exact linear algebra helpers over Fraction.

Matrices are lists of lists (rows).  Everything here is desk scale.

Both kernels work on integer rows from `int_rows`: a row of ints and
Fractions becomes integer numerators over one positive denominator, its
least common denominator.  Every matrix solve here (`solve_integer`,
`solve_square`, `det_int`, `nullspace`, `null_vector`) is one
fraction-free elimination, `_echelon`, with back substitution over its
last pivot: no gcd and no Fraction inside.  `pivot` is the Gauss-Jordan
row update of a tableau, each row kept reduced by the gcd of its entries
and its denominator: it serves the simplex tableau and the principal
pivots of `linsys.least_element_path`.  Fractions are built again only
for results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import ConsistencyError


def int_rows(matrix):
    """(rows, dens): each row of a matrix of ints and Fractions as integer
    numerators over its least common denominator."""
    rows, dens = [], []
    for values in matrix:
        # a list, not a generator: CPython grows a tuple built from a
        # generator by resizing, which bypasses the tuple free list, so the
        # free list for each row length would fill to its cap of 2000
        # (seen as resident memory that grows with the number of LPs)
        den = lcm(*[v.denominator for v in values])
        rows.append([v.numerator * (den // v.denominator) for v in values])
        dens.append(den)
    return rows, dens


def eliminate(row, den, prow, c, support):
    """Integer row (row, den) minus row[c]/den times the pivot row `prow`,
    whose entry at c equals its denominator (value 1).  `support` lists the
    nonzero columns of `prow`.  Returns the reduced (row, den); the result
    reads 0 at c."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    p, f = p // g, f // g
    new = [v * p for v in row] if p != 1 else row[:]
    for j in support:
        new[j] -= f * prow[j]
    den *= p
    g = gcd(*new, den)
    if g != 1:
        new = [v // g for v in new]
        den //= g
    return new, den


def pivot(rows, dens, r, c):
    """Gauss-Jordan pivot in place on integer rows: row r is scaled so that
    it reads 1 at column c, and column c is eliminated from every other
    row.  rows[r][c] must be nonzero."""
    prow = rows[r]
    if prow[c] < 0:
        prow = [-v for v in prow]
    g = gcd(*prow)
    if g != 1:
        prow = [v // g for v in prow]
    rows[r], dens[r] = prow, prow[c]
    support = [j for j, v in enumerate(prow) if v]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            rows[i], dens[i] = eliminate(row, dens[i], prow, c, support)


def _echelon(rows, ncols):
    """Fraction-free row echelon form of integer rows, in place, over the
    first `ncols` columns (later columns ride along): Bareiss's elimination
    ("Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 1968).  The pivot of a column is its first
    nonzero entry at or below the current row; a column with none is
    skipped.  Each row below the pivot p becomes (p*row - f*prow) // prev,
    f its entry in the pivot column and prev the previous pivot (1 at
    first): by Sylvester's identity every entry is then a minor of the
    rows as given, so the division is exact and the rows need no gcd.

    Returns (pivot columns, det), det being the last pivot (1 with none)
    times the sign of the row swaps: the determinant of the rows when they
    are square of full rank, and in general the determinant of the minor
    on the pivot rows and columns, up to sign."""
    m = len(rows)
    pivots = []
    sign = prev = 1
    for col in range(ncols):
        k = len(pivots)
        if k == m:
            break
        r = k
        while r < m and not rows[r][col]:
            r += 1
        if r == m:
            continue
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            sign = -sign
        prow = rows[k]
        p = prow[col]
        rest = range(col + 1, len(prow))
        for row in rows[k + 1:]:
            f = row[col]
            row[col] = 0
            if f:
                for j in rest:
                    row[j] = (p * row[j] - f * prow[j]) // prev
            elif p != prev:
                for j in rest:
                    row[j] = p * row[j] // prev
        prev = p
        pivots.append(col)
    return pivots, sign * prev


def _back_substitute(rows, pivots, col, det):
    """det * y as integers, y the solution of sum_j rows[i][pivots[j]] * y_j
    = rows[i][col] over the pivot rows i of an echelon from `_echelon`,
    det the one it returned.  The echelon's pivot rows are invertible
    combinations of the original ones, so y also solves the original
    pivot rows on the pivot columns, a system of determinant +-det: by
    Cramer's rule det * y is integral, and each division below is
    exact."""
    nums = [0] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        row = rows[i]
        s = det * row[col]
        for j in range(i + 1, len(pivots)):
            s -= row[pivots[j]] * nums[j]
        nums[i] = s // row[pivots[i]]
    return nums


def solve_square(matrix, rhs):
    """Solve M x = rhs for square M: the Fractions of `solve_integer` of
    [M | rhs].  Returns the solution vector or None when M is singular."""
    sol = solve_integer([list(row) + [rhs[i]] for i, row in enumerate(matrix)])
    if sol is None:
        return None
    nums, den = sol
    return [Fraction(v, den) for v in nums]


def solve_integer(aug):
    """Solve M x = r for the augmented square system aug = [M | r] (rows of
    ints and Fractions), by one fraction-free elimination and back
    substitution.  Returns the numerators of x over one positive
    denominator, (nums, den), or None when M is singular."""
    n = len(aug)
    rows, _ = int_rows(aug)
    pivots, det = _echelon(rows, n)
    if len(pivots) < n:
        return None
    nums = _back_substitute(rows, pivots, n, det)
    if det < 0:
        return [-v for v in nums], -det
    return nums, det


def det_int(matrix) -> int:
    """Determinant of a square integer matrix."""
    n = len(matrix)
    rows, dens = int_rows(matrix)
    pivots, det = _echelon(rows, n)
    if len(pivots) < n:
        return 0
    # each row was scaled by its denominator
    den = prod(dens)
    if det % den:
        raise ConsistencyError("determinant of an integer matrix is not an integer")
    return det // den


def nullspace(matrix, ncols=None):
    """Basis of the right nullspace of `matrix` (list of vectors): one
    vector per non-pivot column, 1 there and 0 at the other non-pivot
    columns."""
    if not matrix:
        if ncols is None:
            return []
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    ncols = len(matrix[0])
    rows, _ = int_rows(matrix)
    pivots, det = _echelon(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, num in zip(pivots, _back_substitute(rows, pivots, fc, det)):
            vec[pc] = Fraction(-num, det)
        basis.append(vec)
    return basis


def null_vector(matrix, ncols):
    """The primitive integer vector that spans the right nullspace of
    `matrix` (rows of ints and Fractions, `ncols` columns), positive at its
    one non-pivot column, or None when the nullspace is not a line."""
    rows, _ = int_rows(matrix)
    pivots, det = _echelon(rows, ncols)
    if len(pivots) != ncols - 1:
        return None
    free = next(j for j in range(ncols) if j not in pivots)
    vec = [0] * ncols
    vec[free] = det
    for pc, num in zip(pivots, _back_substitute(rows, pivots, free, det)):
        vec[pc] = -num
    g = gcd(*vec) if det > 0 else -gcd(*vec)
    return [v // g for v in vec]


def primitive_direction(vec):
    """Scale a rational vector by a positive factor to a primitive integer
    vector.  The sign is kept as-is; the zero vector stays zero."""
    (ints,), _ = int_rows([vec])
    g = gcd(*ints)
    if g == 0:
        return (Fraction(0),) * len(ints)
    # from a list, not a generator: see int_rows
    return tuple([Fraction(v, g) for v in ints])


def int_dot(row, x):
    """Dot product over the first len(x) entries of row: with integer rows
    and vectors, no Fraction is built."""
    return sum(map(mul, row, x))


def dot(a, b):
    return sum(map(mul, a, b), Fraction(0))
