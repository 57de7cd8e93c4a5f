"""Small exact linear algebra helpers over Fraction.

Matrices are lists of lists (rows).  Everything here is desk scale;
plain Gauss-Jordan elimination with exact pivots is all we need.

The elimination kernel works on integer rows: a row is a list of integer
numerators over one positive integer denominator, kept reduced by the gcd
of the row and its denominator, so it holds exactly the values of the
Fraction row it stands for.  `int_rows` builds them, and `pivot` is the
one row update: it serves the simplex tableau, the Gauss-Jordan
elimination here and the principal pivots of
`linsys.least_element_path`.  Fractions are built again only for results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def _reduce(matrix, ncols):
    """Reduced row echelon form of `matrix` over its first `ncols` columns
    (later columns ride along).  Returns (rows, dens, pivot columns, num,
    den), where num/den is the product of the pivot values times the sign
    of the row swaps: the determinant when the matrix is square of full
    rank."""
    rows, dens = int_rows(matrix)
    pivots = []
    num = den = 1
    for col in range(ncols):
        rk = len(pivots)
        if rk == len(rows):
            break
        r = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if r is None:
            continue
        if r != rk:
            rows[rk], rows[r] = rows[r], rows[rk]
            dens[rk], dens[r] = dens[r], dens[rk]
            num = -num
        num *= rows[rk][col]
        den *= dens[rk]
        pivot(rows, dens, rk, col)
        pivots.append(col)
    return rows, dens, pivots, num, den


def solve_square(matrix, rhs):
    """Solve M x = rhs for square M, with one elimination of [M | rhs].
    Returns the solution vector or None when M is singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    rows, dens, pivots, _, _ = _reduce(aug, n)
    if len(pivots) < n:
        return None
    return [Fraction(rows[i][n], dens[i]) for i in range(n)]


def solve_integer(aug):
    """Solve M x = r for the augmented square system aug = [M | r] (rows of
    ints and Fractions), with one elimination.  Returns the numerators of x
    over one positive denominator, (nums, den), or None when M is
    singular."""
    n = len(aug)
    rows, dens, pivots, _, _ = _reduce(aug, n)
    if len(pivots) < n:
        return None
    den = lcm(*dens)
    return [row[n] * (den // d) for row, d in zip(rows, dens)], den


def det_int(matrix) -> int:
    """Determinant of a square integer matrix."""
    n = len(matrix)
    _, _, pivots, num, den = _reduce(matrix, n)
    if len(pivots) < n:
        return 0
    if num % den:
        raise ConsistencyError("determinant of an integer matrix is not an integer")
    return num // den


def nullspace(matrix, ncols=None):
    """Basis of the right nullspace of `matrix` (list of vectors)."""
    if not matrix:
        if ncols is None:
            return []
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    ncols = len(matrix[0])
    rows, dens, pivots, _, _ = _reduce(matrix, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = Fraction(-rows[r][fc], dens[r])
        basis.append(vec)
    return basis


def null_vector(matrix, ncols):
    """The primitive integer vector that spans the right nullspace of
    `matrix` (rows of ints and Fractions, `ncols` columns), positive at its
    one non-pivot column, or None when the nullspace is not a line."""
    rows, dens, pivots, _, _ = _reduce(matrix, ncols)
    if len(pivots) != ncols - 1:
        return None
    free = next(j for j in range(ncols) if j not in pivots)
    den = lcm(*dens[:len(pivots)])
    vec = [0] * ncols
    vec[free] = den
    for row, d, c in zip(rows, dens, pivots):
        vec[c] = -row[free] * (den // d)
    g = gcd(*vec)
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


def mat_vec(matrix, vec):
    return [dot(row, vec) for row in matrix]
