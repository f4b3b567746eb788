"""Exact integer and rational linear algebra helpers.

Everything here works over Python ints and fractions.Fraction; no floats.
Matrices are lists of row lists, vectors are sequences of numbers.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub
from typing import Sequence

Vec = tuple[int, ...]


def _same_length(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} and {len(b)}")


def dot(a: Sequence, b: Sequence):
    _same_length(a, b)
    return sum(map(mul, a, b))


def vec_add(a: Sequence, b: Sequence) -> Vec:
    _same_length(a, b)
    return tuple(map(add, a, b))


def vec_sub(a: Sequence, b: Sequence) -> Vec:
    _same_length(a, b)
    return tuple(map(sub, a, b))


def vec_scale(c, a: Sequence) -> tuple:
    return tuple(c * x for x in a)


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def eliminate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss).

    Returns (matrix, pivot columns, last pivot p, sign of the row swaps).  Each
    step keeps the pivot row and turns every other row r into
    (p r - u_r pivot row) / previous pivot, u_r being r's entry in the pivot
    column; by Sylvester's identity the division is exact, so every entry
    stays an integer.  The result is p times the reduced row echelon form,
    and p is the determinant of the pivot rows and columns after the swaps.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    sign, prev, r = 1, 1, 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            sign = -sign
            m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i != r:
                u = row[c]
                m[i] = [(p * x - u * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev, r = p, r + 1
        if r == len(m):
            break
    return m, pivots, prev, sign


def rank(rows: Sequence[Sequence[int]]) -> int:
    return len(eliminate(rows)[1])


def solve(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[Fraction, ...] | None:
    """One exact solution of A x = b with free variables set to 0, or None."""
    if not rows:
        return () if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    m, pivots, p, _ = eliminate([[*row, b] for row, b in zip(rows, rhs, strict=True)])
    if ncols in pivots:  # pivot in the constant column: inconsistent
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = Fraction(m[r][ncols], p)
    return tuple(x)


def det(m: Sequence[Sequence[int]]) -> int:
    """The determinant of a square integer matrix, read off its elimination."""
    _, pivots, p, sign = eliminate(m)
    return sign * p if len(pivots) == len(m) else 0


def adjugate(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adj, det) of a nonsingular integer matrix, one elimination: adj @ m = det * identity.

    Eliminating [m | I] leaves [p I | p m^-1] with det(m) = sign * p.
    """
    n = len(m)
    red, pivots, p, sign = eliminate([list(row) + e for row, e in zip(m, identity(n))])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[sign * x for x in row[n:]] for row in red], sign * p


def smith_normal_form(
    mat: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Return (d, u) with u unimodular, d diagonal and u @ mat @ v = d.

    The unimodular v exists but is not formed: no caller needs it, and for a
    relation matrix it is the large side.  Diagonal entries are nonnegative
    and each divides the next.  The pivot is the first nonzero entry of the
    remaining block in row-major order.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    # stored by columns, a[j][i] is entry (i, j): column operations, the
    # frequent ones on wide matrices, then touch one short list
    a = [list(col) for col in zip(*mat)]
    u = identity(nrows)

    def swap_rows(i, j):
        for col in a:
            col[i], col[j] = col[j], col[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        a[i], a[j] = a[j], a[i]

    def add_row(src, dst, c):
        for col in a:
            col[dst] += c * col[src]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]

    t = 0
    while t < min(nrows, ncols):
        # locate a nonzero pivot in the remaining block
        pos = next(
            ((i, j) for i in range(t, nrows) for j in range(t, ncols) if a[j][i] != 0),
            None,
        )
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            reduced = False
            for i in range(t + 1, nrows):
                if a[t][i] != 0:
                    q = a[t][i] // a[t][t]
                    add_row(t, i, -q)
                    if a[t][i] != 0:
                        swap_rows(t, i)
                    reduced = True
            for j in range(t + 1, ncols):
                if a[j][t] != 0:
                    q = a[j][t] // a[t][t]
                    add_col(t, j, -q)
                    if a[j][t] != 0:
                        swap_cols(t, j)
                    reduced = True
            if not reduced:
                break
        pivot = a[t][t]
        # make the pivot divide every remaining entry; a unit divides all
        if abs(pivot) != 1:
            fixup = next(
                (
                    (i, j)
                    for i in range(t + 1, nrows)
                    for j in range(t + 1, ncols)
                    if a[j][i] % pivot != 0
                ),
                None,
            )
            if fixup is not None:
                add_row(fixup[0], t, 1)
                continue
        if pivot < 0:
            # the pivot is alone in its row now
            a[t][t] = -pivot
            u[t] = [-x for x in u[t]]
        t += 1
    return [[a[j][i] for j in range(ncols)] for i in range(nrows)], u
