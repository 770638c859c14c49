"""Exact integer linear algebra over arbitrary-precision ints.

Matrices are immutable tuples of tuples, row-major.  Nothing here is
numpy: every entry is a Python int, so Frobenius-scale coefficients
(coordinates multiplied by m up to 10^3) never overflow.
"""

from __future__ import annotations

from math import gcd
from operator import index

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def mat(rows) -> IntMatrix:
    """Build an immutable integer matrix, checking rectangularity."""
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged rows")
    return m


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: IntMatrix, v) -> IntVector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def int_vector(v, what: str) -> IntVector:
    """v's entries as ints; an entry of no integer type raises ValueError naming it."""
    out = []
    for x in v:
        try:
            out.append(index(x))
        except TypeError:
            raise ValueError(f"{what} {x!r} is not an integer") from None
    return tuple(out)


def vec_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(v) -> IntVector:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(a: IntMatrix) -> int:
    """Rank over Q by sparse row reduction (sparse_rank)."""
    return sparse_rank({j: x for j, x in enumerate(entries) if x} for entries in a)


def sparse_rank(rows) -> int:
    """Rank over Q of rows given as {column: entry} of their nonzero entries.

    The rows are read, never changed.  Each is reduced against the pivot
    rows, keyed by their leading column, while its own leading column has
    one: row <- f*row - h*pivot cancels that entry (f, h the leading
    entries over their gcd), and the row is divided by its content.  A row
    that stays nonzero becomes the pivot of its new leading column; the
    rank is the number of pivots.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row and (lead := min(row)) in pivots:
            pivot = pivots[lead]
            g = gcd(row[lead], pivot[lead])
            f, h = pivot[lead] // g, row[lead] // g
            row = {j: f * x for j, x in row.items()}
            for j, y in pivot.items():
                if x := row.get(j, 0) - h * y:
                    row[j] = x
                else:
                    del row[j]
            if (content := gcd(*row.values())) > 1:
                row = {j: x // content for j, x in row.items()}
        if row:
            pivots[lead] = row
    return len(pivots)


def kernel_vector(a: IntMatrix) -> IntVector | None:
    """Primitive generator of the kernel of a k x (k+1) integer matrix.

    The cofactor vector w_j = (-1)^j det(a without column j) satisfies
    a @ w = 0 (expand the matrix with a repeated row); it is zero exactly
    when rank(a) < k, and then None is returned.  For k = 0 the empty
    minor gives (1,).
    """
    w = tuple((-1) ** j * det(tuple(row[:j] + row[j + 1:] for row in a))
              for j in range(len(a) + 1))
    return primitive(w) if any(w) else None


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1.

    One fraction-free (Bareiss) Gauss-Jordan pass on [a | I]: after the
    pivot of column c every entry is a minor of [a | I], so the update
    (pv*x - f*y) // prev divides exactly.  At the end the left block is
    D*I and the right block D*a^-1, D = +-det(a).
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    m = [list(row) + list(e) for row, e in zip(a, identity(n))]
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            raise ValueError("matrix is not unimodular")
        m[c], m[piv] = m[piv], m[c]
        top = m[c]
        pv = top[c]
        for i in range(n):
            if i != c:
                row = m[i]
                f = row[c]
                m[i] = [(x * pv - f * y) // prev for x, y in zip(row, top)]
        prev = pv
    if prev not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(x * prev for x in row[n:]) for row in m)
