"""Exact integer linear algebra over arbitrary-precision ints.

Matrices are immutable tuples of tuples, row-major.  Nothing here is
numpy: every entry is a Python int, so Frobenius-scale coefficients
(coordinates multiplied by m up to 10^3) never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

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
    """Rank over Q by fraction-free (Bareiss) row echelon elimination.

    After k pivots every entry below them is a (k+1)-minor of a, so the
    update (x*pv - f*y) // prev divides exactly (Sylvester's identity),
    prev being the previous pivot, and no entry leaves the integers.
    """
    if not a or not a[0]:
        return 0
    m = list(a)  # rows are replaced, never changed in place
    rows, cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        pv = top[c]
        for i in range(r + 1, rows):
            row = m[i]
            f = row[c]
            m[i] = [(x * pv - f * y) // prev for x, y in zip(row, top)]
        prev = pv
        r += 1
        if r == rows:
            break
    return r


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> IntVector:
        return tuple(self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0)))


@lru_cache(maxsize=1024)
def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms, total on any shape."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(row) for row in a]
    u = [list(row) for row in identity(rows)]
    v = [list(row) for row in identity(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            d[r][i] -= q * d[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # pick the nonzero pivot of least magnitude to limit growth
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    n = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            a_i, a_j = d[i][i], d[i + 1][i + 1]
            if a_j % a_i if a_i else a_j:
                # fold d[j] into position (i, i) and re-clear
                for r in range(rows):
                    d[r][i] += d[r][i + 1]
                for r in range(cols):
                    v[r][i] += v[r][i + 1]
                g_done = False
                while not g_done:
                    g_done = True
                    if d[i + 1][i] != 0:
                        q = d[i + 1][i] // d[i][i] if d[i][i] else 0
                        row_op(i + 1, i, q)
                        if d[i + 1][i] != 0:
                            swap_rows(i, i + 1)
                            g_done = False
                    if d[i][i + 1] != 0:
                        q = d[i][i + 1] // d[i][i] if d[i][i] else 0
                        col_op(i + 1, i, q)
                        if d[i][i + 1] != 0:
                            swap_cols(i, i + 1)
                            g_done = False
                changed = True

    for i in range(n):
        if d[i][i] < 0:
            for r in range(cols):
                v[r][i] = -v[r][i]
            d[i][i] = -d[i][i]

    return SmithDecomposition(mat(u), mat(d), mat(v))


@lru_cache(maxsize=4096)
def kernel_basis(a: IntMatrix) -> tuple[IntVector, ...]:
    """Basis of the integer kernel {x : A @ x = 0}."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if cols == 0:
        return ()
    if rows == 0:
        return tuple(tuple(identity(cols)[i]) for i in range(cols))
    snf = smith_normal_form(a)
    diag = snf.diagonal
    basis = []
    for j in range(cols):
        if j >= len(diag) or diag[j] == 0:
            basis.append(tuple(snf.V[i][j] for i in range(cols)))
    return tuple(basis)


def solve_linear_diophantine(a: IntMatrix, b) -> tuple[IntVector | None, list[IntVector]]:
    """One integer solution of A @ x = b plus a basis of the kernel lattice.

    Returns (None, kernel) when b is not in the image lattice.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    kernel = list(kernel_basis(a))
    b = tuple(int(x) for x in b)
    if len(b) != rows:
        raise ValueError("dimension mismatch")
    if cols == 0:
        return ((), kernel) if all(x == 0 for x in b) else (None, kernel)
    snf = smith_normal_form(a)
    ub = mat_vec(snf.U, b)
    y = [0] * cols
    diag = snf.diagonal
    for i in range(rows):
        d_i = diag[i] if i < len(diag) else 0
        if d_i == 0:
            if ub[i] != 0:
                return None, kernel
        else:
            if ub[i] % d_i:
                return None, kernel
            y[i] = ub[i] // d_i
    x = mat_vec(snf.V, y)
    return x, kernel


def unimodular_with_last_column(w) -> IntMatrix:
    """A unimodular matrix whose last column is the primitive vector w."""
    w = primitive(w)
    n = len(w)
    col = mat([[x] for x in w])
    snf = smith_normal_form(col)  # U w V = e_1 with V = (+-1), gcd(w) = 1
    uinv = invert_unimodular(snf.U)
    sign = snf.V[0][0]
    cols = [tuple(sign * uinv[i][j] if j == 0 else uinv[i][j] for i in range(n))
            for j in range(n)]
    assert cols[0] == w
    ordered = cols[1:] + [cols[0]]
    return tuple(tuple(ordered[j][i] for j in range(n)) for i in range(n))


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1."""
    n = len(a)
    d = det(a)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    # adjugate via cofactors; n <= 9 in this package
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i]
            cof[i][j] = (-1) ** (i + j) * det(mat(minor))
    return tuple(tuple(cof[j][i] * d for j in range(n)) for i in range(n))
