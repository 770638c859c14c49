import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsec.intlin import (
    det,
    identity,
    invert_unimodular,
    kernel_basis,
    mat,
    mat_mul,
    mat_vec,
    rank,
    smith_normal_form,
)

E1_RAYS = [
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (-1, 0, 0, 0), (3, -1, -1, -1), (2, -1, -1, -1),
]


def snf_2x2_oracle(a, b):
    """Divisibility form of diag(a, b) by gcd elimination."""
    from math import gcd
    g = gcd(a, b)
    return (g, abs(a * b) // g if g else 0)


def check_decomposition(a):
    snf = smith_normal_form(a)
    assert mat_mul(mat_mul(snf.U, a), snf.V) == snf.D
    assert abs(det(snf.U)) == 1
    assert abs(det(snf.V)) == 1
    diag = snf.diagonal
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    assert all(d >= 0 for d in diag)
    return snf


def test_snf_identity():
    a = identity(3)
    snf = check_decomposition(a)
    assert snf.D == a


def test_snf_diag_2_3_matches_gcd_oracle():
    a = mat([[2, 0], [0, 3]])
    snf = check_decomposition(a)
    assert snf.diagonal == snf_2x2_oracle(2, 3) == (1, 6)


@pytest.mark.parametrize("entries", [(2, 4), (6, 4), (0, 5), (12, 18)])
def test_snf_2x2_diagonals_match_oracle(entries):
    a, b = entries
    snf = check_decomposition(mat([[a, 0], [0, b]]))
    assert snf.diagonal == snf_2x2_oracle(a, b)


def test_snf_e1_transposed_ray_matrix():
    # 4x7 matrix of the fourfold ray generators: cokernel is free of rank 3
    a = mat(list(zip(*E1_RAYS)))
    snf = check_decomposition(a)
    assert snf.diagonal == (1, 1, 1, 1)


def test_snf_random_matrices():
    rng = random.Random(0)
    for _ in range(40):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        a = mat([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        check_decomposition(a)


def test_kernel_of_e1_deg_matrix_is_ray_image():
    # deg matrix of the E1 fourfold in basis {D4, D5, D6}
    deg = mat([
        [1, 0, 0, 0, 1, 0, 0],
        [-3, 1, 1, 1, 0, 1, 0],
        [-2, 1, 1, 1, 0, 0, 1],
    ])
    ker = kernel_basis(deg)
    assert len(ker) == 4
    rays = mat(E1_RAYS)  # 7x4, columns span the kernel
    # a kernel vector v is the ray image of m = A^-1 v_sigma, A the
    # unimodular ray matrix of the maximal cone sigma = {1, 2, 5, 6}
    sigma = (1, 2, 5, 6)
    chart = invert_unimodular(mat([E1_RAYS[i] for i in sigma]))
    for v in ker:
        assert mat_vec(deg, v) == (0, 0, 0)
        m = mat_vec(chart, [v[i] for i in sigma])
        assert mat_vec(rays, m) == v


def test_invert_unimodular():
    u = mat([[1, 2], [1, 3]])
    assert mat_mul(u, invert_unimodular(u)) == identity(2)


def test_rank():
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(mat([[1, 0], [0, 1], [1, 1]])) == 2


def fraction_rank(a):
    """The former Fraction elimination, kept as the reference for rank."""
    if not a or not a[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        for i in range(r + 1, rows):
            if m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


@st.composite
def integer_matrices(draw):
    """Tall, wide and square matrices with zero columns and dependent rows."""
    cols = draw(st.integers(1, 7))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "random", "multiple", "sum"]))
        if kind == "random" or not rows:
            row = draw(st.lists(st.integers(-50, 50), min_size=cols, max_size=cols))
            rows.append([0 if j in zero_cols else x for j, x in enumerate(row)])
        elif kind == "multiple":
            i = draw(st.integers(0, len(rows) - 1))
            k = draw(st.sampled_from([-3, -1, 0, 2, 5]))
            rows.append([k * x for x in rows[i]])
        else:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            rows.append([x + y for x, y in zip(rows[i], rows[j])])
    return mat(rows)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_bareiss_rank_matches_fraction_reference(a):
    assert rank(a) == fraction_rank(a)
