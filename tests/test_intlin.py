import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricsec.fans import FanError, deg_and_pic
from toricsec.intlin import (
    det,
    identity,
    invert_unimodular,
    kernel_vector,
    mat,
    mat_mul,
    mat_vec,
    rank,
    vec_gcd,
)
from toricsec.workspace import load_workspace

def cofactor_inverse(a):
    """The former adjugate-by-cofactors inverse, kept as the reference."""
    n = len(a)
    d = det(a)
    cof = [[(-1) ** (i + j) * det(mat([row[:j] + row[j + 1:]
                                        for k, row in enumerate(a) if k != i]))
            for j in range(n)] for i in range(n)]
    return tuple(tuple(cof[j][i] * d for j in range(n)) for i in range(n))


def square_deg(fan, basis):
    """The former construction of deg: the last rows of the inverse of the
    d x d matrix [A | e_b for b in basis], or None when it is not unimodular."""
    d = fan.n_rays
    square = mat([list(fan.rays[ρ]) + [1 if ρ == b else 0 for b in basis]
                  for ρ in range(d)])
    if abs(det(square)) != 1:
        return None
    return cofactor_inverse(square)[fan.dim:]


@lru_cache(maxsize=None)
def bundled_workspace():
    return load_workspace()


def test_deg_and_pic_matches_square_construction():
    ws = bundled_workspace()
    for label, fan in ws.fans.items():
        admissible = []
        for cand in itertools.combinations(range(fan.n_rays), fan.n_rays - fan.dim):
            expect = square_deg(fan, cand)
            if expect is None:
                with pytest.raises(FanError):
                    deg_and_pic(fan, cand)
                continue
            admissible.append(cand)
            assert deg_and_pic(fan, cand).deg == expect, (label, cand)
            flipped = cand[::-1]
            assert deg_and_pic(fan, flipped).deg == square_deg(fan, flipped), (label, flipped)
        # the loaded basis is the pinned one if the file names one, else lex-first
        pic = ws.pic(label)
        assert pic.basis_indices in admissible
        assert pic.deg == square_deg(fan, pic.basis_indices)
        assert deg_and_pic(fan).basis_indices == admissible[0]


def test_kernel_of_e1_deg_matrix_is_ray_image():
    # On every bundled fan (E1 among them): deg A = 0, deg is the identity
    # on the basis columns and the free rays form a unimodular square A_F.
    # Then for v in ker deg, m = A_F^-1 v_F has v - A m in ker deg and
    # zero on F, hence zero on the basis too: ker deg = A Z^n.
    ws = bundled_workspace()
    for label, fan in ws.fans.items():
        pic = ws.pic(label)
        assert mat_mul(pic.deg, mat(fan.rays)) == ((0,) * fan.dim,) * pic.rank, label
        assert tuple(tuple(row[b] for b in pic.basis_indices) for row in pic.deg) == \
            identity(pic.rank), label
        assert abs(det(mat([fan.rays[f] for f in pic.free_indices]))) == 1, label


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


@st.composite
def boundary_matrices(draw):
    """The simplicial boundary map from k-faces to (k-1)-faces of the full
    subcomplex of a bundled fan on a ray subset, signs (-1)^j."""
    ws = bundled_workspace()
    fan = ws.fan(draw(st.sampled_from(sorted(ws.fans))))
    subset = draw(st.sets(st.integers(0, fan.n_rays - 1), min_size=2))
    faces = {f for cone in fan.max_cones for k in range(1, fan.dim + 1)
             for f in itertools.combinations(sorted(subset.intersection(cone)), k)}
    top = max(map(len, faces))
    assume(top > 1)
    k = draw(st.integers(1, top - 1))
    index = {f: i for i, f in enumerate(sorted(f for f in faces if len(f) == k))}
    rows = []
    for f in sorted(f for f in faces if len(f) == k + 1):
        row = [0] * len(index)
        for j in range(k + 1):
            row[index[f[:j] + f[j + 1:]]] = (-1) ** j
        rows.append(row)
    return mat(rows)


@settings(max_examples=300, deadline=None)
@given(st.one_of(integer_matrices(), boundary_matrices()))
def test_sparse_rank_matches_fraction_reference(a):
    assert rank(a) == fraction_rank(a)


@st.composite
def unimodular_matrices(draw):
    """Products of elementary matrices: row additions, swaps and negations."""
    n = draw(st.integers(1, 7))
    m = [list(row) for row in identity(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "add", "swap", "negate"]))
        if op == "add" and i != j:
            k = draw(st.integers(-4, 4))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "negate":
            m[i] = [-x for x in m[i]]
    return mat(m)


@settings(max_examples=300, deadline=None)
@given(unimodular_matrices())
def test_invert_unimodular_matches_cofactor_reference(a):
    inv = invert_unimodular(a)
    assert inv == cofactor_inverse(a)
    assert mat_mul(a, inv) == identity(len(a))


@settings(max_examples=200, deadline=None)
@given(unimodular_matrices(), st.sampled_from([0, 2, -2]), st.data())
def test_invert_unimodular_rejects_other_determinants(a, factor, data):
    # scaling one row scales the determinant from +-1 to 0 or +-2
    i = data.draw(st.integers(0, len(a) - 1))
    b = mat([[factor * x for x in row] if k == i else row for k, row in enumerate(a)])
    with pytest.raises(ValueError):
        invert_unimodular(b)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.lists(st.integers(-6, 6), min_size=k + 1, max_size=k + 1),
                         min_size=k, max_size=k),
    st.lists(st.sampled_from([None, 0, 1, -2]), min_size=k, max_size=k))))
def test_kernel_vector_is_a_primitive_kernel_generator(case):
    k, rows, copies = case
    # rows marked with a multiplier become a multiple of row 0, so some draws
    # are rank-deficient
    a = mat([row if c is None or i == 0 else [c * x for x in rows[0]]
             for i, (row, c) in enumerate(zip(rows, copies))])
    w = kernel_vector(a)
    if rank(a) < k:
        assert w is None
    else:
        assert len(w) == k + 1 and vec_gcd(w) == 1
        assert mat_vec(a, w) == (0,) * k
