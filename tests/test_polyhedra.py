import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsec import quiver
from toricsec.polyhedra import (
    ParametricIntegerFeasibility,
    RationalPolyhedron,
    integer_feasible,
    polytope_lattice_points,
    simplex_feasible,
)
from toricsec.workspace import load_workspace


def grid_scan_oracle(poly, box):
    """Naive bounding-box scan; the independent oracle for lattice points."""
    pts = []
    ranges = [range(lo, hi + 1) for lo, hi in box]
    for p in itertools.product(*ranges):
        if poly.contains(p):
            pts.append(p)
    return sorted(pts)


def box_poly(bounds):
    p = RationalPolyhedron(len(bounds))
    for i, (lo, hi) in enumerate(bounds):
        e = [0] * len(bounds)
        e[i] = 1
        p.add_ineq(tuple(e), lo)
        p.add_ineq(tuple(-x for x in e), -hi)
    return p


def test_unit_segment():
    p = box_poly([(0, 1)])
    assert polytope_lattice_points(p) == [(0,), (1,)]


def test_scaled_simplex_matches_grid_oracle():
    # 2 * standard 2-simplex: x, y >= 0, x + y <= 2 -> 6 points
    p = RationalPolyhedron(2)
    p.add_ineq((1, 0), 0)
    p.add_ineq((0, 1), 0)
    p.add_ineq((-1, -1), -2)
    pts = polytope_lattice_points(p)
    assert len(pts) == 6
    assert pts == grid_scan_oracle(p, [(-1, 3), (-1, 3)])


@pytest.mark.parametrize("tilt", [0, 1, -2])
def test_random_polytopes_match_grid_oracle(tilt):
    p = RationalPolyhedron(3)
    p.add_ineq((1, 0, 0), -2)
    p.add_ineq((0, 1, 0), -2)
    p.add_ineq((0, 0, 1), -2)
    p.add_ineq((-1, -1, -1), -4)
    p.add_ineq((1, tilt, 2), Fraction(-7, 2))
    assert polytope_lattice_points(p) == grid_scan_oracle(p, [(-3, 9)] * 3)


def test_lattice_points_with_equalities():
    p = RationalPolyhedron(3)
    p.add_eq((1, 1, 1), 2)
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        p.add_ineq(tuple(e), 0)
    pts = polytope_lattice_points(p)
    assert len(pts) == 6
    assert all(sum(x) == 2 and min(x) >= 0 for x in pts)


def test_unbounded_enumeration_rejected():
    p = RationalPolyhedron(2)
    p.add_ineq((1, 0), 0)
    p.add_ineq((0, 1), 0)
    with pytest.raises(ValueError):
        polytope_lattice_points(p)


def test_integer_feasible_dim0():
    p = RationalPolyhedron(0)
    ok, witness = integer_feasible(p)
    assert ok and witness == ()


def test_integer_feasible_2x_eq_1():
    p = RationalPolyhedron(1)
    p.add_ineq((2,), 1)
    p.add_ineq((-2,), -1)
    ok, _ = integer_feasible(p)
    assert not ok


def test_integer_feasible_cone_membership():
    # the H^4-cone system of the paper's worked fourfold at a fixed point
    p = RationalPolyhedron(0)
    a1, a2, a3 = 40, -7, 0
    assert a1 + 6 * a2 + a3 <= -2
    assert a2 + a3 <= -7
    assert a3 <= 1
    system = RationalPolyhedron(3)
    system.add_ineq((-1, -6, -1), 2)
    system.add_ineq((0, -1, -1), 7)
    system.add_ineq((0, 0, -1), -1)
    assert system.contains((a1, a2, a3))


def test_integer_feasible_unbounded_strip():
    # unbounded strip with no lattice points: 3x <= 3y + 1, 3x >= 3y + 1 - eps
    p = RationalPolyhedron(2)
    p.add_ineq((-3, 3), -1)
    p.add_ineq((3, -3), Fraction(1, 2))
    ok, _ = integer_feasible(p)
    assert not ok


def test_integer_feasible_unbounded_with_point():
    p = RationalPolyhedron(2)
    p.add_ineq((1, 0), 3)   # x >= 3, y free
    ok, w = integer_feasible(p)
    assert ok and w[0] >= 3


def test_integer_feasible_witness_valid():
    p = RationalPolyhedron(3)
    p.add_eq((1, 2, 3), 7)
    p.add_ineq((1, 0, 0), 0)
    p.add_ineq((0, 1, 0), 0)
    p.add_ineq((0, 0, 1), 0)
    ok, w = integer_feasible(p)
    assert ok and p.contains(w)


def test_simplex_feasible():
    # x0 + x1 = 2, x0 - x1 = 0 with x >= 0 -> (1, 1)
    w = simplex_feasible([(1, 1), (1, -1)], (2, 0), 2)
    assert w == (Fraction(1), Fraction(1))
    assert simplex_feasible([(1, 1)], (-1,), 2) is None
    # infeasible equality mix
    assert simplex_feasible([(1, 0), (1, 0)], (1, 2), 2) is None


# ------------------------------------- integer phase-1 simplex vs Fractions

def fraction_simplex(eq_rows, rhs, nvars):
    """The Fraction-tableau phase-1 simplex with Bland's rule: the reference."""
    m = len(eq_rows)
    rows = [list(map(Fraction, r)) for r in eq_rows]
    f = [Fraction(x) for x in rhs]
    for i in range(m):
        if f[i] < 0:
            rows[i] = [-x for x in rows[i]]
            f[i] = -f[i]
    tab = [rows[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [f[i]]
           for i in range(m)]
    basis = [nvars + i for i in range(m)]
    cost = [Fraction(0)] * nvars + [Fraction(1)] * m + [Fraction(0)]
    for i in range(m):
        for j in range(nvars + m + 1):
            cost[j] -= tab[i][j]
    total = nvars + m
    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            break
        _, piv = best
        pv = tab[piv][enter]
        tab[piv] = [x / pv for x in tab[piv]]
        for i in range(m):
            if i != piv and tab[i][enter] != 0:
                factor = tab[i][enter]
                tab[i] = [x - factor * y for x, y in zip(tab[i], tab[piv])]
        if cost[enter] != 0:
            factor = cost[enter]
            cost = [x - factor * y for x, y in zip(cost, tab[piv])]
        basis[piv] = enter
    if cost[total] != 0:
        return None
    x = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = tab[i][total]
        elif tab[i][total] != 0:
            return None
    return tuple(x)


def assert_same_as_reference(rows, rhs, n):
    got = simplex_feasible(rows, rhs, n)
    assert got == fraction_simplex(rows, rhs, n)
    if got is not None:
        assert all(type(x) is Fraction and x >= 0 for x in got)
        assert all(sum(c * x for c, x in zip(row, got)) == f for row, f in zip(rows, rhs))


@st.composite
def equality_systems(draw):
    """Small systems E x = f mixing random, zero, redundant and conflicting rows."""
    n = draw(st.integers(1, 4))
    rows, rhs = [], []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "random", "zero", "multiple", "sum"]))
        if kind == "random" or not rows:
            rows.append(tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
            rhs.append(draw(st.integers(-6, 6)))
            continue
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        # a nonzero shift turns a redundant row into a conflicting one
        shift = draw(st.sampled_from([0, 0, 0, 1, -2]))
        if kind == "zero":
            rows.append((0,) * n)
            rhs.append(shift)
        elif kind == "multiple":
            k = draw(st.sampled_from([-2, -1, 1, 3]))
            rows.append(tuple(k * c for c in rows[i]))
            rhs.append(k * rhs[i] + shift)
        else:
            rows.append(tuple(a + b for a, b in zip(rows[i], rows[j])))
            rhs.append(rhs[i] + rhs[j] + shift)
    return rows, rhs, n


@settings(max_examples=400, deadline=None)
@given(equality_systems())
def test_simplex_matches_fraction_reference(system):
    assert_same_as_reference(*system)


@pytest.mark.parametrize("label", ["S3", "D1_3"])
def test_simplex_matches_fraction_reference_on_nef_route(label, monkeypatch):
    ws = load_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    lps = []

    def recording(rows, rhs, n):
        lps.append((rows, rhs, n))
        return simplex_feasible(rows, rhs, n)

    monkeypatch.setattr(quiver, "simplex_feasible", recording)
    assert quiver.minkowski_embedding_check(fan, pic, ws.collection_for(label).bundles).ok
    assert lps
    for lp in lps:
        assert_same_as_reference(*lp)


# ------------------------------------------------- the lattice-point engine

BOX = 3


@st.composite
def bounded_systems(draw):
    """Rows and rational right-hand sides inside the box [-BOX, BOX]^n."""
    n = draw(st.integers(1, 3))
    rows, rhs = [], []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        rows += [e, tuple(-x for x in e)]
        rhs += [-BOX, -BOX]
    for _ in range(draw(st.integers(0, 4))):
        rows.append(tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
        rhs.append(Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 4))))
    return rows, rhs, n


def box_points(rows, rhs, n):
    return [p for p in itertools.product(range(-BOX, BOX + 1), repeat=n)
            if all(sum(c * x for c, x in zip(row, p)) >= r for row, r in zip(rows, rhs))]


@settings(max_examples=150, deadline=None)
@given(bounded_systems())
def test_engine_matches_box_enumeration(system):
    rows, rhs, n = system
    engine = ParametricIntegerFeasibility(rows, n)
    brute = box_points(rows, rhs, n)
    assert engine.points(rhs) == brute
    assert engine.points(rhs, first=True) == brute[:1]
    assert engine.query(rhs) == bool(brute)


@settings(max_examples=150, deadline=None)
@given(bounded_systems(), st.data())
def test_engine_prune_hook_matches_box_enumeration(system, data):
    rows, rhs, n = system
    # staircase-style hook: at depth k drop prefixes dominating some f[:k+1]
    stairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1),
                  st.lists(st.integers(-BOX, BOX), min_size=n, max_size=n)),
        max_size=4))

    def dominated(k, x):
        return any(d == k and all(x[j] >= f[j] for j in range(k + 1)) for d, f in stairs)

    kept = [p for p in box_points(rows, rhs, n)
            if not any(dominated(k, p) for k in range(n))]
    engine = ParametricIntegerFeasibility(rows, n)
    assert engine.points(rhs, prune=dominated) == kept
    assert engine.points(rhs, prune=dominated, first=True) == kept[:1]
