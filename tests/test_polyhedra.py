import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsec import quiver
from toricsec.polyhedra import (
    ParametricIntegerFeasibility,
    UnboundedSearch,
    polytope_lattice_points,
    simplex_feasible,
)
from toricsec.workspace import load_workspace


def satisfies(rows, rhs, p):
    return all(sum(c * x for c, x in zip(row, p)) >= r for row, r in zip(rows, rhs))


def grid_scan_oracle(rows, rhs, box):
    """Naive bounding-box scan; the independent oracle for lattice points."""
    return [p for p in itertools.product(*[range(lo, hi + 1) for lo, hi in box])
            if satisfies(rows, rhs, p)]


def box_system(bounds):
    """Rows and right-hand sides of lo <= x_i <= hi."""
    rows, rhs = [], []
    for i, (lo, hi) in enumerate(bounds):
        e = tuple(1 if j == i else 0 for j in range(len(bounds)))
        rows += [e, tuple(-x for x in e)]
        rhs += [lo, -hi]
    return rows, rhs


def engine_points(rows, rhs, n):
    return polytope_lattice_points(ParametricIntegerFeasibility(rows, n), rhs)


def test_unit_segment():
    rows, rhs = box_system([(0, 1)])
    assert engine_points(rows, rhs, 1) == [(0,), (1,)] == grid_scan_oracle(rows, rhs, [(-2, 3)])


def test_scaled_simplex_matches_grid_oracle():
    # 2 * standard 2-simplex: x, y >= 0, x + y <= 2 -> 6 points
    rows, rhs = [(1, 0), (0, 1), (-1, -1)], [0, 0, -2]
    pts = engine_points(rows, rhs, 2)
    assert len(pts) == 6
    assert pts == grid_scan_oracle(rows, rhs, [(-1, 3), (-1, 3)])


@pytest.mark.parametrize("tilt", [0, 1, -2])
def test_random_polytopes_match_grid_oracle(tilt):
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, tilt, 2)]
    rhs = [-2, -2, -2, -4, Fraction(-7, 2)]
    assert engine_points(rows, rhs, 3) == grid_scan_oracle(rows, rhs, [(-3, 9)] * 3)


def test_lattice_points_with_equalities():
    # x + y + z = 2 as a pair of opposite rows, x, y, z >= 0
    rows = [(1, 1, 1), (-1, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rhs = [2, -2, 0, 0, 0]
    pts = engine_points(rows, rhs, 3)
    assert len(pts) == 6
    assert all(sum(x) == 2 and min(x) >= 0 for x in pts)


def test_unbounded_enumeration_rejected():
    engine = ParametricIntegerFeasibility([(1, 0), (0, 1)], 2)
    with pytest.raises(UnboundedSearch):
        polytope_lattice_points(engine, [0, 0])
    with pytest.raises(UnboundedSearch):
        engine.query([0, 0])


def test_integer_feasible_dim0():
    assert ParametricIntegerFeasibility([], 0).points([]) == [()]
    # 0 >= 1 has no point, 0 >= 0 has the empty one
    engine = ParametricIntegerFeasibility([()], 0)
    for rhs in ([0], [1]):
        assert engine.points(rhs) == grid_scan_oracle([()], rhs, [])
    assert not engine.query([1])


def test_integer_feasible_2x_eq_1():
    rows, rhs = [(2,), (-2,)], [1, -1]
    assert not ParametricIntegerFeasibility(rows, 1).query(rhs)
    assert grid_scan_oracle(rows, rhs, [(-3, 3)]) == []


def test_integer_feasible_cone_membership():
    # the H^4-cone system of the paper's worked fourfold at a fixed point
    a1, a2, a3 = 40, -7, 0
    assert a1 + 6 * a2 + a3 <= -2
    assert a2 + a3 <= -7
    assert a3 <= 1
    rows, rhs = [(-1, -6, -1), (0, -1, -1), (0, 0, -1)], [2, 7, -1]
    for point, inside in (((a1, a2, a3), True), ((a1, a2 + 1, a3), False)):
        box_rows, box_rhs = box_system([(x, x) for x in point])
        engine = ParametricIntegerFeasibility(rows + box_rows, 3)
        assert engine.query(rhs + box_rhs) == inside


def test_integer_feasible_unbounded_strip():
    # strip with no lattice points: 3x <= 3y + 1, 3x >= 3y + 1/2
    rows, rhs = [(-3, 3), (3, -3)], [-1, Fraction(1, 2)]
    box_rows, box_rhs = box_system([(-5, 5), (-5, 5)])
    assert not ParametricIntegerFeasibility(rows + box_rows, 2).query(rhs + box_rhs)
    assert grid_scan_oracle(rows, rhs, [(-5, 5), (-5, 5)]) == []
    # unbounded, the search has nothing to bound x with
    with pytest.raises(UnboundedSearch):
        ParametricIntegerFeasibility(rows, 2).query(rhs)


def test_integer_feasible_unbounded_with_point():
    rows, rhs = [(1, 0)], [3]   # x >= 3, y free
    with pytest.raises(UnboundedSearch):
        ParametricIntegerFeasibility(rows, 2).query(rhs)
    box_rows, box_rhs = box_system([(-9, 9), (-2, 2)])
    got = ParametricIntegerFeasibility(rows + box_rows, 2).points(rhs + box_rhs, first=True)
    assert got == [(3, -2)]


def test_integer_feasible_witness_valid():
    # x + 2y + 3z = 7, x, y, z >= 0
    rows = [(1, 2, 3), (-1, -2, -3), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rhs = [7, -7, 0, 0, 0]
    got = ParametricIntegerFeasibility(rows, 3).points(rhs, first=True)
    assert len(got) == 1 and satisfies(rows, rhs, got[0])
    assert got == grid_scan_oracle(rows, rhs, [(0, 7)] * 3)[:1]


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
    return grid_scan_oracle(rows, rhs, [(-BOX, BOX)] * n)


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
