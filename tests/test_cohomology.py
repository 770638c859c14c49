import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricsec import cohomology
from toricsec.cohomology import (
    BoxTooSmall,
    ChainConeSystem,
    FanNotComplete,
    ForbiddenSet,
    cohomology_dims,
    cohomology_dims_oracle,
    fiber_feasible,
    fiber_refuters,
    fiber_rhs,
    fiber_tower,
    forbidden_sets,
    has_higher_cohomology,
    higher_cohomology_witnesses,
    is_effective,
    strong_exceptional_along_chain,
    strong_exceptional_check,
    subcomplex_betti,
)
from toricsec.cli import main
from toricsec.fans import PicRankError, deg_and_pic, star_subdivision
from toricsec.intlin import det, identity, primitive, rank, vec_gcd
from toricsec.polyhedra import ParametricIntegerFeasibility, eliminate_last, fourier_motzkin
from toricsec.workspace import load_workspace

from conftest import level0_pullback, make_fan, refuted, spy, total_space_fan

E1_FORBIDDEN = {
    1: [{0, 4}, {4, 5}, {0, 4, 5}, {0, 6}, {0, 4, 6}],
    3: [{1, 2, 3, 5}, {1, 2, 3, 4, 5}, {1, 2, 3, 6}, {0, 1, 2, 3, 6}, {1, 2, 3, 5, 6}],
    4: [{0, 1, 2, 3, 4, 5, 6}],
}

B1_FORBIDDEN = {
    1: [{0, 4}],
    3: [{1, 2, 3, 5}],
    4: [{0, 1, 2, 3, 4, 5}],
}


def by_degree(fan):
    table = {}
    for fs in forbidden_sets(fan):
        for i in fs.degrees:
            table.setdefault(i, []).append(set(fs.ray_indices))
    return table


def test_forbidden_sets_p1():
    fan = make_fan("P1")
    table = by_degree(fan)
    assert table == {1: [{0, 1}]}


def test_forbidden_sets_e1_match_paper_tables():
    table = by_degree(make_fan("E1"))
    assert sorted(map(sorted, table[1])) == sorted(map(sorted, E1_FORBIDDEN[1]))
    assert 2 not in table
    assert sorted(map(sorted, table[3])) == sorted(map(sorted, E1_FORBIDDEN[3]))
    assert sorted(map(sorted, table[4])) == sorted(map(sorted, E1_FORBIDDEN[4]))


def test_forbidden_sets_b1_match_paper_tables():
    table = by_degree(make_fan("B1"))
    assert sorted(map(sorted, table[1])) == sorted(map(sorted, B1_FORBIDDEN[1]))
    assert sorted(map(sorted, table[3])) == sorted(map(sorted, B1_FORBIDDEN[3]))
    assert sorted(map(sorted, table[4])) == sorted(map(sorted, B1_FORBIDDEN[4]))


@st.composite
def blown_up_classes(draw):
    """A class on one or two star subdivisions of P3 or P4 at random faces."""
    fan = make_fan(draw(st.sampled_from(["P3", "P4"])))
    for _ in range(draw(st.integers(1, 2))):
        cone = draw(st.sampled_from(fan.max_cones))
        face = draw(st.lists(st.sampled_from(cone), min_size=2, max_size=len(cone), unique=True))
        fan, _ = star_subdivision(fan, face)
    pic = deg_and_pic(fan)
    cls = tuple(draw(st.lists(st.integers(-3, 2), min_size=pic.rank, max_size=pic.rank)))
    return fan, pic, cls


@lru_cache(maxsize=None)
def reference_faces(fan):
    return frozenset(frozenset(s) for c in fan.max_cones
                     for k in range(1, len(c) + 1) for s in itertools.combinations(c, k))


@lru_cache(maxsize=None)
def reference_betti(fan, subset):
    """The former subcomplex_betti, kept as the reference: the faces as
    frozensets, those inside subset by dimension, and dense boundary
    matrices ranked over Q."""
    by_dim = {}
    for f in reference_faces(fan):
        if f <= subset:
            by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    ranks = [1]  # the augmentation onto the empty face, on a nonempty complex
    for k in range(1, len(by_dim)):
        index = {f: i for i, f in enumerate(by_dim[k - 1])}
        rows = [[0] * len(index) for _ in by_dim[k]]
        for row, f in zip(rows, by_dim[k]):
            for j in range(len(f)):
                row[index[f[:j] + f[j + 1:]]] = (-1) ** j
        ranks.append(rank(rows))
    ranks.append(0)
    betti = [len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(len(by_dim))]
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def ray_subsets(fan):
    """Every ray subset, the empty one first."""
    return [frozenset(i for i in range(fan.n_rays) if bits >> i & 1)
            for bits in range(1 << fan.n_rays)]


def full_scan_forbidden_sets(fan):
    """Reference: the reduced Betti numbers of every nonempty ray subset,
    by reference_betti."""
    out = []
    for subset in ray_subsets(fan)[1:]:
        degrees = tuple(j + 1 for j, b in enumerate(reference_betti(fan, subset)) if b)
        if degrees:
            out.append(ForbiddenSet(subset, degrees))
    out.sort(key=lambda f: (min(f.degrees), len(f.ray_indices), tuple(sorted(f.ray_indices))))
    return tuple(out)


def test_forbidden_sets_match_the_full_scan_on_every_bundled_fan(fans):
    for label, fan in fans.items():
        assert forbidden_sets(fan) == full_scan_forbidden_sets(fan), label


@settings(max_examples=25, deadline=None)
@given(blown_up_classes())
def test_forbidden_sets_match_the_full_scan_on_random_blowups(case):
    fan = case[0]
    assert forbidden_sets(fan) == full_scan_forbidden_sets(fan), (fan.rays, fan.max_cones)


def assert_betti_match_the_reference(fan):
    kinds = set()
    for subset in ray_subsets(fan):
        betti = subcomplex_betti(fan, subset)
        assert betti == reference_betti(fan, subset), (fan.rays, sorted(subset))
        kinds.add(len(betti))
    return kinds


def test_subcomplex_betti_match_the_reference_on_every_bundled_fan(fans):
    # every ray subset, the empty one and the full sphere among them
    kinds = set()
    for fan in fans.values():
        kinds |= assert_betti_match_the_reference(fan)
    assert kinds == {0, 1, 2, 3, 4}


@settings(max_examples=15, deadline=None)
@given(blown_up_classes())
def test_subcomplex_betti_match_the_reference_on_random_blowups(case):
    assert_betti_match_the_reference(case[0])


def test_forbidden_sets_reject_an_incomplete_fan():
    with pytest.raises(FanNotComplete, match="not complete"):
        forbidden_sets(total_space_fan(make_fan("P2"))[0])


def test_dual_forbidden_e1():
    sets = {fs.ray_indices: fs.degrees for fs in forbidden_sets(make_fan("E1"))}
    assert sets[frozenset({0, 4})] == (1,)
    assert sets[frozenset({1, 2, 3, 5, 6})] == (3,)


def test_dual_forbidden_p1xp1():
    sets = {fs.ray_indices: fs.degrees for fs in forbidden_sets(make_fan("P1xP1"))}
    assert sets[frozenset({0, 2})] == sets[frozenset({1, 3})] == (1,)


def test_blowup_forbidden_monotonicity_e1_b1():
    e1 = {fs.ray_indices for fs in forbidden_sets(make_fan("E1"))}
    for fs in forbidden_sets(make_fan("B1")):
        s = fs.ray_indices
        assert s in e1 or (s | {6}) in e1


def test_blowup_forbidden_monotonicity_random_threefolds():
    import random
    rng = random.Random(11)
    for label in ("P3", "B1_3"):
        fan = make_fan(label)
        cone = rng.choice(fan.max_cones)
        σ = tuple(sorted(rng.sample(cone, 2)))
        sub, _ = star_subdivision(fan, σ)
        x = sub.n_rays - 1
        subs = {fs.ray_indices for fs in forbidden_sets(sub)}
        for fs in forbidden_sets(fan):
            s = fs.ray_indices
            assert s in subs or (s | {x}) in subs


def test_structure_sheaf_no_higher_cohomology(fans):
    for label, fan in fans.items():
        pic = deg_and_pic(fan)
        bad, _ = has_higher_cohomology(fan, pic, (0,) * pic.rank)
        assert not bad, label


def test_p2_minus_3h_has_higher_cohomology():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    bad, fs = has_higher_cohomology(fan, pic, (-3,))
    assert bad and fs.ray_indices == frozenset({0, 1, 2})


def test_e1_example_class_lies_in_a_cone():
    fan = make_fan("E1")
    pic = deg_and_pic(fan, (4, 5, 6))
    bad, _ = has_higher_cohomology(fan, pic, (-2, -7, 1))
    assert bad


def test_oracle_o_on_p2():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    assert cohomology_dims(fan, pic, (0,)) == (1, 0, 0)


def test_oracle_minus3_on_p2_serre_duality():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    assert cohomology_dims(fan, pic, (-3,)) == (0, 0, 1)


def test_oracle_o1_on_p1():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    assert cohomology_dims(fan, pic, (1,)) == (2, 0)


@pytest.mark.parametrize("label", ["P2", "P1xP1", "S1", "S2", "S3"])
def test_cone_method_agrees_with_oracle_radius2(label):
    # radius-4 exhaustion lives in the acceptance suite; radius 2 here
    fan = make_fan(label)
    pic = deg_and_pic(fan)
    for cls in itertools.product(range(-2, 3), repeat=pic.rank):
        dims = cohomology_dims(fan, pic, cls)
        bad, _ = has_higher_cohomology(fan, pic, cls)
        assert bad == any(d != 0 for d in dims[1:]), (label, cls, dims)


@settings(max_examples=12, deadline=None)
@given(blown_up_classes())
def test_cone_method_agrees_with_oracle_on_random_blowups(case):
    fan, pic, cls = case
    try:
        dims = cohomology_dims(fan, pic, cls)
    except BoxTooSmall:
        assume(False)
    bad, _ = has_higher_cohomology(fan, pic, cls)
    assert bad == any(d != 0 for d in dims[1:]), (fan.rays, fan.max_cones, cls, dims)


@lru_cache(maxsize=None)
def bundled_workspace():
    return load_workspace()


@lru_cache(maxsize=None)
def ray_adjugates(fan):
    """(S, adj A_S, det A_S) for each n-subset S of linearly independent rays,
    A_S the matrix of their rows: A_S m = b solves to m = adj A_S b / det A_S."""
    n = fan.dim
    out = []
    for S in itertools.combinations(range(fan.n_rays), n):
        A = [fan.rays[ρ] for ρ in S]
        d = det(A)
        if d:
            adj = [[(-1) ** (i + j) * det([row[:i] + row[i + 1:]
                                           for k, row in enumerate(A) if k != j])
                    for j in range(n)] for i in range(n)]
            out.append((S, adj, d))
    return tuple(out)


def fiber_box(fan, pic, cls):
    """A box of characters m that holds every bounded fiber of cls.

    The fiber of neg is cut out by <m, u_rho> <= -1 - a_rho on neg and >=
    -a_rho off it.  A bounded one lies in the hull of the vertices of its
    real relaxation, and each vertex is where n independent hyperplanes
    <m, u_rho> = -a_rho or -1 - a_rho meet; the box holds all of those.
    """
    a = pic.lift(cls)
    lo, hi = [0] * fan.dim, [0] * fan.dim
    for S, adj, d in ray_adjugates(fan):
        for shifts in itertools.product((0, -1), repeat=fan.dim):
            b = [t - a[ρ] for ρ, t in zip(S, shifts)]
            for i, row in enumerate(adj):
                num = sum(map(mul, row, b))
                lo[i] = min(lo[i], num // d)
                hi[i] = max(hi[i], -(-num // d))
    return list(zip(lo, hi))


def scanned_supports(fan, pic, cls):
    """Brute force: the ray masks {rho : <m, u_rho> + a_rho < 0} over the
    characters m of fiber_box, with no elimination and no search tower.

    The box is scanned one line of its longest side at a time.  Along a
    line each ray's value is monotone, so its sign flips at most once: the
    mask is read at the line's first point and updated at each flip.
    """
    a = pic.lift(cls)
    box = fiber_box(fan, pic, cls)
    line = max(range(fan.dim), key=lambda i: box[i][1] - box[i][0])
    (lo, hi), head = box[line], box[:line] + box[line + 1:]
    rest = [u[:line] + u[line + 1:] for u in fan.rays]
    slopes = [u[line] for u in fan.rays]
    seen = set()
    for m in itertools.product(*(range(l, h + 1) for l, h in head)):
        start = [sum(map(mul, m, u)) + a_ρ + c * lo for u, a_ρ, c in zip(rest, a, slopes)]
        mask = sum(1 << ρ for ρ, x in enumerate(start) if x < 0)
        seen.add(mask)
        flips = {}  # steps k along the line -> rays whose sign flips there
        for ρ, (x, c) in enumerate(zip(start, slopes)):
            if x < 0 < c:
                k = -(x // c)  # the first k with x + c k >= 0
            elif c < 0 <= x:
                k = x // -c + 1  # the first k with x + c k < 0
            else:
                continue
            if k <= hi - lo:
                flips[k] = flips.get(k, 0) | 1 << ρ
        for k in sorted(flips):
            mask ^= flips[k]
            seen.add(mask)
    return seen


@st.composite
def classes_on_every_fan(draw):
    ws = bundled_workspace()
    label = draw(st.sampled_from(sorted(ws.fans)))
    rank = ws.pic(label).rank
    return label, tuple(draw(st.lists(st.integers(-6, 6), min_size=rank, max_size=rank)))


@settings(max_examples=150, deadline=None)
@given(classes_on_every_fan())
def test_refuted_fibers_match_the_searched_ones(query):
    label, cls = query
    ws = bundled_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    supports = scanned_supports(fan, pic, cls)
    expected_hit = None
    for neg in [frozenset()] + [fs.ray_indices for fs in forbidden_sets(fan)]:
        expected = sum(1 << ρ for ρ in neg) in supports
        assert fiber_feasible(pic, cls, neg) == expected, (label, cls, sorted(neg))
        if expected:
            # no pulled-back row fires on a fiber the scan finds nonempty
            assert all(sum(a * b for a, b in zip(L, cls)) + c <= 0
                       for L, c in fiber_refuters(pic, neg))
            if neg and expected_hit is None:
                expected_hit = neg
    bad, fs = has_higher_cohomology(fan, pic, cls)
    assert bad == (expected_hit is not None)
    assert (fs.ray_indices if bad else None) == expected_hit


def test_higher_cohomology_refutes_each_forbidden_fiber_once(monkeypatch):
    # _refuted_mask has read the level-0 rows; each fiber it leaves is searched
    # once, straight away, with no second test through fiber_feasible
    ws = load_workspace()
    fan, pic = ws.fan("D1_3"), ws.pic("D1_3")

    def refuted_again(*args):
        raise AssertionError("a fiber was refuted twice")

    searches = []
    points = ParametricIntegerFeasibility.points

    def counting(self, *args, **kwargs):
        searches.append(args)
        return points(self, *args, **kwargs)

    monkeypatch.setattr(cohomology, "fiber_feasible", refuted_again)
    monkeypatch.setattr(ParametricIntegerFeasibility, "points", counting)
    bad, fs = has_higher_cohomology(fan, pic, (2, 1, -3))
    assert bad and fs == forbidden_sets(fan)[6]
    assert len(searches) == 1
    assert has_higher_cohomology(fan, pic, (0, 0, 0)) == (False, None)
    assert len(searches) == 1 + len(scanned_unrefuted(fan, pic, (0, 0, 0)))


def scanned_unrefuted(fan, pic, cls):
    """The former screen, kept as the reference: every forbidden set in
    order, less those one of whose own rows fires at cls."""
    return [fs for fs in forbidden_sets(fan)
            if all(sum(map(mul, L, cls)) + c <= 0
                   for L, c in fiber_refuters(pic, fs.ray_indices))]


def screened_unrefuted(fan, pic, cls):
    """The sets the refuter screen leaves at cls, in order."""
    screen, sets = cohomology._forbidden_refuters(fan, pic)
    refuted = cohomology._refuted_mask(screen, cls)
    return [fs for k, fs in enumerate(sets) if not refuted >> k & 1]


def extended_gcd(a, b):
    """(d, s, t) with s*a + t*b = d = gcd(a, b) >= 0."""
    if b == 0:
        return abs(a), 1 if a >= 0 else -1, 0
    d, s, t = extended_gcd(b, a % b)
    return d, t, s - (a // b) * t


def class_on_threshold(L, tau, rng):
    """A class with L . cls = tau exactly, moved along ker L at random, or
    None when gcd(L) does not divide tau."""
    g, x = 0, [0] * len(L)
    for i, a in enumerate(L):
        g, s, t = extended_gcd(g, a)
        x = [s * v for v in x]
        x[i] = t
    if not g or tau % g:
        return None
    cls = [tau // g * v for v in x]
    for i, j in itertools.combinations(range(len(L)), 2):
        k = rng.randint(-2, 2)
        cls[i] += k * L[j]
        cls[j] -= k * L[i]
    assert sum(map(mul, L, cls)) == tau
    return tuple(cls)


def test_refuter_screen_matches_the_per_set_scan_on_every_bundled_fan():
    # seeded classes, and for each refuter row a class on its firing
    # threshold L . cls = -c, where that row must not fire
    ws = bundled_workspace()
    rng = random.Random(0)
    for label in sorted(ws.fans):
        fan, pic = ws.fan(label), ws.pic(label)
        classes = [tuple(rng.randint(-4, 4) for _ in range(pic.rank)) for _ in range(150)]
        rows = {row for fs in forbidden_sets(fan) for row in fiber_refuters(pic, fs.ray_indices)}
        on_threshold = [class_on_threshold(L, -c, rng) for L, c in sorted(rows)]
        on_threshold = [cls for cls in on_threshold if cls is not None]
        assert len(on_threshold) * 2 > len(rows), label
        for cls in classes + on_threshold:
            assert screened_unrefuted(fan, pic, cls) == \
                scanned_unrefuted(fan, pic, cls), (label, cls)


def test_batched_screen_matches_the_single_class_screen_on_every_bundled_fan():
    # one _refuted_masks call per fan, over seeded classes and a class on
    # each refuter row's firing threshold, against _refuted_mask class by class
    ws = bundled_workspace()
    rng = random.Random(1)
    kinds = set()
    for label in sorted(ws.fans):
        fan, pic = ws.fan(label), ws.pic(label)
        screen, sets = cohomology._forbidden_refuters(fan, pic)
        rows = sorted({row for fs in sets for row in fiber_refuters(pic, fs.ray_indices)})
        on_threshold = [class_on_threshold(L, -c, rng) for L, c in rows]
        classes = [tuple(rng.randint(-4, 4) for _ in range(pic.rank)) for _ in range(150)]
        classes += [cls for cls in on_threshold if cls is not None]
        expected = [cohomology._refuted_mask(screen, cls) for cls in classes]
        assert cohomology._refuted_masks(screen, classes) == expected, label
        kinds.update(mask == (1 << len(sets)) - 1 for mask in expected)
    assert kinds == {False, True}
    assert cohomology._refuted_masks(screen, []) == []


def test_higher_cohomology_witnesses_match_the_single_class_answer():
    # seeded classes on every bundled fan, screened-out and searched ones
    ws = bundled_workspace()
    rng = random.Random(2)
    hits = set()
    for label in sorted(ws.fans):
        fan, pic = ws.fan(label), ws.pic(label)
        classes = list(dict.fromkeys(tuple(rng.randint(-4, 4) for _ in range(pic.rank))
                                     for _ in range(40)))
        witnesses = higher_cohomology_witnesses(fan, pic, classes)
        assert list(witnesses) == classes, label
        for cls in classes:
            bad, fs = has_higher_cohomology(fan, pic, cls)
            assert witnesses[cls] == fs, (label, cls)
            hits.add(bad)
    assert hits == {False, True}


def test_higher_cohomology_witnesses_check_the_classes_first(monkeypatch):
    # an empty list asks nothing of the fan; a bad class is rejected
    # before the screen, whatever it would decide
    ws = load_workspace()
    fan, pic = ws.fan("P1xP1"), ws.pic("P1xP1")
    screens = spy(monkeypatch, cohomology, "_forbidden_refuters")
    assert higher_cohomology_witnesses(fan, pic, []) == {}
    with pytest.raises(ValueError, match="not an integer"):
        higher_cohomology_witnesses(fan, pic, [(0, 0), (Fraction(1, 2), 0)])
    with pytest.raises(PicRankError):
        higher_cohomology_witnesses(fan, pic, [(0, 0), (0, 0, 0)])
    assert screens == []


def tower_pullback(pic, neg):
    """Reference: neg's own tower's level-0 rows pulled back through
    fiber_rhs, whose matrix and offset are read off fiber_rhs itself."""
    tower = fiber_tower(pic, neg)
    offset = fiber_rhs(pic, (0,) * pic.rank, neg)
    columns = [[x - y for x, y in zip(fiber_rhs(pic, e, neg), offset)]
               for e in identity(pic.rank)]
    multipliers = [mult for _, mult in fourier_motzkin(tower.base_rows, tower.nvars)[0]]
    return dict(level0_pullback(multipliers, list(zip(*columns)), offset))


def assert_refuters_match_the_towers(fan, pic, rng):
    """Every circuit row is a row of the tower's own pullback, and the two
    row sets refute the same classes: seeded ones and one on each tower
    row's firing threshold.  Returns how many sets have tower rows that
    no circuit gives (non-extreme multipliers)."""
    full = frozenset(range(fan.n_rays))
    sets = [frozenset()] + [fs.ray_indices for fs in forbidden_sets(fan)]
    wider = 0
    for neg in sets:
        # forbidden sets come in complementary pairs, and the empty set
        # pairs with the full one
        assert full - neg in sets
        rows = fiber_refuters(pic, neg)
        tower = tower_pullback(pic, neg)
        assert len(dict(rows)) == len(rows), sorted(neg)
        assert set(rows) <= set(tower.items()), sorted(neg)
        wider += len(tower) > len(rows)
        classes = [tuple(rng.randint(-4, 4) for _ in range(pic.rank)) for _ in range(30)]
        on_threshold = [class_on_threshold(L, -c, rng) for L, c in sorted(tower.items())]
        classes += [cls for cls in on_threshold if cls is not None]
        for cls in classes:
            assert refuted(rows, cls) == refuted(tower.items(), cls), \
                (sorted(neg), cls)
    return wider


def test_fiber_refuters_match_the_tower_pullback_on_every_bundled_fan():
    ws = bundled_workspace()
    rng = random.Random(3)
    wider = {label: assert_refuters_match_the_towers(ws.fan(label), ws.pic(label), rng)
             for label in sorted(ws.fans)}
    # the towers also keep non-extreme multipliers, whose rows the circuits imply
    assert {label for label, n in wider.items() if n} >= {"I1", "J1", "R3", "S3"}


@settings(max_examples=10, deadline=None)
@given(blown_up_classes(), st.randoms(use_true_random=False))
def test_fiber_refuters_match_the_tower_pullback_on_random_blowups(case, rng):
    fan, pic, _ = case
    assert_refuters_match_the_towers(fan, pic, rng)


def test_fiber_refuters_take_any_iterable_of_rays():
    pic = bundled_workspace().pic("E1")
    for rays in ([0], [0, 4], [1, 2, 3, 5, 6]):
        expected = fiber_refuters(pic, frozenset(rays))
        assert expected, rays
        for neg in (set(rays), list(reversed(rays)), tuple(rays + rays), iter(rays)):
            assert fiber_refuters(pic, neg) == expected, (rays, neg)


def test_fiber_tower_and_betti_take_any_iterable_of_rays():
    ws = bundled_workspace()
    fan, pic = ws.fan("E1"), ws.pic("E1")
    forms = (set, list, tuple, frozenset, lambda rays: (ρ for ρ in reversed(rays)))
    for rays in ([0], [0, 4], [1, 2, 3, 5, 6]):
        tower = fiber_tower(pic, frozenset(rays))
        betti = subcomplex_betti(fan, frozenset(rays))
        for form in forms:
            assert fiber_tower(pic, form(rays)).base_rows == tower.base_rows, (rays, form)
            assert subcomplex_betti(fan, form(rays)) == betti, (rays, form)
    assert subcomplex_betti(fan, {0, 4}) == (1,)
    assert fiber_tower(pic, ()).base_rows != fiber_tower(pic, {0}).base_rows


def rational_kernel(columns):
    """A basis of {c : sum c_i columns[i] = 0} over Q, by row reduction."""
    rows = [[Fraction(x) for x in row] for row in zip(*columns)]
    pivots, r = [], 0
    for j in range(len(columns)):
        p = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][j] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                rows[i] = [x - rows[i][j] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
    basis = []
    for j in (j for j in range(len(columns)) if j not in pivots):
        c = [Fraction(0)] * len(columns)
        c[j] = Fraction(1)
        for i, p in enumerate(pivots):
            c[p] = -rows[i][j]
        basis.append(c)
    return basis


def brute_force_circuits(fan):
    """Reference: the integer relations sum z_rho u_rho = 0 of minimal
    support, both signs.  A support S of at most n + 1 rays carries one
    exactly when the rays of S have a one-dimensional kernel whose
    generator is nonzero on all of S."""
    found = set()
    for k in range(1, fan.dim + 2):
        for support in itertools.combinations(range(fan.n_rays), k):
            kernel = rational_kernel([fan.rays[ρ] for ρ in support])
            if len(kernel) == 1 and all(kernel[0]):
                scale = math.lcm(*(x.denominator for x in kernel[0]))
                z = [0] * fan.n_rays
                for ρ, x in zip(support, kernel[0]):
                    z[ρ] = int(x * scale)
                z = primitive(z)
                found |= {z, tuple(-x for x in z)}
    return found


def assert_circuits_match_the_brute_force(fan, pic):
    circuits = cohomology._circuits(pic)
    assert len({z for z, _, _ in circuits}) == len(circuits)
    assert {z for z, _, _ in circuits} == brute_force_circuits(fan), fan.rays
    for z, below, above in circuits:
        assert below == sum(1 << ρ for ρ, x in enumerate(z) if x < 0)
        assert above == sum(1 << ρ for ρ, x in enumerate(z) if x > 0)
    # every L carries exactly one threshold, over all forbidden sets, and
    # the screen holds one entry per pair +-L
    rows = {row for fs in forbidden_sets(fan) for row in fiber_refuters(pic, fs.ray_indices)}
    assert len({L for L, _ in rows}) == len(rows)
    screen, _ = cohomology._forbidden_refuters(fan, pic)
    signed = {L for L, *_ in screen} | {tuple(-x for x in L) for L, *_ in screen}
    assert len(signed) == 2 * len(screen)
    assert {L for L, _ in rows} <= signed


def test_circuits_match_the_brute_force_on_every_bundled_fan():
    ws = bundled_workspace()
    for label in sorted(ws.fans):
        assert_circuits_match_the_brute_force(ws.fan(label), ws.pic(label))


@settings(max_examples=15, deadline=None)
@given(blown_up_classes())
def test_circuits_match_the_brute_force_on_random_blowups(case):
    fan, pic, _ = case
    assert_circuits_match_the_brute_force(fan, pic)


def test_strong_exceptional_check_asks_each_class_once(monkeypatch):
    ws = bundled_workspace()
    node = ws.poset.nodes["E1"]
    ext = spy(monkeypatch, cohomology, "has_higher_cohomology")
    hom = spy(monkeypatch, cohomology, "is_effective")
    assert strong_exceptional_check(node.fan, node.pic, node.bundles).ok
    diffs = sorted({tuple(b - a for a, b in zip(x, y))
                    for x in node.bundles for y in node.bundles if x != y})
    assert len(diffs) == 44     # of 110 ordered pairs
    assert sorted(args[-1] for args in ext) == diffs
    assert sorted(args[-1] for args in hom) == diffs


def test_chain_check_asks_each_image_once_per_level(monkeypatch):
    ws = bundled_workspace()
    chain = ws.poset.chain("S3", "P2")
    asked = spy(monkeypatch, cohomology, "has_higher_cohomology")
    assert strong_exceptional_along_chain(chain, ws.poset.nodes["S3"].bundles).ok
    questions = [(fan.rays, cls) for fan, _, cls in asked]
    assert len(questions) == len(set(questions))
    assert len({rays for rays, _ in questions}) == len(chain) + 1


def test_non_integer_classes_are_rejected():
    fan = make_fan("E1")
    pic = deg_and_pic(fan, (4, 5, 6))
    for cls in ((Fraction(1, 2), 0, 0), (0.5, 0, 0)):
        with pytest.raises(ValueError, match="not an integer"):
            has_higher_cohomology(fan, pic, cls)
        for neg in (frozenset(), frozenset({0, 4})):
            with pytest.raises(ValueError, match="not an integer"):
                fiber_feasible(pic, cls, neg)
    result = CliRunner().invoke(main, ["cohomology", "E1", "--", "1/2,0,0"])
    assert result.exit_code == 2
    assert "status=fail" in result.output


def test_effectivity_predicate():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    assert is_effective(pic, (2,))
    assert not is_effective(pic, (-1,))


def test_strong_exceptional_single_bundle():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    assert strong_exceptional_check(fan, pic, [(0,)]).ok


def test_strong_exceptional_beilinson_ordering():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    v = strong_exceptional_check(fan, pic, [(0,), (-1,)])
    assert v.ok
    assert v.ordering == (1, 0)  # O(-1) before O


def test_strong_exceptional_e1_eleven_bundles():
    fan = make_fan("E1")
    pic = deg_and_pic(fan, (4, 5, 6))
    bundles = [(0, i, i) for i in range(4)] + [(1, i, i) for i in range(4)] \
        + [(1, j, j + 1) for j in range(3)]
    v = strong_exceptional_check(fan, pic, bundles)
    assert v.ok


def test_strong_exceptional_detects_failure():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    v = strong_exceptional_check(fan, pic, [(0,), (-3,)])
    assert not v.ok and v.witness_pair is not None


def test_hom_digraph_of_distinct_classes_is_acyclic():
    # effective differences around a cycle would sum to a nonzero effective
    # divisor of class 0, which no complete variety has; strong_exceptional_check
    # relies on this for its Hom order
    ws = load_workspace()
    rng = random.Random(12)
    for label in sorted(ws.fans):
        pic = ws.pic(label)
        for _ in range(60):
            size = rng.randint(2, 5)
            classes = set()
            while len(classes) < size:
                classes.add(tuple(rng.randint(-3, 3) for _ in range(pic.rank)))
            edges = {(s, t) for s in classes for t in classes if s != t and
                     is_effective(pic, tuple(b - a for a, b in zip(s, t)))}
            remaining = set(classes)
            while remaining:
                sources = {v for v in remaining
                           if not any((u, v) in edges for u in remaining)}
                assert sources, (label, sorted(remaining))
                remaining -= sources


def test_dual_collection_symmetry():
    fan = make_fan("S2")
    pic = deg_and_pic(fan)
    bundles = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)]
    fwd = strong_exceptional_check(fan, pic, bundles)
    dual = strong_exceptional_check(fan, pic, [tuple(-x for x in b) for b in bundles])
    assert fwd.ok == dual.ok


def e1_to_b1_chain():
    b1 = make_fan("B1")
    e1, step = star_subdivision(b1, (4, 5))
    return [step]


def test_chain_identity_matches_plain_check():
    from toricsec.fans import contraction_step
    fan = make_fan("P2")
    step = contraction_step(fan, fan, None)
    bundles = [(0,), (1,), (2,)]
    chain_v = strong_exceptional_along_chain([step], bundles)
    plain = strong_exceptional_check(fan, step.source_pic, bundles)
    assert chain_v.ok == plain.ok


def test_e1_collection_pushes_to_b1():
    chain = e1_to_b1_chain()
    pic = chain[0].source_pic
    # the 11-bundle collection in the subdivision's default basis
    paper_pic = deg_and_pic(chain[0].source, (4, 5, 6))
    bundles = [(0, i, i) for i in range(4)] + [(1, i, i) for i in range(4)] \
        + [(1, j, j + 1) for j in range(3)]
    # convert coordinates from {D4,D5,D6} to the chain basis
    divisors = [paper_pic.lift(b) for b in bundles]
    conv = [pic.deg_of(x) for x in divisors]
    verdict = strong_exceptional_along_chain(chain, conv)
    assert verdict.ok
    level1 = verdict.per_level[1]
    assert len(level1[1]) == 8  # dedup to rank K0(B1)


def test_chain_preimage_halfspaces_drop_exceptional_coordinate():
    chain = e1_to_b1_chain()
    system = ChainConeSystem.from_chain(chain)
    fan_b1 = chain[0].target
    top = next(fs for fs in forbidden_sets(fan_b1)
               if fs.ray_indices == frozenset(range(6)))
    half = system.preimage_halfspaces(1, top)
    assert half  # sanity: some constraints survive
    # membership through the halfspaces agrees with the fiber test on a grid
    for v in itertools.product(range(-9, 3), repeat=3):
        by_fiber = system.member(v, 1, top)
        by_half = all(sum(c * x for c, x in zip(coeffs, v)) >= rhs
                      for coeffs, rhs in half)
        assert by_fiber == by_half, v


CHAINS = (("E1", "B1"), ("S3", "S1"), ("S3", "P2"), ("D1_3", "B1_3"))


@lru_cache(maxsize=None)
def eliminated_fiber_rows(pic, neg):
    """The projection of {x >= 0 off neg, -x >= 1 on neg, deg x = c} onto
    the class c by eliminating the ray exponents x, as rows coeffs . c >=
    rhs: per distinct coeffs, the largest rhs (it implies the others)."""
    d, r = pic.n_rays, pic.rank
    rows, b = [], []
    for ρ in range(d):
        rows.append((0,) * (r + ρ) + (-1 if ρ in neg else 1,) + (0,) * (d - 1 - ρ))
        b.append(1 if ρ in neg else 0)
    for i in range(r):
        row = tuple(-1 if j == i else 0 for j in range(r)) + tuple(pic.deg[i])
        rows += [row, tuple(-x for x in row)]
        b += [0, 0]
    level = list(zip(rows, identity(len(rows))))
    for nv in range(r + d, r, -1):
        level = eliminate_last(level, nv)
    best = {}
    for coeffs, mult in level:
        rhs = sum(m * bi for m, bi in zip(mult, b))
        if coeffs not in best or rhs > best[coeffs]:
            best[coeffs] = rhs
    return best


def reference_preimage_halfspaces(system, k, fs):
    """The former preimage, kept as the reference: eliminate the ray
    exponents x with the class c as variables, then substitute c =
    gamma_k v."""
    _, pic = system.level_fan_pic(k)
    gamma = system.gammas[k]
    best = {}
    for coeffs, b in eliminated_fiber_rows(pic, fs.ray_indices).items():
        pulled = tuple(sum(coeffs[i] * gamma[i][j] for i in range(pic.rank))
                       for j in range(len(gamma[0])))
        g = vec_gcd(pulled) or 1
        key = tuple(x // g for x in pulled)
        rhs = Fraction(b, g)
        if key not in best or rhs > best[key]:
            best[key] = rhs
    return [(c, rhs) for c, rhs in best.items() if any(c) or rhs > 0]


def grid_members(halfspaces, side, r, masks):
    """The points v of side^r with c . v >= rhs for every halfspace (c, rhs),
    as a bitmask in itertools.product order; masks caches each halfspace's."""
    members = (1 << len(side) ** r) - 1
    for c, rhs in halfspaces:
        t = math.ceil(rhs)  # c . v is an integer
        if (c, t) not in masks:
            dots = [0]
            for ci in c:
                dots = [d + ci * x for d in dots for x in side]
            masks[c, t] = int("".join("1" if d >= t else "0" for d in dots), 2)
        members &= masks[c, t]
    return members


def test_chain_preimage_halfspaces_match_the_elimination_reference():
    # scale 2 pulls back through 2 gamma_k, on a grid half as wide, so every
    # pulled-back row has a gcd g >= 2 and its right-hand side c / g is
    # exercised; on the bundled chains g is 1 throughout
    ws = load_workspace()
    cases = 0
    for source, target in CHAINS:
        chain = ChainConeSystem.from_chain(ws.poset.chain(source, target))
        r = len(chain.gammas[0][0])
        for scale, side in ((1, range(-5, 4)), (2, range(-3, 3))):
            system = ChainConeSystem(chain.chain, tuple(
                tuple(tuple(scale * x for x in row) for row in gamma) for gamma in chain.gammas))
            masks = {}
            for k in range(system.levels):
                for fs in forbidden_sets(system.level_fan_pic(k)[0]):
                    case = (source, target, scale, k, sorted(fs.ray_indices))
                    half = system.preimage_halfspaces(k, fs)
                    reference = reference_preimage_halfspaces(system, k, fs)
                    assert len(half) <= len(reference), case
                    members = grid_members(half, side, r, masks)
                    assert members == grid_members(reference, side, r, masks), case
                    assert 0 < members.bit_count() < len(side) ** r, case  # both outcomes
                    cases += 1
    assert cases == 2 * 123


def scan_classes_first(chain, bundles):
    """The former chain scan, kept as the reference: per difference class its
    first (level, forbidden set) by membership, and the least level wins."""
    system = ChainConeSystem.from_chain(chain)
    bundles = [tuple(b) for b in bundles]
    diffs = sorted({tuple(t - s for s, t in zip(a, b))
                    for a in bundles for b in bundles if a != b})
    worst, witness = -1, None
    for v in diffs:
        hit = next(((k, fs) for k in range(system.levels)
                    for fs in forbidden_sets(system.level_fan_pic(k)[0])
                    if system.member(v, k, fs)), None)
        if hit is not None and (worst == -1 or hit[0] < worst):
            worst, witness = hit[0], (v, hit[0], tuple(sorted(hit[1].ray_indices)))
    return witness, [worst == -1 or worst > k for k in range(system.levels)]


def test_chain_scan_by_level_matches_scan_by_class():
    ws = load_workspace()
    rng = random.Random(2)
    failing_levels = set()
    for source, target in CHAINS:
        chain = ws.poset.chain(source, target)
        bundles = [tuple(b) for b in ws.poset.nodes[source].bundles]
        rank = len(bundles[0])
        samples = [bundles, bundles + [tuple(2 * x for x in b) for b in bundles]]
        if target == "P2":  # first hits at levels 2 and 3, alone and mixed
            samples += [[(0,) * 4, (-1, -4, 0, -4)], [(0,) * 4, (-3, -3, 2, -3)],
                        [(0,) * 4, (-3, -3, 2, -3), (-1, -4, 0, -4)],
                        [(0,) * 4, (-1, -4, 0, -4), (-3, -1, 0, -3)]]
        samples += [[(0,) * rank] + [tuple(rng.randint(-3, 3) for _ in range(rank))
                                     for _ in range(rng.randint(1, 3))]
                    for _ in range(40)]
        for sample in samples:
            verdict = strong_exceptional_along_chain(chain, sample)
            witness, oks = scan_classes_first(chain, sample)
            assert verdict.witness == witness
            assert [ok for _, _, ok in verdict.per_level] == oks
            assert verdict.ok == (witness is None)
            if witness is not None:
                failing_levels.add(witness[1])
    assert failing_levels == {0, 1, 2, 3}
