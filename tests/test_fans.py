import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsec.fans import (
    Fan,
    FanError,
    LatticePolytope,
    PicRankError,
    contraction_step,
    deg_and_pic,
    fan_from_rays,
    hull_facets,
    nef_ample_test,
    nef_rows,
    polytope_fan_roundtrip,
    primitive_collections,
    star_subdivision,
    validate_fan,
    vertex_divisors,
)
from toricsec.intlin import identity, kernel_vector, mat_mul, transpose
from toricsec.pipelines import product_fan
from toricsec.workspace import load_workspace

from conftest import RAYS, make_fan, total_space_fan


def test_p2_is_smooth_complete_fano():
    rep = validate_fan(make_fan("P2"))
    assert rep.smooth and rep.complete and rep.fano


def test_e1_is_smooth_complete_fano():
    rep = validate_fan(make_fan("E1"))
    assert rep.smooth and rep.complete and rep.fano


def test_e1_with_cone_deleted_not_complete():
    fan = make_fan("E1")
    broken = Fan(fan.dim, fan.rays, fan.max_cones[1:], label="broken")
    rep = validate_fan(broken)
    assert not rep.complete and rep.errors


@pytest.mark.parametrize("label", sorted(RAYS))
def test_all_bundled_fans_are_fano(label):
    rep = validate_fan(make_fan(label))
    assert rep.smooth and rep.complete and rep.fano


def hull_route_fano(fan):
    """Reference: the fan is the face fan of conv(rays) and every facet
    w.x >= c of that hull sits at lattice distance 1 from 0 (c = -1)."""
    facets = hull_facets(fan.rays, fan.dim)
    return all(c == -1 for _, c, _ in facets) and \
        {tight for _, _, tight in facets} == set(fan.max_cones)


def fano_test_fans():
    """The bundled fans, random star subdivisions and products of them."""
    rng = random.Random(15)
    out = [make_fan(label) for label in sorted(RAYS)]
    for label in ("P2", "P3", "P4", "S3", "D1_3", "E1", "B1", "P1xP1"):
        for _ in range(8):
            fan = make_fan(label)
            for _ in range(rng.randint(1, 3)):
                cone = rng.choice(fan.max_cones)
                fan, _ = star_subdivision(fan, rng.sample(cone, rng.randint(2, len(cone))))
            out.append(fan)
    small = [f for f in out if f.dim <= 2]
    for _ in range(24):
        out.append(product_fan(rng.choice(small), rng.choice(small)))
    return out


def test_fano_test_matches_the_hull_route():
    fans = fano_test_fans()
    verdicts = []
    for fan in fans:
        rep = validate_fan(fan)
        assert rep.smooth and rep.complete, fan.rays
        assert rep.fano == hull_route_fano(fan), (fan.rays, fan.max_cones)
        verdicts.append(rep.fano)
    assert 0 < sum(verdicts) < len(fans)
    # some fan fails only at the boundary: -K nef but not ample, so a
    # pairing <m_sigma, u_rho> = -1 decides it
    assert any(nef_ample_test(fan, deg_and_pic(fan),
                              tuple(-x for x in deg_and_pic(fan).canonical_class()))
               == (True, False) for fan in fans)


def test_primitive_collections_p2():
    fan = make_fan("P2")
    cols = primitive_collections(fan)
    assert len(cols) == 1
    assert cols[0].ray_indices == (0, 1, 2)
    assert cols[0].relation == (1, 1, 1)


def test_primitive_collections_i1_contains_u0_u7():
    fan = make_fan("I1")
    assert any(c.ray_indices == (0, 7) for c in primitive_collections(fan))


def test_primitive_collections_p1xp1_brute():
    fan = make_fan("P1xP1")
    cols = primitive_collections(fan)
    assert sorted(c.ray_indices for c in cols) == [(0, 2), (1, 3)]
    for c in cols:
        # opposite rays: relation is just the sum
        assert sum(abs(x) for x in c.relation) == 2


def test_star_subdivision_of_p2_gives_s1():
    fan = make_fan("P2")
    sub, step = star_subdivision(fan, (0, 1))
    assert sub.rays[-1] == (1, 1)
    rep = validate_fan(sub)
    assert rep.smooth and rep.complete and rep.fano
    assert set(sub.max_cones) == set(make_fan("S1").max_cones)


def test_star_subdivision_b1_at_u4_u5_gives_e1():
    b1 = make_fan("B1")
    sub, step = star_subdivision(b1, (4, 5))
    assert sub.rays[-1] == (2, -1, -1, -1)
    assert set(sub.max_cones) == set(make_fan("E1").max_cones)
    # gamma . deg_source == deg_target . beta by construction
    assert mat_mul(step.gamma, step.source_pic.deg) == mat_mul(step.target_pic.deg, step.beta)


def test_star_subdivision_at_ray_is_identity():
    fan = make_fan("P2")
    sub, step = star_subdivision(fan, (1,))
    assert sub is fan
    assert step.source is step.target


def test_subdivision_preserves_smoothness_random():
    import random
    rng = random.Random(7)
    for label in ("P3", "D1_3"):
        fan = make_fan(label)
        for _ in range(2):
            cone = rng.choice(fan.max_cones)
            size = rng.randint(2, len(cone))
            σ = tuple(sorted(rng.sample(cone, size)))
            sub, _ = star_subdivision(fan, σ)
            assert validate_fan(sub).smooth


def test_deg_and_pic_p1():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    assert pic.rank == 1
    assert pic.ray_class(0) == pic.ray_class(1)


def test_lift_rejects_a_class_of_the_wrong_length():
    pic = deg_and_pic(make_fan("P1xP1"))
    assert pic.lift((1, 2)) == (1, 2, 0, 0)
    for cls in ((), (1,), (1, 2, 3)):
        with pytest.raises(PicRankError):
            pic.lift(cls)


def test_lift_fixes_basis_exponents_from_free_ones(fans):
    for label in ("S3", "E1", "R3"):
        fan = fans[label]
        pic = deg_and_pic(fan)
        cls = tuple(range(1, pic.rank + 1))
        free = tuple(range(-2, len(pic.free_indices) - 2))
        x = pic.lift(cls, free)
        assert pic.deg_of(x) == cls
        assert tuple(x[f] for f in pic.free_indices) == free


def test_deg_matrix_e1_matches_displayed_matrix():
    pic = deg_and_pic(make_fan("E1"), (4, 5, 6))
    assert pic.deg == (
        (1, 0, 0, 0, 1, 0, 0),
        (-3, 1, 1, 1, 0, 1, 0),
        (-2, 1, 1, 1, 0, 0, 1),
    )


def test_linear_equivalences_i1():
    pic = deg_and_pic(make_fan("I1"), (4, 5, 6, 7))
    assert pic.ray_class(0) == (0, -2, 1, 1)   # D0 ~ -2D5 + D6 + D7
    assert pic.ray_class(1) == (1, 0, 0, 0)    # D1 ~ D4
    assert pic.ray_class(2) == (-1, 1, 0, -1)  # D2 ~ -D4 + D5 - D7
    assert pic.ray_class(3) == (0, 1, 0, 0)    # D3 ~ D5


def test_deg_kernel_rank(fans):
    for label, fan in fans.items():
        pic = deg_and_pic(fan)
        assert pic.rank == fan.n_rays - fan.dim
        for j in range(fan.dim):
            column = tuple(fan.rays[i][j] for i in range(fan.n_rays))
            assert pic.deg_of(column) == (0,) * pic.rank


def test_nef_ample_trivial_bundle():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    nef, ample = nef_ample_test(fan, pic, (0,))
    assert nef and not ample


def test_nef_ample_e1_product_bundle():
    fan = make_fan("E1")
    pic = deg_and_pic(fan, (4, 5, 6))
    nef, ample = nef_ample_test(fan, pic, (7, 15, 18))
    assert nef and ample


def test_e1_collection_is_nef():
    fan = make_fan("E1")
    pic = deg_and_pic(fan, (4, 5, 6))
    bundles = e1_collection()
    for b in bundles:
        assert nef_ample_test(fan, pic, b)[0]


@lru_cache(maxsize=None)
def bundled_workspace():
    return load_workspace()


@lru_cache(maxsize=None)
def wall_relations(label):
    """The relation u_rho + u_rho' + sum_i b_i u_i = 0 of each wall, as a
    vector over the rays: D.C = <relation, a> for the wall curve C."""
    fan = bundled_workspace().fan(label)
    out = []
    for σ, σ2 in itertools.combinations(fan.max_cones, 2):
        τ = sorted(set(σ) & set(σ2))
        if len(τ) != fan.dim - 1:
            continue
        (ρ,), (ρ2,) = set(σ) - set(τ), set(σ2) - set(τ)
        cols = [ρ, ρ2] + τ
        k = kernel_vector(transpose([fan.rays[i] for i in cols]))
        if k[0] < 0:
            k = tuple(-x for x in k)
        assert k[:2] == (1, 1)  # smooth walls
        relation = [0] * fan.n_rays
        for i, c in zip(cols, k):
            relation[i] = c
        out.append(tuple(relation))
    return out


@st.composite
def bundled_classes(draw):
    ws = bundled_workspace()
    label = draw(st.sampled_from(sorted(ws.fans)))
    rank = ws.pic(label).rank
    return label, tuple(draw(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)))


@settings(max_examples=400, deadline=None)
@given(bundled_classes())
def test_nef_ample_test_agrees_with_kleiman_on_wall_curves(query):
    # toric Kleiman criterion: nef iff D.C >= 0 on every wall curve, ample iff > 0
    label, cls = query
    ws = bundled_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    a = pic.lift(cls)
    degrees = [sum(r * x for r, x in zip(rel, a)) for rel in wall_relations(label)]
    expect = (min(degrees) >= 0, min(degrees) > 0)
    assert nef_ample_test(fan, pic, cls) == expect


def vertex_loop_nef_ample(fan, pic, cls):
    """Reference: the per-cone loop over the vertex divisors of cls."""
    ample = True
    for cone, v in zip(fan.max_cones, vertex_divisors(fan, pic, cls)):
        if min(v) < 0:
            return False, False
        if ample and any(x == 0 for ρ, x in enumerate(v) if ρ not in cone):
            ample = False
    return True, ample


@st.composite
def classes_on_every_fan(draw):
    """A bundled row and a class with entries in [-6, 6], a tenth of them
    divided by 2 or 3 entrywise into Fractions."""
    ws = bundled_workspace()
    label = draw(st.sampled_from(sorted(ws.fans)))
    rank = ws.pic(label).rank
    cls = draw(st.lists(st.integers(-6, 6), min_size=rank, max_size=rank))
    if draw(st.integers(0, 9)) == 0:
        den = draw(st.sampled_from([2, 3]))
        cls = [Fraction(x, den) for x in cls]
    return label, tuple(cls)


@settings(max_examples=400, deadline=None)
@given(classes_on_every_fan())
def test_nef_ample_test_matches_vertex_divisor_loop(query):
    label, cls = query
    ws = bundled_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    assert nef_ample_test(fan, pic, cls) == vertex_loop_nef_ample(fan, pic, cls)
    # nef_rows reads every off-cone vertex-divisor entry
    entries = {x for cone, v in zip(fan.max_cones, vertex_divisors(fan, pic, cls))
               for ρ, x in enumerate(v) if ρ not in cone}
    assert {sum(w * c for w, c in zip(row, cls)) for row in nef_rows(fan, pic)} == entries


def test_vertex_divisors_vanish_on_their_own_cone():
    # why nef_rows keeps only the off-cone entries; by linearity the unit
    # classes cover every class
    ws = bundled_workspace()
    for label in sorted(ws.fans):
        fan, pic = ws.fan(label), ws.pic(label)
        for cls in identity(pic.rank) + (pic.canonical_class(),):
            for cone, v in zip(fan.max_cones, vertex_divisors(fan, pic, cls)):
                assert all(v[ρ] == 0 for ρ in cone), (label, cls, cone)


def unit_class_nef_rows(fan, pic):
    """The former construction, kept as the reference: the off-cone entries
    of the vertex divisors of each unit class, stacked into rows."""
    units = [vertex_divisors(fan, pic, e) for e in identity(pic.rank)]
    rows = (tuple(unit[k][ρ] for unit in units)
            for k, cone in enumerate(fan.max_cones)
            for ρ in range(fan.n_rays) if ρ not in cone)
    return tuple(dict.fromkeys(rows))


def last_pic_basis(fan):
    """The Pic basis on the last unimodular ray subset in lex order;
    deg_and_pic picks the first."""
    for basis in reversed(list(itertools.combinations(range(fan.n_rays), fan.n_rays - fan.dim))):
        try:
            return deg_and_pic(fan, basis)
        except FanError:
            pass


def test_nef_rows_match_the_unit_class_vertex_divisors():
    # every bundled fan, and star subdivisions of P3, P4 and E1 at faces of
    # two cones under a pinned basis that is not the lex-first one
    ws = bundled_workspace()
    cases = [(ws.fan(label), ws.pic(label)) for label in sorted(ws.fans)]
    for label in ("P3", "P4", "E1"):
        fan = make_fan(label)
        for cone in fan.max_cones[:2]:
            for k in (2, len(cone)):
                sub, _ = star_subdivision(fan, cone[:k])
                pic = last_pic_basis(sub)
                assert pic.basis_indices != deg_and_pic(sub).basis_indices
                cases.append((sub, pic))
    for fan, pic in cases:
        assert nef_rows(fan, pic) == unit_class_nef_rows(fan, pic), (fan.rays, pic.basis_indices)


def test_nef_ample_test_rejects_a_class_of_the_wrong_length():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    for cls in ((), (1, 2)):
        with pytest.raises(PicRankError):
            nef_ample_test(fan, pic, cls)


@st.composite
def nef_families(draw):
    """A row with a nef collection and a few nef classes on it: its bundles
    and non-negative combinations of them (the nef cone is convex)."""
    ws = bundled_workspace()
    label = draw(st.sampled_from(["P1xP1", "S3", "D1_3", "E1", "R3"]))
    bundles = ws.collection_for(label).bundles
    classes = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = draw(st.lists(st.integers(0, 2), min_size=len(bundles), max_size=len(bundles)))
        classes.append(tuple(sum(c * b[i] for c, b in zip(coeffs, bundles))
                             for i in range(len(bundles[0]))))
    return label, classes + draw(st.lists(st.sampled_from(bundles), max_size=3))


@settings(max_examples=200, deadline=None)
@given(nef_families())
def test_vertex_divisors_are_additive_on_nef_classes(family):
    # On every maximal cone the vertex of L_1 (x) ... (x) L_k is the sum of the
    # L_i vertices, each a non-negative divisor of class L_i: an explicit
    # point of the Minkowski sum of the P_{L_i} at each vertex of P_{(x)L_i}.
    label, classes = family
    ws = bundled_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    parts = [vertex_divisors(fan, pic, cls) for cls in classes]
    for cls, vertices in zip(classes, parts):
        assert nef_ample_test(fan, pic, cls)[0]
        assert all(min(v) >= 0 and pic.deg_of(v) == tuple(cls) for v in vertices)
    product = tuple(map(sum, zip(*classes)))
    for k, v in enumerate(vertex_divisors(fan, pic, product)):
        assert v == tuple(map(sum, zip(*(p[k] for p in parts))))


def e1_collection():
    out = [(0, i, i) for i in range(4)]
    out += [(1, i, i) for i in range(4)]
    out += [(1, j, j + 1) for j in range(3)]
    return out


def test_total_space_p1():
    fan, rho_tot = total_space_fan(make_fan("P1"))
    assert fan.n_rays == 3
    assert fan.rays[rho_tot] == (0, 1)
    assert set(fan.rays) == {(1, 1), (-1, 1), (0, 1)}
    assert validate_fan(fan).smooth


def test_total_space_p2_pic_rank():
    fan, _ = total_space_fan(make_fan("P2"))
    pic = deg_and_pic(fan)
    assert pic.rank == 1


def test_polytope_roundtrip_square():
    square = LatticePolytope.from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    fan = polytope_fan_roundtrip(square)
    assert set(fan.rays) == set(RAYS["P1xP1"])


def test_polytope_roundtrip_p4():
    # the reflexive simplex whose dual is conv(e_1..e_4, -e_1-..-e_4)
    verts = [(-1, -1, -1, -1)]
    for i in range(4):
        v = [-1] * 4
        v[i] = 4
        verts.append(tuple(v))
    fan = polytope_fan_roundtrip(LatticePolytope.from_vertices(verts))
    assert validate_fan(fan).fano
    assert set(fan.rays) == set(RAYS["P4"])


def test_double_dual_identity_e1():
    hull = LatticePolytope.from_vertices(RAYS["E1"])
    assert hull.is_reflexive()
    assert sorted(hull.dual().dual().vertices) == sorted(hull.vertices)


def test_nonreflexive_rejected():
    big = LatticePolytope.from_vertices([(2, 0), (0, 2), (-2, -2)])
    with pytest.raises(FanError):
        polytope_fan_roundtrip(big)


def test_contraction_step_rejects_mismatch():
    with pytest.raises(FanError):
        contraction_step(make_fan("E1"), make_fan("P3"), collapsed_ray=6)


@pytest.mark.parametrize("points", [
    [(0, 0), (1, 0), (2, 0)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
])
def test_hull_of_a_lower_dimensional_point_set_is_rejected(points):
    dim = len(points[0])
    with pytest.raises(FanError):
        hull_facets(points, dim)
    with pytest.raises(FanError):
        LatticePolytope.from_vertices(points)
