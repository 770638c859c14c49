import itertools
import random
import tracemalloc
from collections import Counter
from functools import lru_cache

import pytest

from toricsec.fans import cone_charts, deg_and_pic, star_subdivision
from toricsec.frobenius import (
    frobenius_gen_set,
    frobenius_gen_support,
    frobenius_split_classes,
    frobenius_summands,
    gen_twists,
    nef_frobenius_collection,
    pushforward_gamma_agreement,
)
from toricsec.intlin import mat_mul, mat_vec
from toricsec.workspace import load_workspace

from conftest import RAYS, make_fan


def product_loop_summands(fan, pic, m, w, sigma):
    """The former loop over every residue vector, kept as the reference."""
    sigma = tuple(sorted(sigma))
    chart = cone_charts(fan)[sigma]
    w_sigma = tuple(w[i] for i in sigma)
    b = mat_mul(fan.rays, chart)
    c = tuple(wr - br for wr, br in zip(w, mat_vec(b, w_sigma)))
    mult = {}
    for v in itertools.product(range(m), repeat=fan.dim):
        q = [(sum(x * y for x, y in zip(row, v)) + cr) // m for row, cr in zip(b, c)]
        cls = pic.deg_of(q)
        mult[cls] = mult.get(cls, 0) + 1
    return mult


def test_m1_returns_the_class_itself():
    fan = make_fan("S2")
    pic = deg_and_pic(fan)
    w = (1, 0, 2, 0, 0)
    split = frobenius_summands(fan, pic, 1, w)
    assert split.multiplicity == {pic.deg_of(w): 1}


def test_p1_m2_splits_o_into_o_and_o_minus_1():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    split = frobenius_split_classes(fan, pic, 2, (0, 0))
    assert split.support == {(0,), (-1,)}
    assert split.total() == 2  # m^n with n = 1


def test_p1_m2_gen_contains_twists():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    support = frobenius_gen_support(fan, pic, 2)
    assert {(0,), (-1,), (1,)} <= support


def test_gen_set_m1_is_anticanonical_powers():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    pieces = frobenius_gen_set(fan, pic, 1)
    union = set()
    for piece in pieces.values():
        union |= piece.support
    assert union == {(0,), (3,), (6,)}  # O, w^-1, w^-2 on P2


def test_multiplicity_conservation(fans):
    for label in ("P2", "S3", "E1"):
        fan = fans[label]
        pic = deg_and_pic(fan)
        for m in (2, 3):
            split = frobenius_split_classes(fan, pic, m, (0,) * fan.n_rays)
            assert split.total() == m ** fan.dim


def assert_chart_independent(fan, pic, m, w):
    """Every maximal cone's chart gives the support of the split classes."""
    first = frobenius_split_classes(fan, pic, m, w).support
    for sigma in fan.max_cones:
        assert frobenius_summands(fan, pic, m, w, sigma).support == first, sigma


def test_chart_independence_i1_m10():
    fan = make_fan("I1")
    pic = deg_and_pic(fan, (4, 5, 6, 7))
    for twist in (0, -1):
        assert_chart_independent(fan, pic, 10, (twist,) * 8)


@lru_cache(maxsize=None)
def bundled_workspace():
    return load_workspace()


@pytest.mark.parametrize("label", sorted(bundled_workspace().fans))
def test_chart_independence_on_every_bundled_fan(label):
    # Thomsen's splitting does not depend on the chart
    ws = bundled_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    for twist in (0, -1):
        assert_chart_independent(fan, pic, 3, (twist,) * fan.n_rays)


def test_i1_counts_match_worked_example():
    fan = make_fan("I1")
    pic = deg_and_pic(fan, (4, 5, 6, 7))
    d0 = frobenius_split_classes(fan, pic, 10, (0,) * 8)
    d_omega = frobenius_split_classes(fan, pic, 10, (-1,) * 8)
    assert len(d0.support) == 18
    assert len(d_omega.support) == 18
    assert len(frobenius_gen_support(fan, pic, 10)) == 46


def test_monotone_stabilization_on_del_pezzos():
    for label in ("P2", "S1", "S2"):
        fan = make_fan(label)
        pic = deg_and_pic(fan)
        union_10 = set()
        union_12 = set()
        for m in range(1, 13):
            support = frobenius_split_classes(fan, pic, m, (0,) * fan.n_rays).support
            if m <= 10:
                union_10 |= support
            union_12 |= support
        assert union_10 == union_12, label


def test_nef_frobenius_collection_p2():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    assert nef_frobenius_collection(fan, pic, 5) == [(-2,), (-1,), (0,)]


def test_nef_frobenius_collection_m1_is_trivial():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    assert nef_frobenius_collection(fan, pic, 1) == [(0,)]


def test_e1_collection_inverses_in_frobenius_set():
    fan = make_fan("E1")
    pic = deg_and_pic(fan, (4, 5, 6))
    support = frobenius_split_classes(fan, pic, 8, (0,) * 7).support
    bundles = [(0, i, i) for i in range(4)] + [(1, i, i) for i in range(4)] \
        + [(1, j, j + 1) for j in range(3)]
    assert all(tuple(-x for x in b) in support for b in bundles)


@pytest.mark.parametrize("w_kind", ["zero", "omega"])
def test_pushforward_gamma_agreement_e1_b1(w_kind):
    b1 = make_fan("B1")
    _, step = star_subdivision(b1, (4, 5))
    assert pushforward_gamma_agreement(step, 3, w_kind)


@pytest.mark.parametrize("label", sorted(RAYS))
def test_floor_vector_counting_matches_product_loop(label):
    fan = make_fan(label)
    pic = deg_and_pic(fan)
    rng = random.Random(label)
    twists = [(0,) * fan.n_rays, (-1,) * fan.n_rays,
              tuple(rng.randint(-3, 3) for _ in range(fan.n_rays))]
    for sigma in fan.max_cones:
        for m in (1, 2, 3):
            for w in twists:
                got = frobenius_summands(fan, pic, m, w, sigma)
                want = product_loop_summands(fan, pic, m, w, sigma)
                # same classes, same counts, same order of first occurrence
                assert list(got.multiplicity.items()) == list(want.items()), (sigma, m, w)


def head_loop_summands(fan, pic, m, w):
    """The former floor-vector count on the first chart, kept as the
    reference: a loop over the first n - 1 residues, each row's floors
    listed as the last residue runs through 0..m-1."""
    sigma = tuple(sorted(fan.max_cones[0]))
    b = mat_mul(fan.rays, cone_charts(fan)[sigma])
    b_w = mat_vec(b, tuple(w[i] for i in sigma))
    outside = [r for r in range(fan.n_rays) if r not in sigma]
    floors = Counter()
    for head in itertools.product(range(m), repeat=fan.dim - 1):
        columns = []
        for r in outside:
            t = sum(x * y for x, y in zip(b[r], head)) + w[r] - b_w[r]
            columns.append([(t + b[r][-1] * k) // m for k in range(m)])
        floors.update(zip(*columns))
    mult = {}
    divisor = [0] * fan.n_rays
    for q, count in floors.items():
        for r, x in zip(outside, q):
            divisor[r] = x
        cls = pic.deg_of(divisor)
        mult[cls] = mult.get(cls, 0) + count
    return mult


@pytest.mark.parametrize("label", sorted(bundled_workspace().fans))
def test_column_sweep_matches_the_head_loop(label):
    ws = bundled_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    twists = [(-1,) * fan.n_rays] + [(i,) * fan.n_rays for i in gen_twists(fan)]
    for m in (1, 2, 3, 8):
        for w in twists:
            got = frobenius_split_classes(fan, pic, m, w)
            # same classes, same counts, same order of first occurrence
            assert list(got.multiplicity.items()) == \
                list(head_loop_summands(fan, pic, m, w).items()), (m, w)


def column_sweep_summands(fan, pic, m, w):
    """The former count on the first chart, kept as the reference: each
    outside row's values over all m^n residues at once, then floored."""
    sigma = tuple(sorted(fan.max_cones[0]))
    b = mat_mul(fan.rays, cone_charts(fan)[sigma])
    b_w = mat_vec(b, tuple(w[i] for i in sigma))
    outside = [r for r in range(fan.n_rays) if r not in sigma]
    columns = []
    for r in outside:
        values = [w[r] - b_w[r]]
        for coeff in b[r]:
            steps = [coeff * k for k in range(m)]
            values = [t + s for t in values for s in steps]
        columns.append([t // m for t in values])
    mult = {}
    divisor = [0] * fan.n_rays
    for q, count in Counter(zip(*columns)).items():
        for r, x in zip(outside, q):
            divisor[r] = x
        cls = pic.deg_of(divisor)
        mult[cls] = mult.get(cls, 0) + count
    return mult


@pytest.mark.parametrize("label", sorted(bundled_workspace().fans))
def test_first_residue_sweep_matches_the_column_sweep(label):
    ws = bundled_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    for m in (1, 2, 3, 6, 8):
        for i in range(-1, 3):
            w = (i,) * fan.n_rays
            got = frobenius_summands(fan, pic, m, w)
            # same classes, same counts, same order of first occurrence
            assert list(got.multiplicity.items()) == \
                list(column_sweep_summands(fan, pic, m, w).items()), (m, w)


def test_summands_hold_one_residue_slice_at_a_time():
    # I1 at m = 30 has 30^4 residues; all at once traced about 45 MB
    ws = bundled_workspace()
    fan, pic = ws.fan("I1"), ws.pic("I1")
    tracemalloc.start()
    try:
        split = frobenius_summands(fan, pic, 30, (0,) * fan.n_rays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split.total() == 30 ** 4
    assert peak < 10 * 2 ** 20, peak


@pytest.mark.parametrize("w", [(0.9, 0, 0), (0, 0, 1.0), ("1", 0, 0)])
def test_non_integer_twist_is_rejected(w):
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    with pytest.raises(ValueError, match="w entry"):
        frobenius_summands(fan, pic, 2, w)
