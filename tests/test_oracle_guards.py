"""Guards for the brute-force oracle and the fiber witness surface."""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsec.cohomology import (
    BoxTooSmall,
    cohomology_dims_oracle,
    default_character_box,
    fiber_feasible,
    fiber_witness,
    forbidden_sets,
)
from toricsec.fans import PicRankError, deg_and_pic
from toricsec.polyhedra import UnboundedSearch
from toricsec.workspace import load_workspace

from conftest import make_fan


def in_fiber(pic, cls, neg, x):
    """deg x = cls, with x_rho < 0 exactly on neg."""
    return pic.deg_of(x) == tuple(cls) and all((v < 0) == (ρ in neg) for ρ, v in enumerate(x))


def character_scan(fan, pic, cls, neg):
    """Brute force: a character m in the default box whose divisor
    <m, u_rho> + a_rho has negative support exactly neg."""
    a = pic.lift(cls)
    box = default_character_box(fan, pic, cls)
    return any(
        all((sum(mi * ui for mi, ui in zip(m, u)) + a[ρ] < 0) == (ρ in neg)
            for ρ, u in enumerate(fan.rays))
        for m in itertools.product(*[range(lo, hi + 1) for lo, hi in box]))


def test_box_boundary_contribution_raises():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    with pytest.raises(BoxTooSmall):
        cohomology_dims_oracle(fan, pic, (3,), box=[(0, 1), (0, 1)])


def test_adequate_box_accepted():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    assert cohomology_dims_oracle(fan, pic, (1,), box=[(-3, 4)]) == (2, 0)


def test_fiber_witness_agrees_with_parametric_path():
    fan = make_fan("E1")
    pic = deg_and_pic(fan, (4, 5, 6))
    cases = [((-2, -7, 1), frozenset({4, 5})),
             ((0, 0, 0), frozenset()),
             ((-1, 0, 0), frozenset({0, 4}))]
    for cls, neg in cases:
        fast = fiber_feasible(pic, cls, neg)
        point = fiber_witness(pic, cls, neg)
        assert fast == (point is not None)
        if point is not None:
            assert in_fiber(pic, cls, neg, point)


def test_fiber_witness_matches_generic_feasibility():
    fan = make_fan("S2")
    pic = deg_and_pic(fan)
    supports = [frozenset()] + [fs.ray_indices for fs in forbidden_sets(fan)]
    for cls in itertools.product(range(-2, 3), repeat=3):
        for neg in supports:
            expected = character_scan(fan, pic, cls, neg)
            assert fiber_feasible(pic, cls, neg) == expected, (cls, sorted(neg))
            point = fiber_witness(pic, cls, neg)
            assert (point is not None) == expected, (cls, sorted(neg))
            if point is not None:
                assert in_fiber(pic, cls, neg, point), (cls, sorted(neg), point)


def test_unbounded_support_raises():
    # {0, 2} is not forbidden on S2; its fibers have the recession ray m = (0, 1)
    fan = make_fan("S2")
    pic = deg_and_pic(fan)
    with pytest.raises(UnboundedSearch):
        fiber_feasible(pic, (0, 0, 0), frozenset({0, 2}))


def test_fiber_feasible_rejects_a_class_of_the_wrong_length():
    pic = deg_and_pic(make_fan("P2"))
    for cls in ((), (1, 2)):
        with pytest.raises(PicRankError):
            fiber_feasible(pic, cls, frozenset())


@lru_cache(maxsize=None)
def bundled_workspace():
    return load_workspace()


@st.composite
def fiber_queries(draw):
    ws = bundled_workspace()
    label = draw(st.sampled_from(sorted(ws.fans)))
    fan, pic = ws.fan(label), ws.pic(label)
    cls = tuple(draw(st.lists(st.integers(-4, 4), min_size=pic.rank, max_size=pic.rank)))
    neg = draw(st.sampled_from([frozenset()] + [fs.ray_indices for fs in forbidden_sets(fan)]))
    return pic, cls, neg


@settings(max_examples=120, deadline=None)
@given(fiber_queries())
def test_fiber_feasible_agrees_with_fiber_witness(query):
    pic, cls, neg = query
    point = fiber_witness(pic, cls, neg)
    assert fiber_feasible(pic, cls, neg) == (point is not None)
    if point is not None:
        assert in_fiber(pic, cls, neg, point)
