"""Guards for the brute-force oracle and the fiber witness surface."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsec.cohomology import (
    BoxTooSmall,
    cohomology_dims_oracle,
    deg_fiber,
    fiber_feasible,
    fiber_witness,
    forbidden_sets,
)
from toricsec.fans import PicRankError, deg_and_pic
from toricsec.polyhedra import integer_feasible
from toricsec.workspace import load_workspace

from conftest import make_fan


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
            assert deg_fiber(pic, cls, neg).contains(point)


def test_fiber_witness_matches_generic_feasibility():
    fan = make_fan("S2")
    pic = deg_and_pic(fan)
    import itertools
    for cls in itertools.product(range(-2, 3), repeat=3):
        for neg in (frozenset(), frozenset({0, 2}), frozenset({1, 3, 4})):
            ok, _ = integer_feasible(deg_fiber(pic, cls, neg))
            assert ok == fiber_feasible(pic, cls, neg), (cls, sorted(neg))


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
        assert deg_fiber(pic, cls, neg).contains(point)
