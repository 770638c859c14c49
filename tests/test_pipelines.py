import itertools
import random
import shutil
import sys
from fractions import Fraction
from operator import mul

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsec import cohomology, fans, pipelines
from toricsec.cli import main
from toricsec.fans import (
    Fan,
    PicRankError,
    deg_and_pic,
    nef_ample_test,
    nef_rows,
    star_subdivision,
    validate_fan,
)
from toricsec.cohomology import has_higher_cohomology, strong_exceptional_check
from toricsec.pipelines import (
    PipelineError,
    TiltingReport,
    box_product_collection,
    frobenius_membership,
    helix_twist,
    product_fan,
    propagate_collection,
    tilting_total_space_check,
    verify_variety_recipe,
)
from toricsec.files import CollectionFile, write_collection_file, write_fan_file
from toricsec.polyhedra import ParametricIntegerFeasibility
from toricsec.workspace import bundled_data_dir, load_workspace

from conftest import make_fan, spy

E1_BUNDLES = [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 0, 0), (1, 0, 1),
              (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 3, 3)]


@pytest.fixture(scope="module")
def ws():
    return load_workspace()


def e1_chain():
    b1 = make_fan("B1")
    _, step = star_subdivision(b1, (4, 5))
    return [step]


def to_chain_basis(chain, bundles):
    paper = deg_and_pic(chain[0].source, (4, 5, 6))
    pic = chain[0].source_pic
    return [pic.deg_of(paper.lift(b)) for b in bundles]


def test_membership_precondition_accepts_e1():
    chain = e1_chain()
    fan, pic = chain[0].source, chain[0].source_pic
    kind, offending = frobenius_membership(fan, pic, to_chain_basis(chain, E1_BUNDLES), 8)
    assert kind == "dual" and offending is None


def test_membership_precondition_refuses():
    chain = e1_chain()
    fan, pic = chain[0].source, chain[0].source_pic
    kind, offending = frobenius_membership(fan, pic, [(9, 9, 9)], 4)
    assert kind is None and offending == (9, 9, 9)


def test_propagate_e1_to_b1(ws):
    chain = [ws.poset.step(ws.poset.edges[0])]  # E1 -> B1
    node = ws.poset.nodes["E1"]
    report = propagate_collection(chain, node.bundles, 8)
    assert report.ok
    level1 = report.chain_verdict.per_level[1]
    assert len(level1[1]) == 8  # dedup to rank K0(B1)
    # the image collection is strong exceptional on B1 directly
    step = chain[0]
    image = level1[1]
    assert strong_exceptional_check(step.target, step.target_pic, image).ok


def test_propagate_s3_chain(ws):
    chain = ws.poset.chain("S3", "S1")
    node = ws.poset.nodes["S3"]
    report = propagate_collection(chain, node.bundles, 6)
    assert report.ok
    sizes = [len(level[1]) for level in report.chain_verdict.per_level]
    assert sizes[0] == 6 and sizes[-1] == 4  # rank K0 drops with each blowdown


def test_identity_chain_matches_plain_check(ws):
    from toricsec.fans import contraction_step
    fan = ws.fan("S3")
    pic = ws.pic("S3")
    node = ws.poset.nodes["S3"]
    step = contraction_step(fan, fan, None)
    report = propagate_collection([step], node.bundles, 6)
    assert report.ok == strong_exceptional_check(fan, pic, node.bundles).ok


def test_helix_twist_identity():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    res = helix_twist(fan, pic, [(0,), (1,)], 0, (0,))
    assert res.ok and res.collection == ((0,), (1,))


def test_helix_step_on_p1():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    res = helix_twist(fan, pic, [(0,), (1,)], 1, (0,))
    # one step replaces O by O tensor omega^-1 = O(2)
    assert set(res.collection) == {(1,), (2,)}
    assert res.ok


def test_helix_periodicity():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    bundles = [(0,), (1,), (2,)]
    res = helix_twist(fan, pic, bundles, len(bundles), (0,))
    minus_omega = tuple(-x for x in pic.canonical_class())
    assert set(res.collection) == {tuple(b + w for b, w in zip(x, minus_omega))
                                   for x in bundles}


def test_helix_rejects_a_twist_class_of_the_wrong_length():
    fan = make_fan("P1xP1")
    pic = deg_and_pic(fan)
    for twist in ((0,), (0, 0, 5)):
        with pytest.raises(PicRankError):
            helix_twist(fan, pic, [(0, 0), (0, 1), (1, 0), (1, 1)], 1, twist)


def test_helix_r3_reproduces_twisted_collection(ws):
    fan, pic = ws.fan("R3"), ws.pic("R3")
    base = ws.collections["r3"]
    target = {tuple(b) for b in ws.collections["r3_twisted"].bundles}
    order = strong_exceptional_check(fan, pic, base.bundles).ordering
    ordered = [tuple(base.bundles[i]) for i in order]
    twist = (0, -1, 0, -1, -1)  # -D5 - D7 - D8 in the pinned basis
    got = None
    for steps in range(len(ordered) + 1):
        res = helix_twist(fan, pic, ordered, steps, twist)
        if set(res.collection) == target:
            got = steps, res
            break
    assert got is not None
    steps, res = got
    assert res.ok


def test_tilting_thresholds(ws):
    cases = [("S3", "s3", 1), ("D1_3", "d1_3", 2), ("E1", "e1", 3)]
    for fan_label, col_label, expect in cases:
        fan, pic = ws.fan(fan_label), ws.pic(fan_label)
        bundles = ws.collections[col_label].bundles
        report = tilting_total_space_check(fan, pic, bundles)
        assert report.ok, (fan_label, report.failures[:3])
        assert report.threshold == expect, fan_label


def test_tilting_check_asks_each_class_once(ws, monkeypatch):
    # one batched question gets every distinct class, and on E1 the screen
    # refutes every forbidden set of each, so no class is searched
    node = ws.poset.nodes["E1"]
    asked = spy(monkeypatch, pipelines, "higher_cohomology_witnesses")
    ext = spy(monkeypatch, cohomology, "has_higher_cohomology")
    searched = spy(monkeypatch, cohomology, "_first_witness")
    # the threshold is read off nef_rows, so no nef test runs, by any name
    nef = []
    code = fans.nef_ample_test.__code__
    sys.setprofile(lambda frame, event, _: nef.append(frame.f_locals)
                   if event == "call" and frame.f_code is code else None)
    try:
        report = tilting_total_space_check(node.fan, node.pic, node.bundles)
    finally:
        sys.setprofile(None)
    assert report.ok and report.threshold == 3
    omega = node.pic.canonical_class()
    classes = sorted({tuple(b - a - t * w for a, b, w in zip(x, y, omega))
                      for t in range(3) for x in node.bundles for y in node.bundles
                      if x != y})
    assert len(classes) == 112      # of 330 questions
    assert len(asked) == 1
    assert sorted(asked[0][-1]) == classes
    assert ext == [] and searched == []
    assert nef == []


def test_tilting_check_on_e1_builds_no_search_tower(ws, monkeypatch):
    # the level-0 rows decide every fiber E1's check asks about, and they
    # come from Fourier-Motzkin alone, so no cold cache builds a tower
    for value in list(vars(cohomology).values()):
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    built = spy(monkeypatch, ParametricIntegerFeasibility, "__init__")
    node = ws.poset.nodes["E1"]
    assert tilting_total_space_check(node.fan, node.pic, node.bundles).ok
    assert built == []


def test_tilting_p2():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    report = tilting_total_space_check(fan, pic, [(0,), (1,), (2,)])
    assert report.ok and report.threshold == 1


def test_tilting_threshold_above_ten_lists_the_failing_twists():
    # (31) - (0) - t(-K) = 31 - 3t is nef from t = 11 on; below, the class
    # -31 + 3t of the pair ((31), (0)) has H^2 up to t = 9 (-4), not at -1
    fan = make_fan("P2")
    report = tilting_total_space_check(fan, deg_and_pic(fan), [(0,), (31,)])
    assert report.threshold == 11 and not report.ok
    assert report.failures == tuple((1, 0, t, (0, 1, 2)) for t in range(10))


def test_tilting_check_searches_each_class_the_screen_leaves(monkeypatch):
    # on P2 with (0), (31) the class -31 + 3t keeps the set of H^2 for
    # t < 10 and is searched once; every other class is screened out
    fan = make_fan("P2")
    searched = spy(monkeypatch, cohomology, "_first_witness")
    assert not tilting_total_space_check(fan, deg_and_pic(fan), [(0,), (31,)]).ok
    assert [cls for _, _, cls, _ in searched] == [(3 * t - 31,) for t in range(10)]


@pytest.mark.parametrize("bundles", [[], [(2,)]], ids=["empty", "one"])
def test_tilting_check_without_classes_asks_no_cohomology(monkeypatch, bundles):
    # T = 0 leaves no class to ask, so no forbidden set or screen is built
    fan = make_fan("P2")
    screens = spy(monkeypatch, cohomology, "_forbidden_refuters")
    sets = spy(monkeypatch, cohomology, "forbidden_sets")
    assert tilting_total_space_check(fan, deg_and_pic(fan), bundles) == TiltingReport(True, 0, ())
    assert screens == [] and sets == []


@pytest.mark.parametrize("bundles", [[(0, 0, 0), (0, 1)], [(0, 0, 0), (1, 0, 0, 5)]],
                         ids=["short", "long"])
def test_tilting_check_rejects_a_bundle_of_the_wrong_width(ws, bundles):
    with pytest.raises(PicRankError):
        tilting_total_space_check(ws.fan("E1"), ws.pic("E1"), bundles)


def hirzebruch(a):
    """F_a: -K is ample for a < 2, nef but not ample for a = 2, not nef beyond."""
    rays = ((1, 0), (0, 1), (-1, a), (0, -1))
    return Fan(2, rays, ((0, 1), (1, 2), (2, 3), (0, 3)), label=f"F{a}")


@pytest.mark.parametrize("a", [2, 3])
def test_tilting_check_needs_an_ample_anticanonical_class(a):
    fan = hirzebruch(a)
    with pytest.raises(PipelineError, match="-K is not ample"):
        tilting_total_space_check(fan, deg_and_pic(fan), [(0, 0), (1, 0)])


def test_cli_tilting_on_a_non_fano_fan_reports_fail(tmp_path):
    fan = hirzebruch(2)
    write_fan_file(tmp_path / "F2.fan", fan)
    pic = deg_and_pic(fan)
    write_collection_file(tmp_path / "f2.col", CollectionFile(
        "f2", "F2", pic.basis_indices, [(0, 0), (1, 0), (0, 1), (1, 1)]))
    result = CliRunner().invoke(main, ["--data", str(tmp_path), "tilting-total-space", "F2"])
    assert result.exit_code == 2
    assert result.output.startswith("error=PipelineError: -K is not ample")
    assert result.output.endswith("\nstatus=fail\n")


def scanned_threshold(fan, pic, bundles):
    """The former scan, kept as the reference: the least t at which every
    difference class is nef after t anticanonical twists."""
    omega = pic.canonical_class()
    for t in itertools.count():
        if all(nef_ample_test(fan, pic, tuple(b - a - t * w for a, b, w in zip(x, y, omega)))[0]
               for x in bundles for y in bundles):
            return t


@st.composite
def collections_on_fano_fans(draw):
    """A few bundles on a bundled fan or on a Fano star subdivision of P3 or P4."""
    if draw(st.booleans()):
        ws = load_workspace()
        label = draw(st.sampled_from(sorted(ws.fans)))
        fan, pic = ws.fan(label), ws.pic(label)
    else:
        fan = make_fan(draw(st.sampled_from(["P3", "P4"])))
        cone = draw(st.sampled_from(fan.max_cones))
        face = draw(st.lists(st.sampled_from(cone), min_size=2, max_size=len(cone), unique=True))
        fan, _ = star_subdivision(fan, face)
        pic = deg_and_pic(fan)
    bundle = st.lists(st.integers(-3, 3), min_size=pic.rank, max_size=pic.rank).map(tuple)
    return fan, pic, draw(st.lists(bundle, min_size=2, max_size=3, unique=True))


@settings(max_examples=40, deadline=None)
@given(collections_on_fano_fans())
def test_closed_form_threshold_matches_the_scan(case):
    fan, pic, bundles = case
    assert validate_fan(fan).fano
    report = tilting_total_space_check(fan, pic, bundles)
    assert report.threshold == scanned_threshold(fan, pic, bundles), (fan.rays, bundles)


def per_class_report(fan, pic, bundles):
    """The former check, kept as the reference: the closed-form threshold,
    then has_higher_cohomology asked of every ordered pair at every twist."""
    omega = pic.canonical_class()
    threshold = 0
    for w in nef_rows(fan, pic):
        values = [sum(map(mul, w, b)) for b in bundles]
        threshold = max(threshold, -((min(values) - max(values)) // -sum(map(mul, w, omega))))
    failures = []
    for t in range(threshold):
        for i, x in enumerate(bundles):
            for j, y in enumerate(bundles):
                if i != j:
                    cls = tuple(b - a - t * w for a, b, w in zip(x, y, omega))
                    bad, fs = has_higher_cohomology(fan, pic, cls)
                    if bad:
                        failures.append((i, j, t, tuple(sorted(fs.ray_indices))))
    return TiltingReport(not failures, threshold, tuple(failures))


@settings(max_examples=40, deadline=None)
@given(collections_on_fano_fans())
def test_batched_tilting_report_matches_the_per_class_loop(case):
    fan, pic, bundles = case
    assert tilting_total_space_check(fan, pic, bundles) == \
        per_class_report(fan, pic, bundles), (fan.rays, bundles)


def test_batched_tilting_report_matches_on_seeded_collections(ws):
    # 6 seeded collections of 2-4 bundles per bundled fan; most fail
    rng = random.Random(0)
    verdicts = []
    for label in sorted(ws.fans):
        fan, pic = ws.fan(label), ws.pic(label)
        for _ in range(6):
            bundles = sorted({tuple(rng.randint(-3, 3) for _ in range(pic.rank))
                              for _ in range(rng.randint(2, 4))})
            report = tilting_total_space_check(fan, pic, bundles)
            assert report == per_class_report(fan, pic, bundles), (label, bundles)
            verdicts.append(report.ok)
    assert verdicts.count(False) > 50 and verdicts.count(True) > 5


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5], ids=["fraction", "float"])
def test_tilting_check_rejects_a_non_integer_bundle(ws, entry):
    # the screen decides every class of P1xP1's collection, so no vanishing
    # test is left to reject the entry; the check has to do it first
    bundles = [tuple(b) for b in ws.poset.nodes["P1xP1"].bundles]
    bundles[1] = (entry,) + bundles[1][1:]
    with pytest.raises(ValueError, match="not an integer"):
        tilting_total_space_check(ws.fan("P1xP1"), ws.pic("P1xP1"), bundles)


def test_tilting_check_rejects_a_non_integer_bundle_with_no_class_to_ask(ws):
    # one bundle gives T = 0 and no class, so only the entry check sees it
    with pytest.raises(ValueError, match="not an integer"):
        tilting_total_space_check(ws.fan("P1xP1"), ws.pic("P1xP1"), [(Fraction(1, 2), 0)])


def test_product_fan_and_collection():
    p1 = make_fan("P1")
    prod = product_fan(p1, p1)
    from toricsec.fans import validate_fan
    rep = validate_fan(prod)
    assert rep.smooth and rep.complete and rep.fano
    pic1 = deg_and_pic(p1)
    bundles = box_product_collection(pic1, pic1, [(0,), (1,)], [(0,), (1,)])
    pic = deg_and_pic(prod)
    assert strong_exceptional_check(prod, pic, bundles).ok


@pytest.mark.parametrize("label,expect", [
    ("P2", "pass"), ("P1xP1", "pass"), ("I1", "pass"),
    ("S1", "pass"), ("B1", "pass"),
])
def test_recipes(ws, label, expect):
    verdict = verify_variety_recipe(ws, label)
    assert verdict.status == expect, (label, verdict.detail)


@pytest.mark.parametrize("label,col_label", [
    ("P1xP1", "p1xp1"), ("I1", "i1"), ("S3", "s3"),
])
def test_recipe_rejects_a_collection_that_is_not_full(tmp_path, label, col_label):
    # one row per collection-backed route: product, method1, method2
    for f in bundled_data_dir().iterdir():
        shutil.copy(f, tmp_path / f.name)
    col = load_workspace().collections[col_label]
    col.bundles = col.bundles[:2]
    if col.theta is not None:
        col.theta = col.theta[:2]
    write_collection_file(tmp_path / f"{col_label}.col", col)
    ws = load_workspace(tmp_path)
    verdict = verify_variety_recipe(ws, label)
    cones = len(ws.fan(label).max_cones)
    assert verdict.status == "fail"
    assert "2 bundles" in verdict.detail and str(cones) in verdict.detail


def test_recipe_missing_label(ws):
    verdict = verify_variety_recipe(ws, "NOPE")
    assert verdict.status == "fail"


def test_poset_flags_corrected_contraction(ws):
    flagged = [e for e in ws.poset.edges if e.note]
    assert any(e.source == "K3" and e.target == "H10" for e in flagged)
