import pytest

from toricsec.fans import deg_and_pic
from toricsec.frobenius import frobenius_gen_support, nef_frobenius_collection
from toricsec.method1 import (
    GenerationCertificate,
    GenerationFailure,
    generation_closure,
    koszul_sequences,
)

from conftest import make_fan


def test_koszul_p1_is_the_euler_sequence():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    templates = koszul_sequences(fan, pic)
    assert len(templates) == 1
    t = templates[0]
    assert t.terms[0] == ((0,),)
    assert sorted(t.terms[1]) == [(-1,), (-1,)]
    assert t.terms[2] == ((-2,),)


def test_koszul_i1_from_u0_u7():
    fan = make_fan("I1")
    pic = deg_and_pic(fan, (4, 5, 6, 7))
    t = next(t for t in koszul_sequences(fan, pic) if t.ray_set == (0, 7))
    # 0 -> O(2D5 - D6 - 2D7) -> O(2D5 - D6 - D7) + O(-D7) -> O -> 0
    assert t.terms[0] == ((0, 0, 0, 0),)
    assert sorted(t.terms[1]) == [(0, 0, 0, -1), (0, 2, -1, -1)]
    assert t.terms[2] == ((0, 2, -1, -2),)


def test_koszul_p2_has_length_three():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    t = koszul_sequences(fan, pic)[0]
    assert [len(x) for x in t.terms] == [1, 3, 3, 1]


def test_template_ray_sets_are_non_faces():
    for label in ("P3", "I1", "E1"):
        fan = make_fan(label)
        pic = deg_and_pic(fan)
        for t in koszul_sequences(fan, pic):
            assert not fan.is_face(t.ray_set)


def test_targets_already_generated():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    cert = generation_closure(fan, pic, [(0,), (-1,)], [(0,)])
    assert isinstance(cert, GenerationCertificate)
    assert cert.steps == []


def test_p1_generates_minus_two():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    cert = generation_closure(fan, pic, [(0,), (-1,)], [(-2,)])
    assert isinstance(cert, GenerationCertificate)
    by_rays = {t.ray_set: t for t in koszul_sequences(fan, pic)}
    assert cert.replay(by_rays) == cert.generated


def test_generation_monotone_and_replayable():
    fan = make_fan("P3")
    pic = deg_and_pic(fan)
    seed = [(0,), (-1,), (-2,), (-3,)]
    targets = frobenius_gen_support(fan, pic, 2)
    cert = generation_closure(fan, pic, seed, targets)
    assert isinstance(cert, GenerationCertificate)
    # monotone growth: replay prefix by prefix
    by_rays = {t.ray_set: t for t in koszul_sequences(fan, pic)}
    got = set(cert.seed)
    for step in cert.steps:
        others = [c for c in step.term_classes if c != step.produced]
        assert all(c in got for c in others)
        got.add(step.produced)
    assert got == cert.replay(by_rays)


def test_failure_is_reported_not_fatal():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    res = generation_closure(fan, pic, [(0,)], [(5,)])
    assert isinstance(res, GenerationFailure)
    assert (5,) in res.unreached


def test_corrupted_certificate_rejected():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    cert = generation_closure(fan, pic, [(0,), (-1,)], [(-2,)])
    by_rays = {t.ray_set: t for t in koszul_sequences(fan, pic)}
    cert.steps[0].term_classes  # frozen dataclass; rebuild a broken step
    from toricsec.method1 import GenerationStep
    bad = GenerationStep(cert.steps[0].ray_set, cert.steps[0].twist,
                         (7,), cert.steps[0].term_classes)
    cert2 = GenerationCertificate(seed=cert.seed, steps=[bad])
    with pytest.raises(ValueError):
        cert2.replay(by_rays)


def test_i1_sixteen_bundle_collection_generates():
    fan = make_fan("I1")
    pic = deg_and_pic(fan, (4, 5, 6, 7))
    collection = nef_frobenius_collection(fan, pic, 10)
    assert len(collection) == 16
    targets = frobenius_gen_support(fan, pic, 10)
    cert = generation_closure(fan, pic, collection, targets)
    assert isinstance(cert, GenerationCertificate)
