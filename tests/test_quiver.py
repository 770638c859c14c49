import hashlib
import itertools
import random
from functools import lru_cache
from operator import add, sub

import pytest
from click.testing import CliRunner

from toricsec import quiver
from toricsec.cli import main

from toricsec.fans import deg_and_pic, nef_ample_test, vertex_divisors
from toricsec.polyhedra import simplex_feasible
from toricsec.quiver import (
    Arrow,
    QuiverError,
    QuiverOfSections,
    build_quiver_of_sections,
    check_theta_generic,
    covering_quiver_on_y,
    minkowski_embedding_check,
    pic_of_theta,
    theta_fiber_surjectivity_check,
    torus_fixed_bits,
)
from toricsec.workspace import load_workspace

from conftest import make_fan, sections

E1_BUNDLES = [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 0, 0), (1, 0, 1),
              (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 3, 3)]

J1_PIC = [
    [0, 0, 1, 1, 2, 2, 2, 3, 2, 3, 3, 3, 3, 3, 4, 3, 4],
    [0, 0, 0, 1, 1, 2, 1, 2, 2, 1, 2, 3, 2, 3, 2, 3, 2],
    [0, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 1, 2, 2, 2, 2, 2],
    [0, 1, 1, 1, 1, 1, 2, 1, 2, 2, 1, 1, 2, 1, 1, 2, 2]]
J1_BUNDLES = list(zip(*J1_PIC))
J1_THETA = tuple([-6] + [0] * 10 + [1] * 6)


@lru_cache(maxsize=None)
def bundled_workspace():
    return load_workspace()


def j1_quiver():
    fan = make_fan("J1")
    pic = deg_and_pic(fan, (2, 5, 6, 7))
    return fan, pic, build_quiver_of_sections(fan, pic, J1_BUNDLES)


def test_single_bundle_quiver_trivial():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    q = build_quiver_of_sections(fan, pic, [(0,)])
    assert q.n_vertices == 1 and q.arrows == ()


def test_beilinson_p2_quiver():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    q = build_quiver_of_sections(fan, pic, [(0,), (1,), (2,)])
    assert len(q.arrows) == 6
    assert all(a.head == a.tail + 1 for a in q.arrows)


def test_e1_quiver_counts():
    fan = make_fan("E1")
    pic = deg_and_pic(fan, (4, 5, 6))
    q = build_quiver_of_sections(fan, pic, E1_BUNDLES)
    assert q.n_vertices == 11
    assert len(q.arrows) == 39
    divs = sorted(a.div for a in q.arrows if a.tail == 0 and a.head == 1)
    assert divs == [(0, 0, 0, 0, 0, 1, 1), (0, 0, 0, 1, 0, 0, 0),
                    (0, 0, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0)]


def test_unordered_collection_rejected():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    with pytest.raises(QuiverError):
        build_quiver_of_sections(fan, pic, [(1,), (0,)])


def test_arrow_irreducibility_against_two_step_compositions():
    fan, pic, q = j1_quiver()
    secs = {}
    for i in range(q.n_vertices):
        for j in range(q.n_vertices):
            if i != j:
                diff = tuple(b - a for a, b in zip(q.bundles[i], q.bundles[j]))
                s = sections(pic, diff)
                if s:
                    secs[(i, j)] = s
    for a in q.arrows:
        for k in range(q.n_vertices):
            if k in (a.tail, a.head):
                continue
            for f in secs.get((a.tail, k), ()):
                if all(x >= y for x, y in zip(a.div, f)):
                    assert (k, a.head) not in secs or \
                        tuple(p - q_ for p, q_ in zip(a.div, f)) not in \
                        set(secs[(k, a.head)]), (a, k)


def test_j1_quiver_matches_printed_table():
    fan, pic, q = j1_quiver()
    assert len(q.arrows) == 50
    labels = {(a.tail, a.head, a.div) for a in q.arrows}
    def to_div(s):
        v = [0] * 8
        for ch in s:
            v[int(ch)] += 1
        return tuple(v)
    sample = [(0, 1, "7"), (1, 3, "367"), (4, 6, "67"), (7, 16, "0"),
              (10, 12, "7"), (14, 16, "7"), (5, 11, "37")]
    for t, h, s in sample:
        assert (t, h, to_div(s)) in labels


def test_covering_quiver_p1():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    q = covering_quiver_on_y(fan, pic, [(0,), (1,)])
    assert q.cyclic
    back = [a for a in q.arrows if a.div[-1] > 0]
    assert {(a.tail, a.head) for a in back} == {(1, 0)}
    assert len(back) == 2  # both weight-one sections return through rho_tot


def test_covering_quiver_e1_counts():
    fan = make_fan("E1")
    pic = deg_and_pic(fan, (4, 5, 6))
    q = covering_quiver_on_y(fan, pic, E1_BUNDLES)
    assert q.n_vertices == 11
    assert len(q.arrows) == 46


def searched_classes(pic, bundles, top):
    """(level, tail, head, class) of every pruned search of _level_arrows,
    in its order: level 0 above the diagonal, every pair at each level above."""
    minus_omega = tuple(-w for w in pic.canonical_class())
    r = len(bundles)
    return [(p, i, j, tuple(bj - bi + p * w
                            for bi, bj, w in zip(bundles[i], bundles[j], minus_omega)))
            for p in range(top + 1) for i in range(r) for j in range(r)
            if p or j > i]


@pytest.mark.parametrize("label", ["S3", "D1_3", "E1"])
def test_pruned_fiber_is_the_fiber_minus_the_staircase_upset(label, monkeypatch):
    # every search of the covering quiver, at level 0 (j > i) and level 1:
    # its staircase is the arrows out of i found so far, and it returns
    # the fiber minus the upset of that staircase
    ws = bundled_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    bundles = [tuple(b) for b in ws.collection_for(label).bundles]
    calls = []
    pruned_fiber = quiver._pruned_fiber

    def recording(pic_, cls, staircase):
        found = pruned_fiber(pic_, cls, staircase)
        calls.append((cls, list(staircase), found))
        return found

    monkeypatch.setattr(quiver, "_pruned_fiber", recording)
    q = covering_quiver_on_y(fan, pic, bundles)
    visits = searched_classes(pic, bundles, 1)
    assert len(calls) == len(visits) == len(bundles) * (3 * len(bundles) - 1) // 2
    for (p, i, j, cls), (called_cls, staircase, found) in zip(visits, calls):
        assert called_cls == cls
        before = sorted(a.div[:-1] for a in q.arrows if a.tail == i
                        and (a.div[-1], a.head) < (p, j))
        assert sorted(staircase) == before, (p, i, j)
        expected = [e for e in sections(pic, cls)
                    if not any(all(x >= y for x, y in zip(e, f)) for f in staircase)]
        assert sorted(found) == expected and len(set(found)) == len(found), (p, i, j)


@pytest.mark.parametrize("label", ["S3", "D1_3", "E1"])
def test_no_arrow_above_level_one(label, monkeypatch):
    # the covering quiver stops at level 1, the last level Method 2 reads;
    # on these collections levels 2 and 3 hold no arrow either
    ws = bundled_workspace()
    pic = ws.pic(label)
    bundles = ws.collection_for(label).bundles
    searched = []
    pruned_fiber = quiver._pruned_fiber

    def counting(pic_, cls, staircase):
        searched.append(cls)
        return pruned_fiber(pic_, cls, staircase)

    monkeypatch.setattr(quiver, "_pruned_fiber", counting)
    three = quiver._level_arrows(pic, bundles, 3)
    r = len(bundles)
    assert len(searched) == r * (r - 1) // 2 + 3 * r ** 2
    assert three == quiver._level_arrows(pic, bundles, 1)
    cover = covering_quiver_on_y(ws.fan(label), pic, bundles)
    assert {a.div[-1] for a in cover.arrows} == {0, 1}


# sha256 of the full `toricsec quiver <row> --total-space` report
TOTAL_SPACE_REPORT_SHA256 = {
    "S3": "d8cd5ceaabc1fcd383c32d29b98855b09d4582634a5033236fed145773714228",
    "D1_3": "b5ffafe68cc442b55cffdc0aae5b4d8e9360fd39ce36bc3584ae8af9529b5541",
    "E1": "993a8942c3ba1bdbd7648ff04e29d6b03e03206c2160a9034b586c63b52aff14",
}


@pytest.mark.parametrize("label", sorted(TOTAL_SPACE_REPORT_SHA256))
def test_total_space_quiver_report_is_pinned(label):
    result = CliRunner().invoke(main, ["quiver", label, "--total-space"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == \
        TOTAL_SPACE_REPORT_SHA256[label]


# the bundled collections whose Hom order runs up the vertex order
HOM_ORDERED = ("P1xP1", "S3", "D1_3", "E1", "J1", "M1", "R3", "V4")


def arrows_by_factorization(pic, bundles):
    """The definition: e : i -> j is an arrow unless e - f is a section from k
    to j for some k outside {i, j} and some section f from i to k."""
    r = len(bundles)
    secs = {(i, j): set(sections(pic, tuple(b - a for a, b in zip(bundles[i], bundles[j]))))
            for i in range(r) for j in range(r) if i != j}
    return {(i, j, e) for (i, j), s in secs.items() for e in s
            if not any(tuple(x - y for x, y in zip(e, f)) in secs[k, j]
                       for k in range(r) if k not in (i, j) for f in secs[i, k])}


@pytest.mark.parametrize("label", HOM_ORDERED)
def test_quiver_of_sections_matches_the_factorization_definition(label):
    ws = bundled_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    bundles = [tuple(b) for b in ws.collection_for(label).bundles]
    q = build_quiver_of_sections(fan, pic, bundles)
    arrows = [(a.tail, a.head, a.div) for a in q.arrows]
    assert len(set(arrows)) == len(arrows)
    assert set(arrows) == arrows_by_factorization(pic, bundles)


def cover_arrows_by_factorization(pic, bundles):
    """The definition at level 1: e : i -> j, a section of L_j - L_i - K,
    is an arrow unless e = f + g with f a nonzero level-0 section from i to
    k and g a level-1 section from k to j, or with f a level-1 section from
    i to k and g a nonzero level-0 section from k to j."""
    r = len(bundles)
    minus_omega = tuple(-w for w in pic.canonical_class())

    def fiber(i, j, p):
        return set(sections(pic, tuple(bj - bi + p * w for bi, bj, w
                                       in zip(bundles[i], bundles[j], minus_omega))))

    zero = {(i, k): fiber(i, k, 0) for i in range(r) for k in range(r) if k != i}
    one = {(i, j): fiber(i, j, 1) for i in range(r) for j in range(r)}

    def factors(e, i, j):
        for k in range(r):
            if k != i and any(tuple(map(sub, e, f)) in one[k, j] for f in zero[i, k]):
                return True
            if k != j and any(tuple(map(sub, e, g)) in one[i, k] for g in zero[k, j]):
                return True
        return False

    return {(i, j, e) for (i, j), s in one.items() for e in s if not factors(e, i, j)}


def assert_quivers_match_the_definitions(fan, pic, bundles):
    base = build_quiver_of_sections(fan, pic, bundles)
    arrows = [(a.tail, a.head, a.div) for a in base.arrows]
    assert arrows == sorted(set(arrows))
    assert set(arrows) == arrows_by_factorization(pic, bundles)
    cover = covering_quiver_on_y(fan, pic, bundles)
    level = {p: [(a.tail, a.head, a.div[:-1]) for a in cover.arrows if a.div[-1] == p]
             for p in (0, 1)}
    assert len(level[0]) + len(level[1]) == len(cover.arrows)
    assert level[0] == arrows
    assert len(set(level[1])) == len(level[1])
    assert set(level[1]) == cover_arrows_by_factorization(pic, bundles)


@pytest.mark.parametrize("label", ["S3", "D1_3", "E1"])
def test_covering_quiver_matches_the_factorization_definition(label):
    ws = bundled_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    assert_quivers_match_the_definitions(
        fan, pic, [tuple(b) for b in ws.collection_for(label).bundles])


def test_quivers_of_sub_collections_match_the_definitions():
    # an order-preserving sub-collection of a Hom-ordered one is Hom-ordered;
    # its arrows may factor only through the vertices it keeps
    ws = bundled_workspace()
    rng = random.Random(27)
    for label in HOM_ORDERED:
        fan, pic = ws.fan(label), ws.pic(label)
        bundles = [tuple(b) for b in ws.collection_for(label).bundles]
        for _ in range(2):
            keep = sorted(rng.sample(range(len(bundles)), rng.randint(2, min(6, len(bundles)))))
            assert_quivers_match_the_definitions(fan, pic, [bundles[k] for k in keep])


@pytest.mark.parametrize("label", ["P1xP1", "S3", "D1_3", "E1"])
def test_covering_quiver_level_zero_is_the_quiver_of_sections(label):
    ws = bundled_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    bundles = ws.collection_for(label).bundles
    base = build_quiver_of_sections(fan, pic, bundles)
    cover = covering_quiver_on_y(fan, pic, bundles)
    assert [(a.tail, a.head, a.div[:-1]) for a in cover.arrows if a.div[-1] == 0] == \
        [(a.tail, a.head, a.div) for a in base.arrows]


# sha256 of the full `toricsec quiver <row>` report; I1 is not Hom-ordered
QUIVER_REPORT_SHA256 = {
    "P1xP1": "9f8f38478aa411a41e66cc7d1a6acb2714073427c729aacb7944aa0f53624344",
    "S3": "5699b5c72ef95d7a87cbaccd56d07911e271f5a6190a016f4029a8215d988476",
    "D1_3": "7437aef64955a6a16aa8a83ca18cdb055c6c120c1376c9f085a65f5c05d470fb",
    "E1": "9cbbb3da4406fd05bdc26f2ea51904b1ac66a2e492e7190d298f4a592c73b982",
    "I1": "b04fbd9f795283a4c40bb884bf44fb727951a11d3a1cd067394c43195a7e479b",
    "J1": "2e58ff040e41dd03a68938fe9506c4885e543b0ced03fda01636a89a64cec4ce",
    "M1": "1fb940056eab2b6d1b3da8d8046878a6f6789daea14b31741215af7931adda39",
    "R3": "efa4f25755d67114f0fb1404f6d1e277aa5dbca796060fdc5f9ebd29135d2270",
    "V4": "d96f7b3c2efa0523d17d30ba11e334b5b746e4bb6ba0beae0f135226c5b713fb",
}


@pytest.mark.parametrize("label", sorted(QUIVER_REPORT_SHA256))
def test_quiver_report_is_pinned(label):
    result = CliRunner().invoke(main, ["quiver", label])
    assert result.exit_code == (2 if label == "I1" else 0)
    assert hashlib.sha256(result.output.encode()).hexdigest() == \
        QUIVER_REPORT_SHA256[label]


def test_torus_fixed_bits_match_example_cone():
    fan, pic, q = j1_quiver()
    bits = torus_fixed_bits(q, (0, 1, 3, 4))
    dead = {i + 1 for i, b in enumerate(bits) if not b}
    # paper's zero set for this cone, renumbered to our (tail, head, label) order
    def by_label(t, h, s):
        v = [0] * 8
        for ch in s:
            v[int(ch)] += 1
        return next(i + 1 for i, a in enumerate(q.arrows)
                    if (a.tail, a.head, a.div) == (t, h, tuple(v)))
    expect_dead = {by_label(*x) for x in [
        (0, 2, "0"), (1, 2, "16"), (1, 3, "367"), (1, 4, "03"), (2, 3, "4"),
        (2, 4, "37"), (3, 4, "1"), (3, 5, "37"), (3, 6, "0"), (4, 5, "4"),
        (4, 7, "37"), (4, 9, "0"), (5, 7, "1"), (5, 11, "37"), (5, 12, "0"),
        (6, 8, "4"), (6, 9, "1"), (6, 10, "3"), (7, 11, "4"), (7, 16, "0"),
        (8, 12, "1"), (8, 13, "3"), (9, 12, "4"), (9, 14, "3"), (10, 13, "4"),
        (10, 14, "1"), (12, 15, "4"), (12, 16, "1")]}
    assert dead == expect_dead


def test_theta_generic_j1_all_17_cones():
    fan, pic, q = j1_quiver()
    report = check_theta_generic(q, fan, J1_THETA)
    assert report.generic
    assert len(report.certificates) == 17
    for cert in report.certificates:
        for t, path in cert["from_source"].items():
            assert q.arrows[path[-1]].head == t
        for v, path in cert["to_positive"].items():
            if path:  # empty path: the vertex itself carries positive weight
                assert q.arrows[path[0]].tail == v
            else:
                assert J1_THETA[v] > 0


def test_theta_rejects_bad_weights():
    fan, pic, q = j1_quiver()
    with pytest.raises(QuiverError):
        check_theta_generic(q, fan, (1,) * 16 + (-16,))


def test_a2_quiver_stability_depends_on_arrow():
    # single arrow 0 -> 1 with theta = (-1, 1): stable iff the arrow is on
    q = QuiverOfSections(((0,), (1,)), (Arrow(0, 1, (1, 0)),), False, 2)
    fan = make_fan("P1")
    report = check_theta_generic(q, fan, (-1, 1))
    # cone {0} kills x0-labelled arrows; cone {1} keeps them
    assert not report.generic
    assert len(report.failures) == 1



def closure(q, bits, start):
    """Every vertex reachable from start along nonzero arrows, by DFS."""
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for idx, a in enumerate(q.arrows):
            if bits[idx] and a.tail == v and a.head not in seen:
                seen.add(a.head)
                stack.append(a.head)
    return seen


def test_theta_failure_names_the_closed_set():
    # vertices 2 and 3 only reach each other; vertex 1 carries the weight,
    # and at the cone (1,) the arrow 2 -> 3 vanishes
    arrows = (Arrow(0, 1, (0, 0)), Arrow(0, 2, (0, 0)), Arrow(2, 3, (0, 1)),
              Arrow(3, 2, (0, 0)))
    q = QuiverOfSections(((0,), (1,), (2,), (3,)), arrows, False, 2)
    report = check_theta_generic(q, make_fan("P1"), (-1, 1, 0, 0))
    assert report.failures == (((0,), "closed set with nonpositive weight", [2, 3]),
                               ((1,), "closed set with nonpositive weight", [2]))


def test_theta_closed_sets_match_closure():
    """On random quivers every closed-set failure lists the DFS closure."""
    rng = random.Random(11)
    fan = make_fan("P1")
    closed = 0
    for _ in range(300):
        nv = rng.randint(2, 6)
        arrows = tuple(Arrow(rng.randrange(nv), rng.randrange(nv),
                             (rng.randint(0, 1), rng.randint(0, 1)))
                       for _ in range(rng.randint(1, 2 * nv)))
        q = QuiverOfSections(tuple((i,) for i in range(nv)), arrows, False, 2)
        theta = [0] * nv
        for _ in range(rng.randint(1, 3)):
            theta[rng.randrange(1, nv)] += 1
        theta[0] = -sum(theta)
        for cone, kind, detail in check_theta_generic(q, fan, theta).failures:
            if kind == "closed set with nonpositive weight":
                closed += 1
                bits = torus_fixed_bits(q, cone)
                positives = {v for v, t in enumerate(theta) if t > 0}
                first = next(v for v in range(1, nv)
                             if not closure(q, bits, v) & positives)
                assert detail == sorted(closure(q, bits, first))
    assert closed > 20

def scan_path_to(q, bits, start, targets):
    """The former breadth-first search, kept as the reference: each popped
    vertex scans every arrow for the nonzero ones out of it."""
    prev = {start: None}
    queue = [start]
    while queue:
        v = queue.pop(0)
        if v in targets:
            path = []
            while prev[v] is not None:
                path.append(prev[v])
                v = q.arrows[prev[v]].tail
            return tuple(reversed(path)), prev.keys()
        for idx, a in enumerate(q.arrows):
            if bits[idx] and a.tail == v and a.head not in prev:
                prev[a.head] = idx
                queue.append(a.head)
    return None, prev.keys()


def scan_theta_report(q, fan, theta):
    """check_theta_generic on the arrow scan."""
    positives = {i for i, t in enumerate(theta) if t > 0}
    failures, certs = [], []
    for cone in fan.max_cones:
        bits = torus_fixed_bits(q, cone)
        cert = {"cone": cone, "from_source": {}, "to_positive": {}}
        bad = None
        for t in sorted(positives):
            path, _ = scan_path_to(q, bits, 0, {t})
            if path is None:
                bad = (cone, "source does not reach the positive vertex", t)
                break
            cert["from_source"][t] = path
        for v in range(1, q.n_vertices):
            if bad:
                break
            path, reached = scan_path_to(q, bits, v, positives)
            if path is None:
                bad = (cone, "closed set with nonpositive weight", sorted(reached))
                break
            cert["to_positive"][v] = path
        if bad:
            failures.append(bad)
        else:
            certs.append(cert)
    return quiver.StabilityReport(not failures, tuple(failures), tuple(certs))


@pytest.mark.parametrize("label", ["M1", "J1"])
def test_theta_report_matches_the_arrow_scan(label):
    # the row's quiver, and the same with every third arrow removed, so
    # that failures are compared as well as certificates
    node = bundled_workspace().poset.nodes[label]
    q = build_quiver_of_sections(node.fan, node.pic, node.bundles)
    thinned = QuiverOfSections(q.bundles, tuple(a for k, a in enumerate(q.arrows) if k % 3 != 2))
    reports = []
    for qq in (q, thinned):
        report = check_theta_generic(qq, node.fan, node.theta)
        assert report == scan_theta_report(qq, node.fan, node.theta)
        reports.append(report)
    assert reports[0].generic and reports[1].failures


def test_minkowski_p1():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    v = minkowski_embedding_check(fan, pic, [(0,), (1,)])
    assert v.ok and v.product_class == (1,)


def test_minkowski_rejects_trivial_product():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    v = minkowski_embedding_check(fan, pic, [(0,)])
    assert not v.ok and "ample" in v.detail


def test_minkowski_redirects_non_nef():
    fan = make_fan("J1")
    pic = deg_and_pic(fan, (2, 5, 6, 7))
    v = minkowski_embedding_check(fan, pic, J1_BUNDLES)
    assert not v.ok and "theta" in v.detail.lower() or "nef" in v.detail


def test_theta_surjectivity_p1_beilinson():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    q = build_quiver_of_sections(fan, pic, [(0,), (1,)])
    v = theta_fiber_surjectivity_check(q, fan, pic, (-1, 1))
    assert v.ok


def test_theta_surjectivity_j1():
    fan, pic, q = j1_quiver()
    assert pic_of_theta(q.bundles, J1_THETA) == (20, 15, 11, 9)
    v = theta_fiber_surjectivity_check(q, fan, pic, J1_THETA)
    assert v.ok


@pytest.mark.parametrize("change", ["short", "extra zero", "extra target"])
def test_theta_of_the_wrong_length_is_rejected(change):
    # M1 has 17 vertices; at the parent a 16-entry theta was truncated by
    # zip and reported "pic(theta) is not ample", an extra 0 passed, and an
    # extra target ended in an IndexError
    node = bundled_workspace().poset.nodes["M1"]
    q = build_quiver_of_sections(node.fan, node.pic, node.bundles)
    t = node.theta
    assert q.n_vertices == len(t) == 17
    theta = {"short": t[:16], "extra zero": t + (0,),
             "extra target": (t[0] - 1,) + t[1:] + (1,)}[change]
    with pytest.raises(QuiverError, match=f"theta has {len(theta)} entries"):
        theta_fiber_surjectivity_check(q, node.fan, node.pic, theta)
    with pytest.raises(ValueError):
        pic_of_theta(q.bundles, theta)


@pytest.mark.parametrize("weight", ["negated", "zero"])
@pytest.mark.parametrize("check", ["generic", "embedding"])
def test_a_theta_off_the_chamber_is_rejected_by_both_checks(check, weight):
    # M1's theta negated, (2, 0, ..., 0, -1, -1), and theta = 0 both have a
    # pic(theta) that is not ample; the embedding check used to report
    # that as its verdict instead of rejecting the weight
    node = bundled_workspace().poset.nodes["M1"]
    q = build_quiver_of_sections(node.fan, node.pic, node.bundles)
    theta = {"negated": tuple(-t for t in node.theta), "zero": (0,) * 17}[weight]
    assert not nef_ample_test(node.fan, node.pic, pic_of_theta(q.bundles, theta))[1]
    with pytest.raises(QuiverError, match="expected a negative weight at the source"):
        if check == "generic":
            check_theta_generic(q, node.fan, theta)
        else:
            theta_fiber_surjectivity_check(q, node.fan, node.pic, theta)


@pytest.mark.parametrize("check", ["generic", "embedding"])
def test_a_non_integer_theta_is_rejected(check):
    # (-1.5, 0, ..., 0, 1, 0.5) sums to zero, and truncating its entries
    # gives (-1, 0, ..., 0, 1, 0), a weight of the chamber
    node = bundled_workspace().poset.nodes["M1"]
    q = build_quiver_of_sections(node.fan, node.pic, node.bundles)
    theta = (-1.5,) + (0,) * 14 + (1, 0.5)
    with pytest.raises(QuiverError, match="theta entry -1.5 is not an integer"):
        if check == "generic":
            check_theta_generic(q, node.fan, theta)
        else:
            theta_fiber_surjectivity_check(q, node.fan, node.pic, theta)


def full_block_feasible(pic, bundles, v):
    """The reference: the block LP {x_i >= 0, deg x_i = L_i, sum_i x_i = v}
    over every ray, d columns per bundle."""
    d, r = pic.n_rays, len(bundles)
    rows, rhs = [], []
    for i, b in enumerate(bundles):
        for deg_row, b_row in zip(pic.deg, b):
            row = [0] * (d * r)
            row[i * d:(i + 1) * d] = deg_row
            rows.append(row)
            rhs.append(b_row)
    for ρ in range(d):
        row = [0] * (d * r)
        row[ρ::d] = [1] * r
        rows.append(row)
        rhs.append(v[ρ])
    return simplex_feasible(rows, rhs, d * r) is not None


@pytest.mark.parametrize("label", ["S3", "D1_3", "E1"])
def test_support_lp_matches_the_full_block_lp(label):
    # every vertex of P_{product}, the unit steps v +- e_rho off it (the
    # wrong class, or a negative entry) and the character steps
    # v +- div(chi^m) for the unit characters m, which stay in the class
    # and land inside the polytope or just off it
    ws = bundled_workspace()
    fan, pic = ws.fan(label), ws.pic(label)
    bundles = [tuple(b) for b in ws.collection_for(label).bundles]
    product = tuple(map(sum, zip(*bundles)))
    vertices = list(dict.fromkeys(vertex_divisors(fan, pic, product)))
    d = pic.n_rays
    steps = [tuple(int(k == ρ) for k in range(d)) for ρ in range(d)]
    steps += [tuple(u[k] for u in fan.rays) for k in range(fan.dim)]
    points = list(vertices)
    for v in vertices:
        for step in steps:
            points.append(tuple(x + y for x, y in zip(v, step)))
            points.append(tuple(x - y for x, y in zip(v, step)))
    seen = {True: 0, False: 0}
    for v in dict.fromkeys(points):
        expected = full_block_feasible(pic, bundles, v)
        assert quiver._in_minkowski_sum(pic, bundles, v) == expected, v
        seen[expected] += 1
    assert seen[False] > 0 and seen[True] > len(vertices)


def tuple_sumset(summands, n_rays):
    """The reference: sums s_1 + ... + s_k of divisor tuples."""
    sums = {(0,) * n_rays}
    for divs in summands:
        sums = {tuple(map(add, s, p)) for s in sums for p in divs}
    return sums


@pytest.mark.parametrize("label", ["M1", "J1"])
def test_packed_sumset_matches_the_tuple_sumset(label):
    node = bundled_workspace().poset.nodes[label]
    fan, pic = node.fan, node.pic
    q = build_quiver_of_sections(fan, pic, node.bundles)
    cls = pic_of_theta(q.bundles, node.theta)
    free = pic.free_indices
    path_divs = quiver._path_divisors(q, free)
    summands = [path_divs[i] for i, t in enumerate(node.theta) if i for _ in range(t)]
    width = quiver._field_width(fan, pic, cls)
    packed = quiver._packed_sumset(summands, width)
    mask = (1 << width) - 1
    decoded = {tuple((s >> (width * k)) & mask for k in range(len(free))) for s in packed}
    expected = tuple_sumset(summands, len(free))
    assert len(packed) == len(expected)
    assert decoded == expected
    assert {pic.lift(cls, t) for t in expected} == set(sections(pic, cls))


def full_path_divisors(q, n_rays):
    """The reference path divisors: every ray's exponent summed along each path."""
    path_divs = [set() for _ in range(q.n_vertices)]
    path_divs[0] = {(0,) * n_rays}
    for v in range(q.n_vertices):
        for a in q.arrows_from(v):
            for s in path_divs[v]:
                path_divs[a.head].add(tuple(map(add, s, a.div)))
    return path_divs


def lookup_theta_detail(q, pic, theta):
    """The former certificate, kept as the reference: the tuple sumset of
    the full path divisors and a lookup of every lifted section monomial.
    Returns the verdict's ok flag and detail."""
    path_divs = full_path_divisors(q, pic.n_rays)
    targets = [i for i, t in enumerate(theta) if i for _ in range(t)]
    for tgt in targets:
        if not path_divs[tgt]:
            return False, f"no path from the source to vertex {tgt}"
    sums = tuple_sumset([path_divs[tgt] for tgt in targets], pic.n_rays)
    fiber = sections(pic, pic_of_theta(q.bundles, theta))
    missing = [e for e in fiber if e not in sums]
    if missing:
        return False, f"{len(missing)} section monomials unreachable, first {missing[0]}"
    return True, f"{len(fiber)} section monomials realized"


# M1 with each arrow removed in turn; J1, whose reference costs more, with
# every eighteenth removed
@pytest.mark.parametrize("label, step", [("M1", 1), ("J1", 18)])
def test_theta_count_matches_the_lookup(label, step):
    node = bundled_workspace().poset.nodes[label]
    fan, pic = node.fan, node.pic
    q = build_quiver_of_sections(fan, pic, node.bundles)
    doctored = [QuiverOfSections(q.bundles, q.arrows[:k] + q.arrows[k + 1:])
                for k in range(0, len(q.arrows), step)]
    outcomes = set()
    for qq in [q] + doctored:
        v = theta_fiber_surjectivity_check(qq, fan, pic, node.theta)
        assert (v.ok, v.detail) == lookup_theta_detail(qq, pic, node.theta)
        outcomes.add(v.detail.split()[3])
    # the doctored quivers reach every monomial, or fall short of some
    assert {"realized", "unreachable,"} <= outcomes


def test_stability_dichotomy_small_quivers():
    """theta-stable reps of dimension (1,..,1): morphisms are zero or iso."""
    p = 5
    rng = random.Random(3)
    quivers = [
        QuiverOfSections(((0,), (1,), (2,)),
                         (Arrow(0, 1, (1, 0)), Arrow(1, 2, (0, 1)),
                          Arrow(0, 2, (1, 1))), False, 2),
        QuiverOfSections(((0,), (1,), (2,), (3,)),
                         (Arrow(0, 1, (1, 0)), Arrow(0, 2, (0, 1)),
                          Arrow(1, 3, (0, 1)), Arrow(2, 3, (1, 0))), False, 2),
    ]
    for q in quivers:
        r = q.n_vertices
        theta = (-(r - 1),) + (1,) * (r - 1)

        def closed_sets(bits):
            out = []
            for size in range(1, r):
                for s in itertools.combinations(range(r), size):
                    sset = set(s)
                    if all(a.head in sset
                           for i, a in enumerate(q.arrows)
                           if bits[i] and a.tail in sset):
                        out.append(sset)
            return out

        def stable(values):
            bits = [1 if v else 0 for v in values]
            return all(sum(theta[i] for i in s) > 0 for s in closed_sets(bits))

        reps = [tuple(rng.randrange(p) for _ in q.arrows) for _ in range(60)]
        stable_reps = [v for v in reps if stable(v)]
        for v in stable_reps[:8]:
            for w in stable_reps[:8]:
                # solve phi_h * v_a = w_a * phi_t over F_p by brute force
                for phi in itertools.product(range(p), repeat=r):
                    if all((phi[a.head] * v[i] - w[i] * phi[a.tail]) % p == 0
                           for i, a in enumerate(q.arrows)):
                        assert all(x == 0 for x in phi) or all(x != 0 for x in phi)
