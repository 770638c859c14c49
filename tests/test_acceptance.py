"""Acceptance suite: one test per criterion, timed against its stated budget.

Each test prints a single `criterion N: PASS/FAIL` line (visible with -s or
-rA).  Criterion 9's halfspace literal is implemented exactly as stated;
see the repository notes for why its printed system cannot match any
computed presentation.
"""

import itertools
import time

import pytest

from toricsec.cohomology import (
    ChainConeSystem,
    cohomology_dims,
    forbidden_sets,
    has_higher_cohomology,
    strong_exceptional_check,
)
from toricsec.diagonal import (
    cell_sets,
    check_dd_zero,
    derivative_complex,
    fiber_exactness_check,
    restrict_cells,
    sign_solve,
)
from toricsec.fans import deg_and_pic, star_subdivision
from toricsec.frobenius import (
    frobenius_gen_support,
    frobenius_split_classes,
    nef_frobenius_collection,
)
from toricsec.method1 import GenerationCertificate, generation_closure, koszul_sequences
from toricsec.pipelines import (
    helix_twist,
    propagate_collection,
    tilting_total_space_check,
)
from toricsec.quiver import (
    build_quiver_of_sections,
    check_theta_generic,
    covering_quiver_on_y,
    minkowski_embedding_check,
    pic_of_theta,
    theta_fiber_surjectivity_check,
)
from toricsec.workspace import load_workspace


@pytest.fixture(scope="module")
def ws():
    return load_workspace()


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.criterion}: {status} ({elapsed:.1f}s / "
              f"budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"criterion {self.criterion} exceeded its {self.seconds}s budget"
        return False


E1_TABLE = {
    1: [{0, 4}, {4, 5}, {0, 4, 5}, {0, 6}, {0, 4, 6}],
    3: [{1, 2, 3, 5}, {1, 2, 3, 4, 5}, {1, 2, 3, 6}, {0, 1, 2, 3, 6}, {1, 2, 3, 5, 6}],
    4: [{0, 1, 2, 3, 4, 5, 6}],
}
B1_TABLE = {1: [{0, 4}], 3: [{1, 2, 3, 5}], 4: [{0, 1, 2, 3, 4, 5}]}


def degree_table(fan):
    table = {}
    for fs in forbidden_sets(fan):
        for i in fs.degrees:
            table.setdefault(i, []).append(set(fs.ray_indices))
    return table


def test_criterion_1_forbidden_tables(ws):
    with Budget(1, 1.0):
        t_e1 = degree_table(ws.fan("E1"))
        assert sorted(map(sorted, t_e1[1])) == sorted(map(sorted, E1_TABLE[1]))
        assert 2 not in t_e1
        assert sorted(map(sorted, t_e1[3])) == sorted(map(sorted, E1_TABLE[3]))
        assert sorted(map(sorted, t_e1[4])) == sorted(map(sorted, E1_TABLE[4]))
        assert sum(len(v) for v in t_e1.values()) == 11
        t_b1 = degree_table(ws.fan("B1"))
        assert {i: sorted(map(sorted, v)) for i, v in t_b1.items()} == \
            {i: sorted(map(sorted, v)) for i, v in B1_TABLE.items()}


def test_criterion_2_duality_and_blowup_laws(ws):
    with Budget(2, 5.0):
        for label, fan in ws.fans.items():
            all_rays = frozenset(range(fan.n_rays))
            sets = {fs.ray_indices for fs in forbidden_sets(fan)}
            assert all_rays in sets, label
            for s in sets:
                if s != all_rays:
                    assert (all_rays - s) in sets, (label, sorted(s))
        e1_sets = {fs.ray_indices for fs in forbidden_sets(ws.fan("E1"))}
        for fs in forbidden_sets(ws.fan("B1")):
            s = fs.ray_indices
            assert s in e1_sets or (s | {6}) in e1_sets


def test_criterion_3_oracle_equivalence_radius_4(ws):
    with Budget(3, 120.0):
        for label in ("P2", "P1xP1", "S1", "S2", "S3", "P3"):
            fan = ws.fan(label)
            pic = ws.pic(label)
            for cls in itertools.product(range(-4, 5), repeat=pic.rank):
                bad, _ = has_higher_cohomology(fan, pic, cls)
                dims = cohomology_dims(fan, pic, cls)
                assert bad == any(dims[1:]), (label, cls, dims)


def test_criterion_4_frobenius_i1(ws):
    # |D_m| and |D_m^gen| as printed; the middle count 18 is realized by the
    # canonical twist w = (-1,...,-1): the worked example's own floor formula
    # yields 33 distinct classes for w = (+1,...,+1).
    with Budget(4, 10.0):
        fan, pic = ws.fan("I1"), ws.pic("I1")
        d0 = frobenius_split_classes(fan, pic, 10, (0,) * 8)
        d_omega = frobenius_split_classes(fan, pic, 10, (-1,) * 8)
        assert len(d0.support) == 18
        assert len(d_omega.support) == 18
        assert len(frobenius_gen_support(fan, pic, 10)) == 46
        assert d0.total() == 10 ** 4


def test_criterion_5_method1_i1_and_projective_spaces(ws):
    with Budget(5, 240.0):
        fan, pic = ws.fan("I1"), ws.pic("I1")
        collection = ws.collections["i1"].bundles
        assert len(collection) == 16
        assert set(nef_frobenius_collection(fan, pic, 10)) == set(map(tuple, collection))
        targets = frobenius_gen_support(fan, pic, 10)
        t0 = time.time()
        cert = generation_closure(fan, pic, collection, targets)
        assert isinstance(cert, GenerationCertificate)
        assert time.time() - t0 < 60
        by_rays = {t.ray_set: t for t in koszul_sequences(fan, pic)}
        replayed = cert.replay(by_rays)
        assert set(targets) <= replayed
        for label, n in (("P1", 1), ("P2", 2), ("P3", 3), ("P4", 4)):
            t0 = time.time()
            f, p = ws.fan(label), ws.pic(label)
            beilinson_dual = [(-k,) for k in range(n + 1)]
            assert strong_exceptional_check(f, p, beilinson_dual).ok
            res = generation_closure(f, p, beilinson_dual,
                                     frobenius_gen_support(f, p, 2))
            assert isinstance(res, GenerationCertificate), label
            assert time.time() - t0 < 60, label


def test_criterion_6_e1_quiver_counts(ws):
    with Budget(6, 10.0):
        fan, pic = ws.fan("E1"), ws.pic("E1")
        bundles = ws.collections["e1"].bundles
        q = build_quiver_of_sections(fan, pic, bundles)
        assert q.n_vertices == 11 and len(q.arrows) == 39
        qy = covering_quiver_on_y(fan, pic, bundles)
        assert qy.n_vertices == 11 and len(qy.arrows) == 46
        data = cell_sets(qy, 4)
        assert len(data.levels[2]) == 83  # |J|


METHOD2_EXPECT = {
    "E1": ("e1", (11, 39, 52, 31, 7)),
    "J1": ("j1", (17, 50, 59, 38, 12)),
    "M1": ("m1", (17, 60, 76, 43, 10)),
    "V4": ("v4", (23, 87, 124, 78, 18)),
}


@pytest.mark.parametrize("label", sorted(METHOD2_EXPECT))
def test_criterion_7_method2_complexes(ws, label):
    col_label, expect = METHOD2_EXPECT[label]
    with Budget(f"7[{label}]", 300.0):
        fan, pic = ws.fan(label), ws.pic(label)
        bundles = ws.collections[col_label].bundles
        qy = covering_quiver_on_y(fan, pic, bundles)
        rest = restrict_cells(cell_sets(qy, 4))
        cx = derivative_complex(rest, qy)
        assert cx.ranks == expect
        assert sum((-1) ** i * r for i, r in enumerate(cx.ranks)) == 0
        signed = sign_solve(cx)
        assert signed is not None
        assert check_dd_zero(signed)
        rep = fiber_exactness_check(signed, trials=32, diagonal_trials=8, seed=0)
        assert rep.ok, rep.detail
        assert rep.diagonal_homology == (1, 4, 6, 4, 1)


E1_VERTEX_MATRIX = [
    (3, 24, 0, 0, 4, 0, 0), (3, 0, 24, 0, 4, 0, 0), (3, 0, 0, 24, 4, 0, 0),
    (7, 32, 0, 0, 0, 4, 0), (7, 0, 32, 0, 0, 4, 0), (7, 0, 0, 32, 0, 4, 0),
    (0, 15, 0, 0, 7, 0, 3), (0, 0, 15, 0, 7, 0, 3), (0, 0, 0, 15, 7, 0, 3),
    (0, 0, 0, 0, 7, 15, 18), (7, 0, 0, 0, 0, 36, 32),
]


def test_criterion_8a_e1_minkowski(ws):
    with Budget("8[E1]", 120.0):
        fan, pic = ws.fan("E1"), ws.pic("E1")
        v = minkowski_embedding_check(fan, pic, ws.collections["e1"].bundles)
        assert v.ok
        assert v.product_class == (7, 15, 18)
        columns = sorted(zip(*v.vertex_matrix))
        assert columns == sorted(E1_VERTEX_MATRIX)


THETA_CASES = {
    "J1": ("j1", (20, 15, 11, 9), 17),
    "M1": ("m1", (1, 3, 3, 3), 17),
    "V4": ("v4", (16, 16, 16, 16, 8), 23),
}


@pytest.mark.parametrize("label", sorted(THETA_CASES))
def test_criterion_8b_theta_certificates(ws, label):
    col_label, pic_theta, cones = THETA_CASES[label]
    with Budget(f"8[{label}]", 120.0):
        fan, pic = ws.fan(label), ws.pic(label)
        col = ws.collections[col_label]
        q = build_quiver_of_sections(fan, pic, col.bundles)
        theta = col.theta
        assert pic_of_theta(q.bundles, theta) == pic_theta
        from toricsec.fans import nef_ample_test
        assert nef_ample_test(fan, pic, pic_theta) == (True, True)
        stability = check_theta_generic(q, fan, theta)
        assert stability.generic
        assert len(stability.certificates) == cones
        emb = theta_fiber_surjectivity_check(q, fan, pic, theta)
        assert emb.ok, emb.detail


def test_criterion_9a_propagation_e1_to_b1(ws):
    with Budget("9a", 10.0):
        chain = [ws.poset.step(next(e for e in ws.poset.edges
                                    if e.source == "E1" and e.target == "B1"))]
        report = propagate_collection(chain, ws.poset.nodes["E1"].bundles, 8)
        assert report.ok
        level1 = report.chain_verdict.per_level[1]
        assert len(level1[1]) == 8
        assert strong_exceptional_check(chain[0].target, chain[0].target_pic,
                                        level1[1]).ok


def test_criterion_9b_preimage_halfspace_literal(ws):
    """Grid comparison against the printed halfspaces {a1+6a2<=-2, a2<=-7}.

    Implemented exactly as stated.  The computed preimage is
    {a1 <= -2, a2 <= -7} in the printed basis {D0, D1, E} (apex omega =
    (-2,-7,1) is tight on the computed system and violates the printed
    one), so this criterion records a defect in the printed system; see
    the decisions ledger for the full analysis.
    """
    with Budget("9b", 10.0):
        from toricsec.fans import contraction_step
        b1, e1 = ws.fan("B1"), ws.fan("E1")
        step = contraction_step(e1, b1, 6, source_basis=(0, 1, 6),
                                target_basis=(0, 1))
        system = ChainConeSystem.from_chain([step])
        top = next(fs for fs in forbidden_sets(b1)
                   if fs.ray_indices == frozenset(range(6)))
        mismatches = []
        for v in itertools.product(range(-10, 3), repeat=3):
            computed = system.member(v, 1, top)
            printed = (v[0] + 6 * v[1] <= -2) and (v[1] <= -7)
            if computed != printed:
                mismatches.append(v)
        assert not mismatches, \
            (f"{len(mismatches)} grid points disagree with the printed "
             f"halfspaces; first: {mismatches[0]}")


def test_criterion_10_tilting_thresholds(ws):
    with Budget(10, 60.0):
        for fan_label, col_label, expect in (
                ("S3", "s3", 1), ("D1_3", "d1_3", 2), ("E1", "e1", 3)):
            fan, pic = ws.fan(fan_label), ws.pic(fan_label)
            report = tilting_total_space_check(fan, pic,
                                               ws.collections[col_label].bundles)
            assert report.ok, (fan_label, report.failures[:3])
            assert report.threshold == expect, fan_label


def test_criterion_11_r3_helix_twist(ws):
    with Budget(11, 5.0):
        fan, pic = ws.fan("R3"), ws.pic("R3")
        base = [tuple(b) for b in ws.collections["r3"].bundles]
        target = {tuple(b) for b in ws.collections["r3_twisted"].bundles}
        twist = (0, -1, 0, -1, -1)  # -D5 - D7 - D8
        minus_omega = tuple(-x for x in pic.canonical_class())
        # the wrapped bundles are those whose plain twist leaves the target
        wrapped = [b for b in base
                   if tuple(x + t for x, t in zip(b, twist)) not in target]
        assert len(wrapped) == 2
        rest = [b for b in base if b not in wrapped]
        # the wrapped bundles head a valid Hom-order: nothing maps into them
        from toricsec.cohomology import is_effective
        for a in wrapped:
            for x in rest:
                assert not is_effective(pic, tuple(p - q for q, p in zip(x, a)))
        result = helix_twist(fan, pic, wrapped + rest, len(wrapped), twist)
        assert result.ok, result.detail
        assert set(result.collection) == target
