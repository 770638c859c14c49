"""Workloads of the toricsec benchmark, their expected verdicts and the
difference classes that the oracle cross-check samples from.

Every item runs in process through the public library API.  Inputs are
the bundled database; the workload seed is the Method-2 fiber-trial seed
and picks the oracle sample.

Items are the cheap rows, each about a second or less: on a shared
2-core host one process's speed drifts by a quarter within minutes, and
only an item that a run repeats dozens of times gives a steady figure.  The 4-fold Method-2 recipes
(E1 about 4 s, M1 about 22 s, V4 about 31 s) and the large tilting
checks (I1, J1, M1, R3, V4: 2 to 12 s) are therefore left out; they run
the same functions at a larger size.  ``theta:M1`` keeps the non-nef
Method-2 route (quiver of sections, theta genericity, theta embedding),
which no cheap recipe takes.

Which per-layer metric should move which end-to-end metric:

======================================================  ====================================
per-layer metric (traced run)                           should move
======================================================  ====================================
workspace.load_workspace.total_s                        setup_s, both workloads
fans.nef_ample_test.{calls,self_s}                      tilting wall_s and key_item_s (E1)
fans.contraction_step.{calls,self_s}                    recipes wall_s (propagated rows)
cohomology.{has_higher_cohomology,fiber_feasible}       tilting wall_s and key_item_s
cohomology.{strong_exceptional_check,                   recipes wall_s and key_item_s
strong_exceptional_along_chain}.{calls,self_s}          (D1_3)
polyhedra.ParametricIntegerFeasibility.query.*          tilting wall_s and key_item_s
polyhedra.polytope_lattice_points.{calls,self_s,points} recipes key_item_s (D1_3): the
                                                        covering-quiver lattice search
polyhedra.simplex_feasible.{calls,self_s,ok_ratio}      recipes key_item_s (D1_3): the nef
                                                        Minkowski LP
frobenius.*, method1.generation_closure.*               recipes wall_s (Beilinson and
                                                        propagated rows)
quiver.*.self_s, quiver.covering_quiver_on_y.arrows     recipes wall_s and key_item_s
                                                        (D1_3; theta:M1); zero on tilting
diagonal.*.self_s, diagonal.cell_sets.cells,            recipes key_item_s (D1_3); zero on
diagonal.fiber_exactness_check.trials                   tilting
pipelines.*.self_s (glue code)                          wall_s of the workload that calls it
trace.overhead_s                                        nothing: tracing cost itself
======================================================  ====================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Tilting thresholds of the collections the tilting workload checks.
TILTING_THRESHOLDS = {"P1xP1": 1, "S3": 1, "D1_3": 2, "E1": 3}

RECIPE_ROWS = ("P1", "P2", "P3", "P4", "P1xP1", "S1", "S2", "S3",
               "B1_3", "D1_3", "B1")
THETA_ROWS = ("M1",)


@dataclass(frozen=True)
class Item:
    kind: str       # "recipe", "theta" or "tilting"
    label: str      # database row

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.label}"


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple[Item, ...]
    key: Item       # the item whose time is reported as key_item_s


WORKLOADS = {
    w.name: w for w in (
        Workload("recipes",
                 tuple(Item("recipe", r) for r in RECIPE_ROWS)
                 + tuple(Item("theta", r) for r in THETA_ROWS),
                 Item("recipe", "D1_3")),
        Workload("tilting",
                 tuple(Item("tilting", r) for r in TILTING_THRESHOLDS),
                 Item("tilting", "E1")),
    )
}


def run_item(toricsec, ws, item: Item, seed: int):
    """Run one item; returns a comparable verdict.

    Functions are looked up on the package at call time so that a tracer
    installed around the call sees them.  A ``theta`` item is the last
    stage of a non-nef Method-2 recipe: the quiver of sections, the
    genericity of the row's theta weight and the theta embedding check.
    """
    node = ws.poset.nodes[item.label]
    if item.kind == "recipe":
        v = toricsec.verify_variety_recipe(ws, item.label, seed=seed)
        return ("recipe", v.status, v.detail)
    if item.kind == "theta":
        quiver = toricsec.quiver
        qx = quiver.build_quiver_of_sections(node.fan, node.pic, node.bundles)
        generic = quiver.check_theta_generic(qx, node.fan, node.theta)
        emb = quiver.theta_fiber_surjectivity_check(qx, node.fan, node.pic,
                                                    node.theta)
        return ("theta", generic.generic, emb.ok)
    r = toricsec.tilting_total_space_check(node.fan, node.pic, node.bundles)
    return ("tilting", r.ok, r.threshold, r.failures)


def verdict_ok(item: Item, verdict) -> bool:
    if item.kind == "recipe":
        return verdict[1] == "pass"
    if item.kind == "theta":
        return verdict[1] is True and verdict[2] is True
    return verdict[1] is True and verdict[2] == TILTING_THRESHOLDS[item.label]


def _difference_classes(bundles, omega=None, twists=(0,)):
    omega = omega or (0,) * len(bundles[0])
    return {tuple(y - x - t * w for x, y, w in zip(a, b, omega))
            for t in twists for a in bundles for b in bundles if a != b}


def queried_classes(ws, workload: Workload):
    """(row, class) pairs whose higher-cohomology test the workload runs.

    Recipes query the pairwise difference classes of the row's collection
    in the strong-exceptional check; tilting queries them after each
    anticanonical twist below the threshold.  Rows without a stored
    collection (Beilinson and propagated rows) and theta items, which
    query no cohomology, are skipped.
    """
    pairs = []
    for item in workload.items:
        node = ws.poset.nodes[item.label]
        if item.kind == "theta" or not node.bundles:
            continue
        if item.kind == "recipe":
            classes = _difference_classes(node.bundles)
        else:
            omega = node.pic.canonical_class()
            twists = range(TILTING_THRESHOLDS[item.label])
            classes = _difference_classes(node.bundles, omega, twists)
        pairs.extend((item.label, c) for c in sorted(classes))
    return pairs


def oracle_sample(ws, workload: Workload, seed: int, k: int):
    pairs = queried_classes(ws, workload)
    return random.Random(seed).sample(pairs, min(k, len(pairs)))


def oracle_agrees(toricsec, ws, label: str, cls) -> bool:
    """The cone test agrees with the brute-force character scan."""
    node = ws.poset.nodes[label]
    bad, _ = toricsec.has_higher_cohomology(node.fan, node.pic, cls)
    dims = toricsec.cohomology_dims(node.fan, node.pic, cls)
    return bad == any(dims[1:])
