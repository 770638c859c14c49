"""Tests of the benchmark itself (tracer mechanics, counts, metric names).

Run from the root of the checkout:

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402
import toricsec  # noqa: E402

import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import (WORKLOADS, Item, Workload, oracle_agrees,  # noqa: E402
                       oracle_sample, verdict_ok)

# Cheap items that still reach every module the tracer wraps.
MINI = Workload("mini", (
    Item("recipe", "P2"), Item("recipe", "P1xP1"), Item("recipe", "B1_3"),
    Item("recipe", "S3"), Item("recipe", "D1_3"),
    Item("theta", "M1"),
    Item("tilting", "P1xP1"), Item("tilting", "S3"), Item("tilting", "D1_3"),
), Item("recipe", "D1_3"))


def namespaces():
    """Every (namespace, name) -> value binding the tracer may touch."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "toricsec" or name.startswith("toricsec."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    query = toricsec.polyhedra.ParametricIntegerFeasibility.__dict__["query"]
    out[("ParametricIntegerFeasibility", "query")] = query
    return out


def traced_pass(seed: int):
    with Tracer() as tracer:
        _, _, verdicts = run.run_pass(toricsec, MINI, seed)
    return tracer, verdicts


def counts(tracer: Tracer) -> dict:
    out = {}
    for key, stat in tracer.stats.items():
        out[f"{key}.calls"] = stat.calls
        out.update({f"{key}.{n}": v for n, v in stat.counts.items()})
    return out


@pytest.fixture(scope="module")
def two_seeds():
    untraced = run.run_pass(toricsec, MINI, 0)[2]
    return untraced, traced_pass(0), traced_pass(0), traced_pass(1)


def test_self_plus_children_equals_total():
    fake = types.ModuleType("fakepkg.layers")

    def leaf(n):
        return sum(range(n))

    def middle(n):
        return sum(range(n)) + fake.leaf(n)

    def top(n):
        return sum(range(n)) + fake.middle(n)

    fake.leaf, fake.middle, fake.top = leaf, middle, top
    sys.modules["fakepkg"] = types.ModuleType("fakepkg")
    sys.modules["fakepkg.layers"] = fake
    targets = [("layers", name, None, ()) for name in ("top", "middle", "leaf")]
    try:
        with Tracer("fakepkg", targets) as tracer:
            fake.top(20000)
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.layers"]
    assert fake.top is top and fake.leaf is leaf
    top_s, mid_s, leaf_s = (tracer.stats[f"layers.{n}"] for n in ("top", "middle", "leaf"))
    assert (top_s.calls, mid_s.calls, leaf_s.calls) == (1, 1, 1)
    assert leaf_s.self_s == leaf_s.total_s
    assert math.isclose(mid_s.self_s + leaf_s.total_s, mid_s.total_s, abs_tol=1e-12)
    assert math.isclose(top_s.self_s + mid_s.total_s, top_s.total_s, abs_tol=1e-12)
    assert tracer.root_s == top_s.total_s
    assert 0 < leaf_s.self_s and 0 < mid_s.self_s and 0 < top_s.self_s


def test_self_times_sum_to_root_totals(two_seeds):
    _, (tracer, _), _, _ = two_seeds
    roots = ("pipelines.verify_variety_recipe", "pipelines.tilting_total_space_check",
             "workspace.load_workspace")
    assert tracer.root_s > sum(tracer.stats[k].total_s for k in roots)
    assert math.isclose(sum(s.self_s for s in tracer.stats.values()), tracer.root_s,
                        rel_tol=1e-9)


def test_wrappers_restore_originals():
    before = namespaces()
    tracer = Tracer().install()
    try:
        assert toricsec.pipelines.has_higher_cohomology is not \
            before[("toricsec.cohomology", "has_higher_cohomology")]
        assert toricsec.quiver.covering_quiver_on_y is not \
            before[("toricsec.quiver", "covering_quiver_on_y")]
        assert toricsec.polyhedra.ParametricIntegerFeasibility.__dict__["query"] is not \
            before[("ParametricIntegerFeasibility", "query")]
    finally:
        tracer.restore()
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_every_wrapped_function_is_reached(two_seeds):
    _, (tracer, _), _, _ = two_seeds
    idle = [k for k, s in tracer.stats.items() if s.calls == 0]
    assert idle == []


def test_traced_verdicts_match_untraced_and_expectations(two_seeds):
    untraced, (_, traced), _, _ = two_seeds
    assert traced == untraced
    assert all(verdict_ok(item, v) for item, v in untraced.items())


def test_counts_repeat_across_runs_and_seeds(two_seeds):
    _, (a, _), (b, _), (c, _) = two_seeds
    assert counts(a) == counts(b) == counts(c)
    assert counts(a)["diagonal.fiber_exactness_check.trials"] == 2 * 40


def test_benchmark_json_names_every_metric(two_seeds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, (tracer, _), _, _ = two_seeds
    values = run.layer_values(tracer)
    values["trace.overhead_s"] = 0.0
    assert set(run.select(spec["per_layer"], values)) == \
        {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"setup_s", "wall_s", "key_item_s", "peak_rss_mb"}
    assert len(TARGETS) == len({(m, q) for m, q, _, _ in TARGETS})


def test_oracle_sample_is_seeded_and_agrees():
    ws = toricsec.load_workspace()
    tilting = WORKLOADS["tilting"]
    first = oracle_sample(ws, tilting, 3, 4)
    assert first == oracle_sample(ws, tilting, 3, 4)
    assert first != oracle_sample(ws, tilting, 4, 4)
    small = [(label, cls) for label, cls in oracle_sample(ws, WORKLOADS["recipes"], 0, 40)
             if label in ("P1xP1", "S3", "D1_3")][:6]
    assert small and all(oracle_agrees(toricsec, ws, label, cls) for label, cls in small)
