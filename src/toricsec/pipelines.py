"""End-to-end recipes: contraction propagation, helix threads, total-space
tilting, and per-variety verification dispatch."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, mul, sub

from .cohomology import (
    ChainVerdict,
    has_higher_cohomology,  # noqa: F401  perfbench/selftest.py reads it from here
    higher_cohomology_witnesses,
    strong_exceptional_along_chain,
    strong_exceptional_check,
)
from .diagonal import FIBER_PRIME, FIBER_SEED, FIBER_TRIALS, diagonal_resolution_verdict
from .fans import Fan, PicBasis, ContractionStep, contraction_step, nef_rows
from .frobenius import frobenius_gen_support, frobenius_split_classes
from .intlin import int_vector
from .method1 import GenerationCertificate, generation_closure


class PipelineError(ValueError):
    pass


@dataclass
class PosetNode:
    label: str
    fan: Fan | None = None
    pic: PicBasis | None = None
    bundles: list | None = None
    theta: tuple | None = None
    recipe: str = ""
    frobenius_m: int | None = None


@dataclass
class PosetEdge:
    source: str
    target: str
    collapsed_ray: int | None = None
    note: str = ""


@dataclass
class ContractionPoset:
    nodes: dict[str, PosetNode] = field(default_factory=dict)
    edges: list[PosetEdge] = field(default_factory=list)

    def add_node(self, node: PosetNode):
        if node.label in self.nodes:
            raise PipelineError(f"duplicate poset label {node.label}")
        self.nodes[node.label] = node

    def runnable_edges(self):
        for e in self.edges:
            src = self.nodes.get(e.source)
            dst = self.nodes.get(e.target)
            if src and dst and src.fan and dst.fan and e.collapsed_ray is not None:
                yield e

    def step(self, edge: PosetEdge) -> ContractionStep:
        src = self.nodes[edge.source]
        dst = self.nodes[edge.target]
        src_basis = src.pic.basis_indices if src.pic else None
        dst_basis = dst.pic.basis_indices if dst.pic else None
        return contraction_step(src.fan, dst.fan, edge.collapsed_ray,
                                source_basis=src_basis, target_basis=dst_basis)

    def chain(self, source: str, target: str) -> list[ContractionStep]:
        """Shortest runnable edge chain from source to target."""
        prev: dict[str, PosetEdge] = {}
        queue = [source]
        seen = {source}
        while queue:
            cur = queue.pop(0)
            if cur == target:
                break
            for e in self.runnable_edges():
                if e.source == cur and e.target not in seen:
                    seen.add(e.target)
                    prev[e.target] = e
                    queue.append(e.target)
        if target not in seen:
            raise PipelineError(f"no contraction chain {source} -> {target}")
        edges = []
        cur = target
        while cur != source:
            e = prev[cur]
            edges.append(e)
            cur = e.source
        return [self.step(e) for e in reversed(edges)]


@dataclass(frozen=True)
class PropagationReport:
    ok: bool
    membership_m: int | None
    chain_verdict: ChainVerdict | None
    detail: str = ""


def frobenius_membership(fan: Fan, pic: PicBasis, bundles, m: int):
    """L subset of D_m union D(omega)_m, allowing the dual collection.

    Returns ("direct"|"dual", None) on success or (None, offending bundle).
    """
    d_m = frobenius_split_classes(fan, pic, m, (0,) * fan.n_rays).support
    d_w = frobenius_split_classes(fan, pic, m, (-1,) * fan.n_rays).support
    pool = d_m | d_w
    bundles = [tuple(b) for b in bundles]
    missing = [b for b in bundles if b not in pool]
    if not missing:
        return "direct", None
    missing_dual = [b for b in bundles if tuple(-x for x in b) not in pool]
    if not missing_dual:
        return "dual", None
    return None, missing_dual[0]


def propagate_collection(chain, bundles, m: int) -> PropagationReport:
    """Push a full collection down a contraction chain.

    Membership of the collection (or its dual) in D_m union D(omega)_m is
    the fullness-transport precondition; strong exceptionality along the
    chain then makes every image collection full strong exceptional.
    """
    if not chain:
        raise PipelineError("empty contraction chain")
    fan = chain[0].source
    pic = chain[0].source_pic
    kind, offending = frobenius_membership(fan, pic, bundles, m)
    if kind is None:
        return PropagationReport(False, None, None,
                                 f"bundle {offending} (nor its dual) lies in "
                                 f"D_m u D(omega)_m at m={m}")
    verdict = strong_exceptional_along_chain(chain, bundles)
    return PropagationReport(verdict.ok, m, verdict,
                             "" if verdict.ok else verdict.failure)


@dataclass(frozen=True)
class HelixResult:
    ok: bool
    collection: tuple
    ordering: tuple = ()
    detail: str = ""


def helix_twist(fan: Fan, pic: PicBasis, ordered_bundles, steps: int,
                twist) -> HelixResult:
    """Shift a full strong exceptional collection along its helix and twist.

    The thread replaces the first `steps` bundles by their anticanonical
    twists at the far end; strong exceptionality of the result is
    re-verified, fullness is inherited from the helix.
    """
    pic.lift(twist)  # raises PicRankError on a class of the wrong length
    bundles = [tuple(b) for b in ordered_bundles]
    r = len(bundles)
    if not 0 <= steps <= r:
        raise PipelineError("steps must lie between 0 and the collection size")
    minus_omega = tuple(-w for w in pic.canonical_class())
    thread = bundles[steps:] + [
        tuple(b + w for b, w in zip(x, minus_omega)) for x in bundles[:steps]]
    twisted = [tuple(b + t for b, t in zip(x, twist)) for x in thread]
    verdict = strong_exceptional_check(fan, pic, twisted)
    if not verdict.ok:
        return HelixResult(False, tuple(twisted),
                           detail=f"thread is exceptional but not strong: {verdict.failure}")
    return HelixResult(True, tuple(twisted), verdict.ordering)


@dataclass(frozen=True)
class TiltingReport:
    ok: bool
    threshold: int
    failures: tuple = ()


def tilting_total_space_check(fan: Fan, pic: PicBasis, bundles) -> TiltingReport:
    """Certify the pulled-back sum as tilting on tot(omega).

    T is the least t >= 0 making every difference class y - x nef after t
    anticanonical twists: w . (y - x) + t w . (-K) >= 0 for every row w of
    nef_rows.  -K is ample, so each w . (-K) > 0 and T is the largest
    ceil((w . x - w . y) / w . (-K)) over the pairs and rows.  All lower
    twists must have vanishing higher cohomology for every ordered pair.
    The distinct classes are asked together (higher_cohomology_witnesses).
    """
    bundles = [int_vector(b, "class entry") for b in bundles]
    for b in bundles:
        pic.check_rank(b)
    omega = pic.canonical_class()
    threshold = 0
    for w in nef_rows(fan, pic):
        ample = -sum(map(mul, w, omega))
        if ample <= 0:
            raise PipelineError(f"-K is not ample: the nef row {w} reads {ample} on it")
        values = [sum(map(mul, w, b)) for b in bundles] or [0]
        threshold = max(threshold, -((min(values) - max(values)) // ample))
    pairs = [(i, j, tuple(map(sub, y, x)))
             for i, x in enumerate(bundles) for j, y in enumerate(bundles) if i != j]
    questions = [(i, j, t, tuple(map(add, diff, twist)))
                 for t, twist in enumerate([-t * w for w in omega] for t in range(threshold))
                 for i, j, diff in pairs]
    witness = higher_cohomology_witnesses(fan, pic, dict.fromkeys(cls for *_, cls in questions))
    failures = tuple((i, j, t, tuple(sorted(witness[cls].ray_indices)))
                     for i, j, t, cls in questions if witness[cls])
    return TiltingReport(not failures, threshold, failures)


# ----------------------------------------------------------------- recipes

@dataclass(frozen=True)
class RecipeVerdict:
    label: str
    recipe: str
    status: str          # pass / fail / inconclusive
    detail: str = ""


def product_fan(f1: Fan, f2: Fan) -> Fan:
    rays = [tuple(r) + (0,) * f2.dim for r in f1.rays]
    rays += [(0,) * f1.dim + tuple(r) for r in f2.rays]
    cones = []
    for c1 in f1.max_cones:
        for c2 in f2.max_cones:
            cones.append(tuple(c1) + tuple(f1.n_rays + i for i in c2))
    label = f"{f1.label}x{f2.label}" if f1.label and f2.label else ""
    return Fan(f1.dim + f2.dim, tuple(rays), tuple(cones), label=label)


def box_product_collection(pic1: PicBasis, pic2: PicBasis, b1, b2):
    return [tuple(a) + tuple(b) for a in b1 for b in b2]


# The Frobenius level m of each route when neither the caller nor the node
# gives one.
BEILINSON_M = 2
METHOD1_M = 10
FROM_M = 8

# the number of arguments each recipe kind takes
_RECIPE_ARITY = {"beilinson": 0, "product": 1, "method1": 0, "method2": 0, "from": 1}


def verify_variety_recipe(workspace, label: str, m: int | None = None,
                          seed: int = FIBER_SEED, trials: int = FIBER_TRIALS,
                          prime: int = FIBER_PRIME) -> RecipeVerdict:
    """Dispatch one database row through its stated verification route."""
    if m is not None and m < 1:
        raise PipelineError(f"m must be at least 1, got {m}")
    poset = workspace.poset
    if label not in poset.nodes:
        return RecipeVerdict(label, "", "fail", "label missing from the database")
    node = poset.nodes[label]
    recipe = node.recipe
    if not recipe.strip():
        return RecipeVerdict(label, "", "fail", "no recipe recorded")
    kind, *args = recipe.split()

    def bad_record(problem):
        return PipelineError(f"poset node {label}: recipe {recipe!r} {problem}")

    if kind not in _RECIPE_ARITY:
        raise bad_record(f"has unknown kind {kind!r}")
    if len(args) != _RECIPE_ARITY[kind]:
        raise bad_record("needs exactly one argument" if _RECIPE_ARITY[kind]
                         else "takes no arguments")
    if kind != "from" and node.fan is None:
        raise bad_record("needs a fan")
    if kind in ("product", "method1", "method2"):
        # a full collection has rank K_0 = |Sigma(n)| members
        size, cones = len(node.bundles or ()), len(node.fan.max_cones)
        if size != cones:
            return RecipeVerdict(label, recipe, "fail",
                                 f"collection has {size} bundles, a full one has "
                                 f"{cones} (one per maximal cone)")
    if kind == "beilinson":
        fan, pic = node.fan, node.pic
        n = fan.dim
        bundles = [(k,) + (0,) * (pic.rank - 1) for k in range(n + 1)]
        se = strong_exceptional_check(fan, pic, bundles)
        dual = [tuple(-x for x in b) for b in bundles]
        mm = m or node.frobenius_m or BEILINSON_M
        targets = frobenius_gen_support(fan, pic, mm)
        closure = generation_closure(fan, pic, dual, targets)
        ok = se.ok and isinstance(closure, GenerationCertificate)
        return RecipeVerdict(label, recipe, "pass" if ok else "fail",
                             f"method1 targets={len(targets)} at m={mm}")
    if kind == "product":
        factors = args[0].split(",")
        unknown = [f for f in factors if f not in poset.nodes]
        if unknown:
            raise bad_record(f"names no poset node {unknown[0]!r}")
        sub = [poset.nodes[f] for f in factors]
        fan = node.fan
        pic = node.pic
        se = strong_exceptional_check(fan, pic, node.bundles)
        ok = se.ok and all(s.fan is not None for s in sub)
        return RecipeVerdict(label, recipe, "pass" if ok else "fail",
                             "box product re-verified strong exceptional"
                             if se.ok else se.failure)
    if kind == "method1":
        fan, pic = node.fan, node.pic
        mm = m or node.frobenius_m or METHOD1_M
        se = strong_exceptional_check(fan, pic, node.bundles)
        if not se.ok:
            return RecipeVerdict(label, recipe, "fail", f"not strong exceptional: {se.failure}")
        targets = frobenius_gen_support(fan, pic, mm)
        closure = generation_closure(fan, pic, node.bundles, targets)
        if isinstance(closure, GenerationCertificate):
            return RecipeVerdict(label, recipe, "pass",
                                 f"{len(closure.steps)} closure steps to {len(targets)} targets")
        return RecipeVerdict(label, recipe, "inconclusive",
                             f"{len(closure.unreached)} targets unreached")
    if kind == "method2":
        fan, pic = node.fan, node.pic
        se = strong_exceptional_check(fan, pic, node.bundles)
        if not se.ok:
            return RecipeVerdict(label, recipe, "fail", f"not strong exceptional: {se.failure}")
        verdict = diagonal_resolution_verdict(fan, pic, node.bundles, theta=node.theta,
                                              trials=trials, seed=seed, prime=prime)
        status = "pass" if verdict.full else "inconclusive"
        return RecipeVerdict(label, recipe, status,
                             f"ranks={verdict.ranks} stage={verdict.stage}")
    if kind == "from":
        source = args[0]
        chain = poset.chain(source, label)
        src = poset.nodes[source]
        if not src.bundles:
            raise bad_record(f"names source {source!r}, which has no stored collection")
        mm = m or src.frobenius_m or FROM_M
        report = propagate_collection(chain, src.bundles, mm)
        return RecipeVerdict(label, recipe, "pass" if report.ok else "fail",
                             report.detail or f"propagated from {source} at m={mm}")
