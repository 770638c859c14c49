"""Generation by Frobenius targets and twisted Koszul sequences (Method 1).

Each primitive collection of rays gives an exact Koszul sequence of line
bundles because the corresponding divisors have empty intersection.  The
closure loop repeatedly applies every sequence at every twist in a finite
search box; whenever all but one term is already generated, so is the
missing one.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .fans import Fan, PicBasis, primitive_collections
from .intlin import IntVector


class KoszulTemplate(NamedTuple):
    """Term classes of the Koszul sequence of one primitive collection.

    terms[k] lists the classes -sum_{rho in S} [D_rho] over |S| = k; the
    sequence 0 -> terms[r] -> ... -> terms[0] = {O} -> 0 is exact.
    """

    ray_set: tuple[int, ...]
    terms: tuple[tuple[IntVector, ...], ...]

    def classes_with_multiplicity(self):
        for term in self.terms:
            for cls in term:
                yield cls


def koszul_sequences(fan: Fan, pic: PicBasis) -> list[KoszulTemplate]:
    out = []
    for col in primitive_collections(fan):
        rays = col.ray_indices
        terms = []
        for k in range(len(rays) + 1):
            term = []
            for sub in itertools.combinations(rays, k):
                total = [0] * pic.rank
                for ρ in sub:
                    cls = pic.ray_class(ρ)
                    for i in range(pic.rank):
                        total[i] -= cls[i]
                term.append(tuple(total))
            terms.append(tuple(term))
        out.append(KoszulTemplate(rays, tuple(terms)))
    return out


class GenerationStep(NamedTuple):
    ray_set: tuple[int, ...]
    twist: IntVector
    produced: IntVector
    term_classes: tuple[IntVector, ...]


class GenerationCertificate(NamedTuple):
    seed: tuple[IntVector, ...]
    steps: list[GenerationStep]
    generated: frozenset[IntVector] = frozenset()

    def replay(self, templates_by_rays) -> set:
        """Re-run the recorded steps from the seed; returns the final set."""
        got = set(self.seed)
        for step in self.steps:
            others = [c for c in step.term_classes if c != step.produced]
            if not all(c in got for c in others):
                raise ValueError(f"certificate step {step} is not justified")
            template = templates_by_rays[step.ray_set]
            expected = sorted(tuple(t + w for t, w in zip(cls, step.twist))
                              for cls in template.classes_with_multiplicity())
            if sorted(step.term_classes) != expected:
                raise ValueError("certificate step does not match its template")
            got.add(step.produced)
        return got


class GenerationFailure(NamedTuple):
    unreached: tuple[IntVector, ...]
    generated: tuple[IntVector, ...]

    ok = False


def _twist_box(points, pad: int):
    rank = len(next(iter(points)))
    los = [min(p[i] for p in points) - pad for i in range(rank)]
    his = [max(p[i] for p in points) + pad for i in range(rank)]
    return [range(lo, hi + 1) for lo, hi in zip(los, his)]


# The closure's search box: twists within BOX_PAD of the seed and targets
# in every coordinate, swept at most MAX_ROUNDS times.
BOX_PAD = 2
MAX_ROUNDS = 64


def generation_closure(fan: Fan, pic: PicBasis, seed, targets):
    """Fixed-point closure; returns a GenerationCertificate or a failure.

    Failure is inconclusive: the search box is finite and nothing here can
    disprove generation.
    """
    templates = koszul_sequences(fan, pic)
    by_rays = {t.ray_set: t for t in templates}
    seed = tuple(tuple(b) for b in seed)
    targets = set(tuple(t) for t in targets)
    steps, got = [], set(seed)
    box = _twist_box(set(seed) | targets, BOX_PAD)
    twists = list(itertools.product(*box))
    for _ in range(MAX_ROUNDS):
        if targets <= got:
            break
        progress = False
        for template in templates:
            all_classes = list(template.classes_with_multiplicity())
            for twist in twists:
                shifted = [tuple(c + w for c, w in zip(cls, twist)) for cls in all_classes]
                missing = {c for c in shifted if c not in got}
                if len(missing) != 1:
                    continue
                produced = missing.pop()
                steps.append(GenerationStep(
                    template.ray_set, tuple(twist), produced, tuple(shifted)))
                got.add(produced)
                progress = True
        if not progress:
            break
    if targets <= got:
        return GenerationCertificate(seed, steps, frozenset(got))
    return GenerationFailure(tuple(sorted(targets - got)), tuple(sorted(got)))
