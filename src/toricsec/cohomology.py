"""Line-bundle cohomology on smooth complete toric varieties.

Vanishing is decided through the non-vanishing cohomology cones in the
Picard lattice: a class has higher cohomology iff some forbidden ray set
admits an integer point in its deg-fiber.  A brute-force degree-by-degree
oracle over lattice characters cross-checks the cone method.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .fans import Fan, PicBasis, ContractionStep, cartier_data
from .intlin import mat, mat_vec, rank, vec_gcd
from .polyhedra import ParametricIntegerFeasibility, eliminate_last


class BoxTooSmall(ValueError):
    """The character search box clips a nonzero contribution."""


@dataclass(frozen=True)
class ForbiddenSet:
    ray_indices: frozenset[int]
    degrees: tuple[int, ...]  # the H^i(X, -) the set feeds, i = betti degree + 1


@lru_cache(maxsize=None)
def _fan_faces(fan: Fan) -> frozenset[frozenset[int]]:
    faces = set()
    for c in fan.max_cones:
        for k in range(1, len(c) + 1):
            for s in itertools.combinations(c, k):
                faces.add(frozenset(s))
    return frozenset(faces)


@lru_cache(maxsize=None)
def subcomplex_betti(fan: Fan, subset: frozenset[int]) -> tuple[int, ...]:
    """Reduced Betti numbers over Q of the full subcomplex on `subset`."""
    faces = [f for f in _fan_faces(fan) if f <= subset]
    if not faces:
        return ()
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for v in by_dim.values():
        v.sort()
    top = max(by_dim)
    ranks = {}
    for k in range(1, top + 1):
        if k not in by_dim or (k - 1) not in by_dim:
            ranks[k] = 0
            continue
        index = {f: i for i, f in enumerate(by_dim[k - 1])}
        rows = []
        for f in by_dim[k]:
            row = [0] * len(by_dim[k - 1])
            for j in range(len(f)):
                sub = f[:j] + f[j + 1:]
                row[index[sub]] = (-1) ** j
            rows.append(row)
        ranks[k] = rank(mat(rows)) if rows else 0
    # augmentation: rank of the map to the empty face is 1 on a nonempty complex
    ranks[0] = 1
    betti = []
    for k in range(0, top + 1):
        nk = len(by_dim.get(k, []))
        betti.append(nk - ranks.get(k, 0) - ranks.get(k + 1, 0))
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


@lru_cache(maxsize=None)
def forbidden_sets(fan: Fan) -> tuple[ForbiddenSet, ...]:
    """All nonempty ray subsets whose full subcomplex has reduced cohomology."""
    d = fan.n_rays
    out = []
    for bits in range(1, 1 << d):
        subset = frozenset(i for i in range(d) if bits >> i & 1)
        betti = subcomplex_betti(fan, subset)
        degrees = tuple(j + 1 for j, b in enumerate(betti) if b)
        if degrees:
            out.append(ForbiddenSet(subset, degrees))
    out.sort(key=lambda f: (min(f.degrees), len(f.ray_indices), tuple(sorted(f.ray_indices))))
    return tuple(out)


def dual_forbidden(fan: Fan, forbidden: ForbiddenSet) -> ForbiddenSet:
    """Complement of a proper forbidden set; forbidden again by Serre duality."""
    full = frozenset(range(fan.n_rays))
    if forbidden.ray_indices == full:
        raise ValueError("duality does not apply to the full ray set")
    comp = full - forbidden.ray_indices
    betti = subcomplex_betti(fan, comp)
    degrees = tuple(j + 1 for j, b in enumerate(betti) if b)
    if not degrees:
        raise ValueError(f"complement {sorted(comp)} is not forbidden")
    return ForbiddenSet(comp, degrees)


@lru_cache(maxsize=None)
def fiber_tower(pic: PicBasis, neg: frozenset) -> ParametricIntegerFeasibility:
    """The lattice-point engine of the deg-fibers with negative support neg.

    Its variables are the exponents of the free rays, pic.free_indices.
    A class fixes the basis exponents through them (PicBasis.lift), so
    the rows x_rho >= 0 off neg and -x_rho >= 1 on neg depend on the class
    only through their right-hand sides, fiber_rhs.

    On a complete fan every fiber the verifier asks about is bounded, for
    neg empty or forbidden, so the search never meets an unbounded
    coordinate.  The fiber's recession cone is C = {m : <m, u_rho> <= 0
    on neg, >= 0 off neg}.  For neg empty, C = {0} because the rays
    positively span N.  For a forbidden neg, a nonzero m0 in C would make
    every t*m0 (t >= 1) a character of O(-sum_{rho in neg} D_rho) with
    negative support exactly neg, each contributing the nonzero reduced
    cohomology of neg, and some h^i would be infinite; it is finite on a
    complete variety (Cox-Little-Schenck, Toric Varieties, 2011, 9.0).
    Fourier-Motzkin projects exactly, so every level of the tower then
    bounds its coordinate from both sides.  Any other support may have
    an unbounded fiber, and its search raises UnboundedSearch.
    """
    free = pic.free_indices
    rows = []
    for ρ in range(pic.n_rays):
        if ρ in free:
            row = tuple(1 if f == ρ else 0 for f in free)
        else:
            deg_row = pic.deg[pic.basis_indices.index(ρ)]
            row = tuple(-deg_row[f] for f in free)
        rows.append(tuple(-x for x in row) if ρ in neg else row)
    return ParametricIntegerFeasibility(rows, len(free))


def fiber_rhs(pic: PicBasis, cls, neg) -> list[int]:
    """Right-hand sides of fiber_tower(pic, neg) for the class cls."""
    a = pic.lift(cls)
    return [1 + a[ρ] if ρ in neg else -a[ρ] for ρ in range(pic.n_rays)]


def fiber_feasible(pic: PicBasis, cls, neg) -> bool:
    """Integer point in the deg-fiber with the given negative-support set."""
    neg = frozenset(neg)
    return fiber_tower(pic, neg).query(fiber_rhs(pic, cls, neg))


def has_higher_cohomology(fan: Fan, pic: PicBasis, cls) -> tuple[bool, ForbiddenSet | None]:
    """Cone-based test: some forbidden fiber admits an integer point."""
    for fs in forbidden_sets(fan):
        if fiber_feasible(pic, cls, fs.ray_indices):
            return True, fs
    return False, None


def fiber_witness(pic: PicBasis, cls, neg):
    """The first integer point of the deg-fiber, in ray exponents, or None."""
    neg = frozenset(neg)
    found = fiber_tower(pic, neg).points(fiber_rhs(pic, cls, neg), first=True)
    return pic.lift(cls, found[0]) if found else None


def is_effective(pic: PicBasis, cls) -> bool:
    """H^0 != 0, i.e. the nonnegative deg-fiber has an integer point."""
    return fiber_feasible(pic, cls, frozenset())


def default_character_box(fan: Fan, pic: PicBasis, cls) -> list[tuple[int, int]]:
    verts = cartier_data(fan, pic, cls)
    n = fan.dim
    return [(min(v[i] for v in verts) - n, max(v[i] for v in verts) + n)
            for i in range(n)]


def cohomology_dims_oracle(fan: Fan, pic: PicBasis, cls, box=None) -> tuple[int, ...]:
    """Brute-force dims (h^0, ..., h^n) by scanning lattice characters.

    Every character m in the box contributes the reduced Betti vector of the
    full subcomplex on its negative support.  A nonzero contribution on the
    box boundary raises BoxTooSmall.
    """
    if box is None:
        box = default_character_box(fan, pic, cls)
    a = pic.lift(cls)
    n = fan.dim
    dims = [0] * (n + 1)
    for m in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
        neg = frozenset(
            ρ for ρ in range(fan.n_rays)
            if sum(mi * ui for mi, ui in zip(m, fan.rays[ρ])) + a[ρ] < 0)
        betti = subcomplex_betti(fan, neg) if neg else ()
        contributes = False
        if neg:
            for j, b in enumerate(betti):
                if b:
                    dims[j + 1] += b
                    contributes = True
        else:
            dims[0] += 1
            contributes = True
        if contributes and any(mi == lo or mi == hi for mi, (lo, hi) in zip(m, box)):
            raise BoxTooSmall(f"contribution at box boundary {m}; enlarge the box")
    return tuple(dims)


def cohomology_dims(fan: Fan, pic: PicBasis, cls) -> tuple[int, ...]:
    """Oracle dims with the box grown until no boundary contribution."""
    box = default_character_box(fan, pic, cls)
    for _ in range(12):
        try:
            return cohomology_dims_oracle(fan, pic, cls, box)
        except BoxTooSmall:
            box = [(lo - 2, hi + 2) for lo, hi in box]
    raise BoxTooSmall("character box did not stabilize")


@dataclass(frozen=True)
class StrongExceptionalVerdict:
    ok: bool
    ordering: tuple[int, ...] = ()
    failure: str = ""
    witness_pair: tuple[int, int] | None = None
    witness_set: frozenset[int] | None = None


def hom_nonzero(pic: PicBasis, src, dst) -> bool:
    return is_effective(pic, tuple(t - s for s, t in zip(src, dst)))


def strong_exceptional_check(fan: Fan, pic: PicBasis, bundles) -> StrongExceptionalVerdict:
    """Higher-Ext vanishing for all ordered pairs plus an acyclic Hom order."""
    bundles = [tuple(b) for b in bundles]
    if len(set(bundles)) != len(bundles):
        return StrongExceptionalVerdict(False, failure="bundles are not pairwise distinct")
    r = len(bundles)
    for s in range(r):
        for t in range(r):
            if s == t:
                continue
            diff = tuple(bt - bs for bs, bt in zip(bundles[s], bundles[t]))
            bad, fs = has_higher_cohomology(fan, pic, diff)
            if bad:
                return StrongExceptionalVerdict(
                    False, failure="higher cohomology of a difference class",
                    witness_pair=(s, t), witness_set=fs.ray_indices)
    edges = {(s, t) for s in range(r) for t in range(r)
             if s != t and hom_nonzero(pic, bundles[s], bundles[t])}
    for s, t in edges:
        if (t, s) in edges:
            return StrongExceptionalVerdict(
                False, failure="Hom nonzero in both directions", witness_pair=(s, t))
    order = []
    remaining = set(range(r))
    while remaining:
        free = sorted(v for v in remaining
                      if not any((u, v) in edges for u in remaining if u != v))
        if not free:
            return StrongExceptionalVerdict(False, failure="Hom digraph has a cycle")
        pick = min(free, key=lambda v: (bundles[v], v))
        order.append(pick)
        remaining.remove(pick)
    return StrongExceptionalVerdict(True, ordering=tuple(order))


@dataclass
class ChainConeSystem:
    """Pulled-back non-vanishing cone families along a contraction chain."""

    chain: tuple[ContractionStep, ...]
    gammas: tuple  # gamma_{0->k} matrices, k = 0..t (identity first)

    @classmethod
    def from_chain(cls, chain) -> "ChainConeSystem":
        chain = tuple(chain)
        for a, b in zip(chain, chain[1:]):
            if a.target.rays != b.source.rays:
                raise ValueError("chain steps do not compose")
        gammas = []
        r0 = chain[0].source_pic.rank if chain else 0
        current = tuple(tuple(1 if i == j else 0 for j in range(r0)) for i in range(r0))
        gammas.append(current)
        for step in chain:
            current = _compose(step.gamma, current)
            gammas.append(current)
        return cls(chain, tuple(gammas))

    def level_fan_pic(self, k: int):
        if k == 0:
            return self.chain[0].source, self.chain[0].source_pic
        return self.chain[k - 1].target, self.chain[k - 1].target_pic

    @property
    def levels(self) -> int:
        return len(self.chain) + 1

    def member(self, v, k: int, fs: ForbiddenSet) -> bool:
        fan, pic = self.level_fan_pic(k)
        image = mat_vec(self.gammas[k], v)
        return fiber_feasible(pic, image, fs.ray_indices)

    def hit_any(self, v, up_to_level: int):
        """First (level, forbidden set) whose pulled-back cone contains v."""
        for k in range(up_to_level + 1):
            fan, _ = self.level_fan_pic(k)
            for fs in forbidden_sets(fan):
                if self.member(v, k, fs):
                    return k, fs
        return None

    def preimage_halfspaces(self, k: int, fs: ForbiddenSet):
        """Halfspace presentation of the level-k cone preimage in Pic(X_0)_R.

        Computed by eliminating the fiber variables from the deg-fiber and
        substituting gamma; exact over R, reported over the Pic lattice.
        """
        fan, pic = self.level_fan_pic(k)
        d, r = pic.n_rays, pic.rank
        neg = fs.ray_indices
        # rows . (c_0..c_{r-1}, x_0..x_{d-1}) >= b; eliminate the x block
        rows, b = [], []
        for ρ in range(d):
            rows.append((0,) * (r + ρ) + (-1 if ρ in neg else 1,) + (0,) * (d - 1 - ρ))
            b.append(1 if ρ in neg else 0)
        for i in range(r):
            row = tuple(-1 if j == i else 0 for j in range(r)) + tuple(pic.deg[i])
            rows += [row, tuple(-x for x in row)]
            b += [0, 0]
        level = [(row, tuple(1 if i == j else 0 for j in range(len(rows))))
                 for i, row in enumerate(rows)]
        for nv in range(r + d, r, -1):
            level = eliminate_last(level, nv)
        gamma = self.gammas[k]
        r0 = len(gamma[0]) if gamma else 0
        best = {}
        for coeffs, mult in level:
            pulled = tuple(sum(coeffs[i] * gamma[i][j] for i in range(r)) for j in range(r0))
            g = vec_gcd(pulled) or 1
            key = tuple(x // g for x in pulled)
            rhs = Fraction(sum(m * bi for m, bi in zip(mult, b)), g)
            if key not in best or rhs > best[key]:
                best[key] = rhs
        return [(c, rhs) for c, rhs in best.items() if any(c) or rhs > 0]


def _compose(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


@dataclass(frozen=True)
class ChainVerdict:
    ok: bool
    per_level: tuple  # (level, image collection, verdict bool)
    failure: str = ""
    witness: tuple | None = None


def strong_exceptional_along_chain(chain, bundles) -> ChainVerdict:
    """Difference classes must avoid the pulled-back cones of every level."""
    system = ChainConeSystem.from_chain(chain)
    bundles = [tuple(b) for b in bundles]
    diffs = sorted({tuple(t - s for s, t in zip(a, b))
                    for a in bundles for b in bundles if a != b})
    worst = -1
    witness = None
    for v in diffs:
        hit = system.hit_any(v, system.levels - 1)
        if hit is not None:
            k, fs = hit
            if worst == -1 or k < worst:
                worst, witness = k, (v, k, tuple(sorted(fs.ray_indices)))
    per_level = []
    for k in range(system.levels):
        ok_k = worst == -1 or worst > k
        image = []
        for b in bundles:
            img = tuple(mat_vec(system.gammas[k], b))
            if img not in image:
                image.append(img)
        per_level.append((k, tuple(image), ok_k))
    overall = worst == -1
    return ChainVerdict(overall, tuple(per_level),
                        failure="" if overall else "difference class meets a pulled-back cone",
                        witness=witness)
