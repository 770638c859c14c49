"""Line-bundle cohomology on smooth complete toric varieties.

Vanishing is decided through the non-vanishing cohomology cones in the
Picard lattice: a class has higher cohomology iff some forbidden ray set
admits an integer point in its deg-fiber.  A brute-force degree-by-degree
oracle over lattice characters cross-checks the cone method.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from operator import itemgetter, mul, or_

from .fans import Fan, FanError, PicBasis, ContractionStep, cartier_data
from .intlin import identity, int_vector, mat_mul, mat_vec, rank, vec_gcd
from .polyhedra import ParametricIntegerFeasibility, fourier_motzkin, level0_pullback


class BoxTooSmall(ValueError):
    """The character search box clips a nonzero contribution."""


class FanNotComplete(FanError):
    """forbidden_sets needs the faces of a complete fan, an (n-1)-sphere."""


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
    """Reduced Betti numbers over Q of the full subcomplex on `subset`.

    Its faces are closed under taking subsets, so every dimension up to
    the top one has faces.
    """
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in _fan_faces(fan):
        if f <= subset:
            by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    ranks = [1]  # the augmentation onto the empty face, on a nonempty complex
    for k in range(1, len(by_dim)):
        index = {f: i for i, f in enumerate(by_dim[k - 1])}
        rows = [[0] * len(index) for _ in by_dim[k]]
        for row, f in zip(rows, by_dim[k]):
            for j in range(len(f)):
                row[index[f[:j] + f[j + 1:]]] = (-1) ** j
        ranks.append(rank(rows))
    ranks.append(0)
    betti = [len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(len(by_dim))]
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


@lru_cache(maxsize=None)
def forbidden_sets(fan: Fan) -> tuple[ForbiddenSet, ...]:
    """All nonempty ray subsets whose full subcomplex has reduced cohomology.

    The cones of a complete simplicial fan triangulate the unit sphere of
    N_R, so the faces form an (n-1)-sphere S; a face spans an acyclic
    simplex.  By Alexander duality in S (Bjorner-Tancer 2009), a proper I
    feeds H^q iff its complement feeds H^{n-q}.  So only the non-faces of
    at most d/2 rays are ranked, each forbidden one is mirrored, and the
    full set must feed exactly H^n, as S does, else FanNotComplete.
    """
    d, n = fan.n_rays, fan.dim
    full = frozenset(range(d))
    if subcomplex_betti(fan, full) != (0,) * (n - 1) + (1,):
        raise FanNotComplete(f"the fan is not complete: its faces are no {n - 1}-sphere")
    found = {full: (n,)}
    small = {frozenset(c) for k in range(1, d // 2 + 1)
             for c in itertools.combinations(range(d), k)}
    for subset in small - _fan_faces(fan):
        degrees = tuple(j + 1 for j, b in enumerate(subcomplex_betti(fan, subset)) if b)
        if degrees:
            found[subset] = degrees
            found[full - subset] = tuple(n - q for q in reversed(degrees))
    out = [ForbiddenSet(s, q) for s, q in found.items()]
    out.sort(key=lambda f: (min(f.degrees), len(f.ray_indices), tuple(sorted(f.ray_indices))))
    return tuple(out)


def _fiber_rows(pic: PicBasis, neg) -> list[tuple[int, ...]]:
    """fiber_tower's rows: each ray's exponent in the free ones, negated on neg."""
    free = pic.free_indices
    rows = []
    for ρ in range(pic.n_rays):
        if ρ in free:
            row = tuple(1 if f == ρ else 0 for f in free)
        else:
            deg_row = pic.deg[pic.basis_indices.index(ρ)]
            row = tuple(-deg_row[f] for f in free)
        rows.append(tuple(-x for x in row) if ρ in neg else row)
    return rows


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
    return ParametricIntegerFeasibility(_fiber_rows(pic, neg), len(pic.free_indices))


def fiber_rhs(pic: PicBasis, cls, neg) -> list[int]:
    """Right-hand sides of fiber_tower(pic, neg) for the class cls."""
    a = pic.lift(cls)
    return [1 + a[ρ] if ρ in neg else -a[ρ] for ρ in range(pic.n_rays)]


@lru_cache(maxsize=None)
def _level0_multipliers(pic: PicBasis, neg: frozenset) -> tuple[tuple[int, ...], ...]:
    """The level-0 Fourier-Motzkin multipliers of the fiber rows of neg.

    The rows of the complement are the rows of neg negated, and
    eliminating from negated rows swaps the lower and upper rows of each
    step, so it yields the same multipliers: one elimination serves both
    sets, and neg must be the one without ray 0.
    """
    levels = fourier_motzkin(_fiber_rows(pic, neg), len(pic.free_indices))
    return tuple(mult for _, mult in levels[0])


@lru_cache(maxsize=None)
def fiber_refuters(pic: PicBasis, neg: frozenset) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Level-0 emptiness tests of fiber_tower(pic, neg), as pairs (L, c) on Pic.

    fiber_rhs is affine in the class: rhs_rho = 1 + a_rho on neg and
    -a_rho off neg, where a = pic.lift(cls) is cls on the basis rays and 0
    on the free ones.  Each pair is a level-0 Farkas multiplier row of the
    tower pulled back through that map (level0_pullback): the fiber of an
    integer class cls is empty when some L . cls + c > 0, and these rows
    are the whole level-0 test of query.  They are the multipliers a
    certificate of a vanishing answer records.  The multipliers come from
    one elimination per complementary pair {neg, V - neg}, and no tower
    is built.
    """
    matrix = [[0] * pic.rank for _ in range(pic.n_rays)]
    for j, b in enumerate(pic.basis_indices):
        matrix[b][j] = 1 if b in neg else -1
    offset = [1 if ρ in neg else 0 for ρ in range(pic.n_rays)]
    pair = neg if 0 not in neg else frozenset(range(pic.n_rays)) - neg
    return level0_pullback(_level0_multipliers(pic, pair), matrix, offset)


@lru_cache(maxsize=None)
def _forbidden_refuters(fan: Fan, pic: PicBasis):
    """The refuter screen of forbidden_sets(fan), and those sets.

    A fiber_refuters row (L, c) of the k-th set refutes cls when L . cls
    exceeds its firing threshold tau = -c.  Per distinct L the screen holds
    (L, its rows' thresholds ascending, prefix masks): masks[i] has bit k
    of each set among the first i rows, so the sets L refutes at cls are
    masks[bisect_left(taus, L . cls)].
    """
    sets = forbidden_sets(fan)
    rows = sorted((L, -c, k) for k, fs in enumerate(sets)
                  for L, c in fiber_refuters(pic, fs.ray_indices))
    screen = []
    for L, group in itertools.groupby(rows, itemgetter(0)):
        _, taus, ks = zip(*group)
        masks = itertools.accumulate((1 << k for k in ks), or_, initial=0)
        screen.append((L, taus, tuple(masks)))
    return tuple(screen), sets


def _unrefuted(fan: Fan, pic: PicBasis, cls):
    """forbidden_sets in order, less those a level-0 row refutes at cls."""
    screen, sets = _forbidden_refuters(fan, pic)
    refuted = 0
    for L, taus, masks in screen:
        refuted |= masks[bisect_left(taus, sum(map(mul, L, cls)))]
    return (fs for k, fs in enumerate(sets) if not refuted >> k & 1)


def _refuted(rows, cls) -> bool:
    return any(sum(map(mul, L, cls)) + c > 0 for L, c in rows)


def _integer_class(pic: PicBasis, cls) -> tuple[int, ...]:
    """cls as ints: the level-0 rows read the fiber only at integer classes."""
    pic.check_rank(cls)
    return int_vector(cls, "class entry")


def fiber_feasible(pic: PicBasis, cls, neg) -> bool:
    """Integer point in the deg-fiber with the given negative-support set.

    The class must be integral, else ValueError.  The rows of
    fiber_refuters decide most empty fibers; the rest are searched.
    """
    neg = frozenset(neg)
    cls = _integer_class(pic, cls)
    if _refuted(fiber_refuters(pic, neg), cls):
        return False
    return fiber_tower(pic, neg).query(fiber_rhs(pic, cls, neg))


def has_higher_cohomology(fan: Fan, pic: PicBasis, cls) -> tuple[bool, ForbiddenSet | None]:
    """Cone-based test: some forbidden fiber admits an integer point.

    The class must be integral, else ValueError.  The forbidden set is
    higher_cohomology_witness's, the first whose fiber has a point.
    """
    hit, _ = higher_cohomology_witness(fan, pic, cls)
    return hit is not None, hit


def fiber_witness(pic: PicBasis, cls, neg):
    """The first integer point of the deg-fiber, in ray exponents, or None."""
    neg = frozenset(neg)
    found = fiber_tower(pic, neg).points(fiber_rhs(pic, cls, neg), first=True)
    return pic.lift(cls, found[0]) if found else None


def higher_cohomology_witness(fan: Fan, pic: PicBasis, cls):
    """has_higher_cohomology's forbidden set together with a point of its fiber.

    One first-point search per forbidden set, in the same order, skipping
    the fibers a level-0 row refutes (they are empty); returns
    (ForbiddenSet, ray exponents), or (None, None) without higher cohomology.
    """
    cls = _integer_class(pic, cls)
    for fs in _unrefuted(fan, pic, cls):
        point = fiber_witness(pic, cls, fs.ray_indices)
        if point is not None:
            return fs, point
    return None, None


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


def strong_exceptional_check(fan: Fan, pic: PicBasis, bundles) -> StrongExceptionalVerdict:
    """Higher-Ext vanishing for all ordered pairs, and the Hom order.

    Pairs with the same difference class ask each question once.
    """
    bundles = [tuple(b) for b in bundles]
    if len(set(bundles)) != len(bundles):
        return StrongExceptionalVerdict(False, failure="bundles are not pairwise distinct")
    r = len(bundles)
    ext = cache(lambda cls: has_higher_cohomology(fan, pic, cls))
    hom = cache(lambda cls: is_effective(pic, cls))

    def diff(s, t):
        return tuple(bt - bs for bs, bt in zip(bundles[s], bundles[t]))

    for s in range(r):
        for t in range(r):
            if s == t:
                continue
            bad, fs = ext(diff(s, t))
            if bad:
                return StrongExceptionalVerdict(
                    False, failure="higher cohomology of a difference class",
                    witness_pair=(s, t), witness_set=fs.ray_indices)
    # Hom classes effective around a cycle of distinct bundles would sum to
    # a nonzero effective divisor of class 0, which a complete X does not
    # have; so the Hom digraph is acyclic and some vertex is always free.
    edges = {(s, t) for s in range(r) for t in range(r) if s != t and hom(diff(s, t))}
    order = []
    remaining = set(range(r))
    while remaining:
        pick = min((v for v in remaining if not any((u, v) in edges for u in remaining)),
                   key=lambda v: (bundles[v], v))
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
        current = identity(r0)
        gammas.append(current)
        for step in chain:
            current = mat_mul(step.gamma, current)
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

    def preimage_halfspaces(self, k: int, fs: ForbiddenSet):
        """Halfspace presentation of the level-k cone preimage in Pic(X_0)_R.

        The rows (L, c) of fiber_refuters are exact over R: the fiber of a
        class is empty as a polyhedron exactly when some L . cls + c > 0
        (Fourier-Motzkin projects exactly).  So the cone is {cls : -L . cls
        >= c}, and substituting cls = gamma_k v and dividing by the gcd g of
        the pulled-back coefficients gives (-L gamma_k / g) . v >= c / g.
        Keeps the largest right-hand side per row and drops the rows that
        never bind.
        """
        _, pic = self.level_fan_pic(k)
        columns = tuple(zip(*self.gammas[k]))
        best = {}
        for L, c in fiber_refuters(pic, fs.ray_indices):
            pulled = tuple(-sum(map(mul, L, col)) for col in columns)
            g = vec_gcd(pulled) or 1
            key = tuple(x // g for x in pulled)
            rhs = Fraction(c, g)
            if key not in best or rhs > best[key]:
                best[key] = rhs
        return [(key, rhs) for key, rhs in best.items() if any(key) or rhs > 0]


@dataclass(frozen=True)
class ChainVerdict:
    ok: bool
    per_level: tuple  # (level, image collection, verdict bool)
    failure: str = ""
    witness: tuple | None = None


def strong_exceptional_along_chain(chain, bundles) -> ChainVerdict:
    """Difference classes must avoid the pulled-back cones of every level.

    Levels are scanned in order; the witness is the first sorted difference
    class whose image has higher cohomology at the first level where any
    does, and that level and every later one fail.
    """
    system = ChainConeSystem.from_chain(chain)
    bundles = [tuple(b) for b in bundles]
    diffs = sorted({tuple(t - s for s, t in zip(a, b))
                    for a in bundles for b in bundles if a != b})

    def first_hit(k):
        # distinct classes may share an image; each image is asked once
        ext = cache(lambda img: has_higher_cohomology(*system.level_fan_pic(k), img))
        for v in diffs:
            bad, fs = ext(mat_vec(system.gammas[k], v))
            if bad:
                return v, k, tuple(sorted(fs.ray_indices))
        return None

    witness = None
    per_level = []
    for k in range(system.levels):
        witness = witness or first_hit(k)
        image = []
        for b in bundles:
            img = tuple(mat_vec(system.gammas[k], b))
            if img not in image:
                image.append(img)
        per_level.append((k, tuple(image), witness is None))
    return ChainVerdict(witness is None, tuple(per_level),
                        failure="" if witness is None
                        else "difference class meets a pulled-back cone",
                        witness=witness)
