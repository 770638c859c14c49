"""Line-bundle cohomology on smooth complete toric varieties.

Vanishing is decided through the non-vanishing cohomology cones in the
Picard lattice: a class has higher cohomology iff some forbidden ray set
admits an integer point in its deg-fiber.  A brute-force degree-by-degree
oracle over lattice characters cross-checks the cone method.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, lru_cache, reduce
from operator import add, mul, or_
from typing import NamedTuple

from .fans import Fan, FanError, PicBasis, ContractionStep, cartier_data
from .intlin import (identity, int_vector, kernel_vector, mat_mul, mat_vec, sparse_rank,
                     vec_gcd)
from .polyhedra import ParametricIntegerFeasibility


class BoxTooSmall(ValueError):
    """The character search box clips a nonzero contribution."""


class FanNotComplete(FanError):
    """forbidden_sets needs the faces of a complete fan, an (n-1)-sphere."""


class ForbiddenSet(NamedTuple):
    ray_indices: frozenset[int]
    degrees: tuple[int, ...]  # the H^i(X, -) the set feeds, i = betti degree + 1


@lru_cache(maxsize=None)
def _faces(fan: Fan) -> tuple[tuple[tuple[int, dict[int, int]], ...], ...]:
    """The faces of the fan as ray bitmasks, by dimension, with their boundaries.

    _faces(fan)[k] holds the k-simplices in increasing order as (mask,
    boundary).  The boundary maps the index in _faces(fan)[k - 1] of each
    facet to (-1)^j, j the place of the dropped ray in the face; on a
    vertex it is the augmentation {0: 1} onto the empty face.
    """
    masks = {sum(s) for c in fan.max_cones for k in range(1, len(c) + 1)
             for s in itertools.combinations([1 << ρ for ρ in c], k)}
    bits = [1 << ρ for ρ in range(fan.n_rays)]
    levels, index = [], {0: 0}
    for k in range(1, max(map(len, fan.max_cones)) + 1):
        level = sorted(f for f in masks if f.bit_count() == k)
        levels.append(tuple((f, {index[f ^ b]: (-1) ** j
                                 for j, b in enumerate(b for b in bits if f & b)})
                            for f in level))
        index = {f: i for i, f in enumerate(level)}
    return tuple(levels)


def _mask(rays) -> int:
    """The bitmask of an iterable of ray indices."""
    return reduce(or_, (1 << ρ for ρ in rays), 0)


def _betti(fan: Fan, subset: int) -> tuple[int, ...]:
    """Reduced Betti numbers over Q of the full subcomplex on the ray mask subset.

    A face f is in it when f & ~subset == 0.  Its faces are closed under
    taking subsets, so every dimension up to the top one has faces, and
    betti_k = #k-faces - rank d_k - rank d_{k+1}.
    """
    outside = ~subset
    counts, ranks = [], [1]  # d_0, the augmentation onto the empty face, has rank 1
    for k, level in enumerate(_faces(fan)):
        rows = [boundary for f, boundary in level if not f & outside]
        if not rows:
            break
        counts.append(len(rows))
        if k:
            ranks.append(sparse_rank(rows))
    ranks.append(0)
    betti = [c - ranks[k] - ranks[k + 1] for k, c in enumerate(counts)]
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


_masked_betti = lru_cache(maxsize=None)(_betti)


def subcomplex_betti(fan: Fan, subset) -> tuple[int, ...]:
    """Reduced Betti numbers over Q of the full subcomplex on `subset`,
    any iterable of ray indices; cached per ray mask."""
    return _masked_betti(fan, _mask(subset))


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
    full = (1 << d) - 1
    if _betti(fan, full) != (0,) * (n - 1) + (1,):
        raise FanNotComplete(f"the fan is not complete: its faces are no {n - 1}-sphere")
    found = {full: (n,)}
    faces = {f for level in _faces(fan) for f, _ in level}
    for subset in range(1, full):
        if subset.bit_count() <= d // 2 and subset not in faces:
            degrees = tuple(j + 1 for j, b in enumerate(_betti(fan, subset)) if b)
            if degrees:
                found[subset] = degrees
                found[full ^ subset] = tuple(n - q for q in reversed(degrees))
    out = [ForbiddenSet(frozenset(ρ for ρ in range(d) if s >> ρ & 1), q)
           for s, q in found.items()]
    out.sort(key=lambda f: (min(f.degrees), len(f.ray_indices), tuple(sorted(f.ray_indices))))
    return tuple(out)


def fiber_tower(pic: PicBasis, neg) -> ParametricIntegerFeasibility:
    """The lattice-point engine of the deg-fibers with negative support neg.

    neg is any iterable of ray indices; the tower is cached per ray mask.
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
    return _fiber_tower(pic, _mask(neg))


@lru_cache(maxsize=None)
def _fiber_tower(pic: PicBasis, neg: int) -> ParametricIntegerFeasibility:
    """fiber_tower's engine: each ray's exponent in the free ones, negated on neg."""
    free = pic.free_indices
    rows = [tuple(int(f == ρ) for f in free) for ρ in range(pic.n_rays)]
    for b, deg_row in zip(pic.basis_indices, pic.deg):
        rows[b] = tuple(-deg_row[f] for f in free)
    rows = [tuple(-x for x in row) if neg >> ρ & 1 else row for ρ, row in enumerate(rows)]
    return ParametricIntegerFeasibility(rows, len(free))


def fiber_rhs(pic: PicBasis, cls, neg) -> list[int]:
    """Right-hand sides of fiber_tower(pic, neg) for the class cls."""
    a = pic.lift(cls)
    return [1 + a[ρ] if ρ in neg else -a[ρ] for ρ in range(pic.n_rays)]


@lru_cache(maxsize=None)
def _circuits(pic: PicBasis) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The circuits of the ray relations, both signs, as (z, below, above).

    The integer relations sum z_rho u_rho = 0 are the z = l . deg, l in
    Z^r: deg is the identity on the basis rays, so z is l there, and z is
    primitive with l.  A circuit, a relation of minimal support, vanishes
    on r - 1 columns of deg of rank r - 1, and those columns fix it up to
    sign: one kernel_vector per (r - 1)-subset Z of the columns, C(d, r -
    1) in all, finds every circuit.  l is 0 on the basis rays in Z, so
    only the rows of deg off them and the free columns in Z are solved, a
    k x (k + 1) system with k <= min(n, r - 1).  below and above are the
    ray masks of z < 0 and z > 0.
    """
    found = {}
    for zeros in itertools.combinations(range(pic.n_rays), pic.rank - 1):
        rows = [row for row, b in zip(pic.deg, pic.basis_indices) if b not in zeros]
        l = kernel_vector(tuple(tuple(row[ρ] for row in rows) for ρ in zeros
                                if ρ not in pic.basis_indices))
        if l is not None:
            z = tuple(sum(map(mul, l, col)) for col in zip(*rows))
            found.update(dict.fromkeys((z, tuple(-x for x in z))))
    return tuple((z, _mask(ρ for ρ, x in enumerate(z) if x < 0),
                  _mask(ρ for ρ, x in enumerate(z) if x > 0)) for z in found)


def _refuter(pic: PicBasis, z) -> tuple[tuple[int, ...], int]:
    """The row (L, c) of the circuit z: L = -z on the basis rays, c = -(sum of z_rho < 0)."""
    return tuple(-z[b] for b in pic.basis_indices), -sum(x for x in z if x < 0)


def fiber_refuters(pic: PicBasis, neg) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Level-0 emptiness tests of fiber_tower(pic, neg), as pairs (L, c) on Pic.

    neg is any iterable of ray indices.  A level-0 Farkas multiplier y >=
    0 of the tower (y . rows = 0) taken with the rows' signs, z_rho = y_rho
    off neg and -y_rho on neg, is an integer relation among the rays with
    z < 0 only on neg and z > 0 only off it.  The extreme such y are the
    circuits of that sign pattern (Rockafellar, "The elementary vectors of
    a subspace of R^N", 1969), one row each.  fiber_rhs is rhs_rho = 1 +
    a_rho on neg and -a_rho off it, a = pic.lift(cls) (cls on the basis
    rays, 0 on the free ones), so y . rhs = L . cls + c with L and c of
    _refuter.  The fiber of an integer class cls is empty when some L .
    cls + c > 0 (Farkas, Schrijver 1986, section 7), and some row fires
    exactly when the level-0 test of query refutes cls: every level-0
    multiplier is a non-negative sum of extreme ones.  So fiber_feasible
    leaves that test to query; these rows serve the forbidden-set screen
    (_forbidden_refuters) and the chain cone preimages.  A certificate of
    a vanishing answer records y = |z| of the row that fired.
    """
    return _fiber_refuters(pic, _mask(neg))


@lru_cache(maxsize=None)
def _fiber_refuters(pic: PicBasis, neg: int):
    return tuple(_refuter(pic, z) for z, below, above in _circuits(pic)
                 if not below & ~neg and not above & neg)


@lru_cache(maxsize=None)
def _forbidden_refuters(fan: Fan, pic: PicBasis):
    """The refuter screen of forbidden_sets(fan), and those sets.

    One entry (L, hi, fires_hi, lo, fires_lo) per circuit pair +-z
    (_circuits) whose rows serve some set.  z's row (L, c) refutes cls when
    L . cls > hi = -c, for the sets whose bits are in fires_hi; -z's row
    (-L, c') refutes it when L . cls < lo = c', for those in fires_lo.  A
    row's c is fixed by its z, so each side has one threshold for all sets.
    """
    sets = forbidden_sets(fan)
    masks = [_mask(fs.ray_indices) for fs in sets]

    def fires(below, above):
        return sum(1 << k for k, neg in enumerate(masks) if not below & ~neg and not above & neg)

    screen = []
    for z, below, above in _circuits(pic):
        if below < above:  # one entry per pair: -z swaps below and above
            fires_hi, fires_lo = fires(below, above), fires(above, below)
            if fires_hi or fires_lo:
                L, c = _refuter(pic, z)
                screen.append((L, -c, fires_hi, sum(x for x in z if x > 0), fires_lo))
    return tuple(screen), sets


def _refuted_mask(screen, cls) -> int:
    """Bit k set when a level-0 row of the k-th forbidden set refutes cls."""
    refuted = 0
    for L, hi, fires_hi, lo, fires_lo in screen:
        value = sum(map(mul, L, cls))
        if value > hi:
            refuted |= fires_hi
        if value < lo:
            refuted |= fires_lo
    return refuted


def _refuted_masks(screen, classes) -> list[int]:
    """_refuted_mask of each class, one screen entry at a time.

    The values L . cls of all classes are built a coordinate column at a
    time.  That costs a few lists per L, so a single class goes through
    _refuted_mask: sent here as a batch of one, it made a recipes pass 9%
    slower.
    """
    columns = tuple(zip(*classes))
    refuted = [0] * len(classes)
    for L, hi, fires_hi, lo, fires_lo in screen:
        values = [0] * len(classes)
        for x, column in zip(L, columns):
            if x:
                values = list(map(add, values, column if x == 1 else map(x.__mul__, column)))
        refuted = [r | (v > hi and fires_hi) | (v < lo and fires_lo)
                   for r, v in zip(refuted, values)]
    return refuted


def _first_witness(pic: PicBasis, sets, cls, refuted: int):
    """The first of `sets` outside the mask `refuted` whose fiber has a
    point, with that point; (None, None) when there is none."""
    for k, fs in enumerate(sets):
        if not refuted >> k & 1:
            point = fiber_witness(pic, cls, fs.ray_indices)
            if point is not None:
                return fs, point
    return None, None


def _integer_class(pic: PicBasis, cls) -> tuple[int, ...]:
    """cls as ints: the level-0 rows read the fiber only at integer classes."""
    pic.check_rank(cls)
    return int_vector(cls, "class entry")


def fiber_feasible(pic: PicBasis, cls, neg) -> bool:
    """Integer point in the deg-fiber with the given negative-support set.

    The class must be integral, else ValueError.  The tower's level-0
    test refutes exactly the classes the rows of fiber_refuters do, so
    query decides every fiber on its own.
    """
    neg = frozenset(neg)
    return fiber_tower(pic, neg).query(fiber_rhs(pic, _integer_class(pic, cls), neg))


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
    screen, sets = _forbidden_refuters(fan, pic)
    return _first_witness(pic, sets, cls, _refuted_mask(screen, cls))


def higher_cohomology_witnesses(fan: Fan, pic: PicBasis, classes) -> dict:
    """has_higher_cohomology's forbidden set of each class, or None.

    Every class must be integral, else ValueError; classes of ints and the
    right width are taken as they are, in one pass.  The classes are
    screened together (_refuted_masks), and only a class that some
    forbidden set survives is searched, from its mask.  An empty list asks
    nothing of the fan.
    """
    classes = list(map(tuple, classes))
    if (set(map(len, classes)) - {pic.rank}
            or set(map(type, itertools.chain.from_iterable(classes))) - {int}):
        classes = [_integer_class(pic, cls) for cls in classes]
    if not classes:
        return {}
    screen, sets = _forbidden_refuters(fan, pic)
    full = (1 << len(sets)) - 1
    return {cls: None if refuted == full else _first_witness(pic, sets, cls, refuted)[0]
            for cls, refuted in zip(classes, _refuted_masks(screen, classes))}


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
        neg = _mask(ρ for ρ in range(fan.n_rays)
                    if sum(mi * ui for mi, ui in zip(m, fan.rays[ρ])) + a[ρ] < 0)
        # the empty support feeds H^0 once, any other its reduced Betti numbers shifted by one
        shift, betti = (1, _masked_betti(fan, neg)) if neg else (0, (1,))
        for j, b in enumerate(betti):
            dims[j + shift] += b
        if any(betti) and any(mi == lo or mi == hi for mi, (lo, hi) in zip(m, box)):
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


class StrongExceptionalVerdict(NamedTuple):
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


class ChainConeSystem(NamedTuple):
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


class ChainVerdict(NamedTuple):
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
