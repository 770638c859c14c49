"""Quivers of sections and quiver-moduli embedding certificates.

Vertices are the bundles of an ordered effective collection; arrows are
irreducible torus-invariant sections.  On the total space of the
canonical bundle the same construction produces the cyclic covering
quiver whose anticanonical cycles feed the diagonal-resolution cells.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .cohomology import fiber_rhs, fiber_tower
from .fans import Fan, PicBasis, nef_ample_test, vertex_divisors
from .intlin import IntVector, int_vector
from .polyhedra import (
    UnboundedSearch,
    conjunction_forbid,
    polytope_lattice_points,
    simplex_feasible,
)


class Arrow(NamedTuple):
    tail: int
    head: int
    div: IntVector


class QuiverOfSections(NamedTuple):
    bundles: tuple[IntVector, ...]
    arrows: tuple[Arrow, ...]
    cyclic: bool = False
    n_variables: int = 0

    @property
    def n_vertices(self) -> int:
        return len(self.bundles)

    def arrows_from(self, v: int):
        return [a for a in self.arrows if a.tail == v]


class QuiverError(ValueError):
    pass


def _pruned_fiber(pic: PicBasis, cls, staircase) -> list[IntVector]:
    """Fiber lattice points of {x >= 0, deg x = cls} under the staircase.

    The engine fixes the free-ray exponents one at a time; a basis
    exponent is fixed once every free ray of its deg row is.  A monomial
    f of the staircase becomes one check at the depth where its last
    support exponent is fixed: x_rho >= f_rho on its support, a
    conjunction of rows over the fixed prefix, which forbids one closed
    interval of the exponent fixed there (polyhedra.conjunction_forbid).
    So a branch dies as soon as its fixed exponents dominate a staircase
    monomial; the full fiber may be huge, the survivors never are.
    """
    tower = fiber_tower(pic, ())
    depth = _search_depths(pic)
    a = pic.lift(cls)
    # the exponent x_rho is base_rows[rho] . t + a_rho, so x_rho >= v
    # reads base_rows[rho] . t >= v - a_rho; at v = 0 these are the fiber
    # rows, with right-hand sides -a
    checks = [[] for _ in pic.free_indices]
    for f in staircase:
        support = [ρ for ρ, v in enumerate(f) if v]
        checks[max(depth[ρ] for ρ in support)].append(
            tuple((ρ, f[ρ] - a[ρ]) for ρ in support))
    found = tower.points([-x for x in a], conjunction_forbid(tower.base_rows, checks))
    return [pic.lift(cls, t) for t in found]


@lru_cache(maxsize=None)
def _search_depths(pic: PicBasis) -> tuple[int, ...]:
    """Per ray, the depth of the fiber search at which its exponent is fixed."""
    free = pic.free_indices
    depth = [0] * pic.n_rays
    for k, f in enumerate(free):
        depth[f] = k
    for row, b in zip(pic.deg, pic.basis_indices):
        depth[b] = max((k for k, f in enumerate(free) if row[f]), default=0)
    return tuple(depth)


def _level_arrows(pic: PicBasis, bundles, top: int) -> list[tuple]:
    """Irreducible sections (tail, head, div, level) of levels 0..top.

    A level-p section from bundle i to bundle j is a section of
    L_j - L_i - p K_X; it is irreducible unless it is f + g with f a
    nonzero section from i to some k and g a nonzero section from k to j.
    Level by level, each tail i visits its heads j in vertex order, and
    one search of the fiber of (i, j) skips every monomial that dominates
    a staircase monomial: the arrows out of i of the lower levels and
    those of this level to heads k < j.  Every survivor is an arrow:

    - if e = f + g factors through k and f has a lower level, e dominates
      f, which by induction dominates a lower-level arrow out of i;
    - otherwise g is a nonzero level-0 section from k to j, so k < j in
      the Hom order, and f, or an arrow that f dominates, is already in
      the staircase;
    - conversely, if e != a dominates an arrow a from i to k, then e - a
      is a nonzero section from k to j, so e is not irreducible;
    - two survivors of one class never dominate each other, as their
      difference would be a nonzero effective divisor of class 0.

    Level 0 has no loops and must run up the vertex order: for j < i one
    feasibility query of the fiber raises QuiverError at the first such
    pair with a section.  The list is in the order found.
    """
    bundles = [tuple(b) for b in bundles]
    r = len(bundles)
    minus_omega = tuple(-w for w in pic.canonical_class())
    tower = fiber_tower(pic, ())
    out_divs = [[] for _ in range(r)]
    found = []
    try:
        for p in range(top + 1):
            for i in range(r):
                staircase = out_divs[i]
                for j in range(r):
                    cls = tuple(bj - bi + p * w
                                for bi, bj, w in zip(bundles[i], bundles[j], minus_omega))
                    if p == 0 and j <= i:
                        if j < i and tower.query(fiber_rhs(pic, cls, ())):
                            raise QuiverError(
                                f"collection is not Hom-ordered: sections from {i} to {j}")
                        continue
                    arrows = _pruned_fiber(pic, cls, staircase)
                    found.extend((i, j, e, p) for e in arrows)
                    staircase.extend(arrows)
    except UnboundedSearch:
        raise QuiverError("unbounded section fiber") from None
    return found


def build_quiver_of_sections(fan: Fan, pic: PicBasis, bundles) -> QuiverOfSections:
    """Acyclic quiver of sections of a Hom-ordered collection: level 0."""
    arrows = (Arrow(i, j, e) for i, j, e, _ in sorted(_level_arrows(pic, bundles, 0)))
    return QuiverOfSections(tuple(tuple(b) for b in bundles), tuple(arrows),
                            cyclic=False, n_variables=pic.n_rays)


def covering_quiver_on_y(fan: Fan, pic: PicBasis, bundles) -> QuiverOfSections:
    """Arrows of degree 0 and 1 of the pulled-back collection on tot(omega).

    The degree is an arrow's final exponent, that of rho_tot, and its
    level in _level_arrows.  Method 2 reads no other: every anticanonical
    cycle has divisor (1, ..., 1), so it holds exactly one degree-1 arrow
    and none of degree >= 2.  Each degree-1 search, one per (tail, head),
    is pruned by the degree-0 arrows out of the tail and by the degree-1
    arrows found before it out of the same tail, so it returns arrows only.
    """
    found = _level_arrows(pic, bundles, 1)
    arrows = (Arrow(i, j, tuple(e) + (p,)) for i, j, e, p in sorted(found))
    return QuiverOfSections(tuple(tuple(b) for b in bundles), tuple(arrows),
                            cyclic=True, n_variables=pic.n_rays + 1)


# ---------------------------------------------------------------- stability

class StabilityReport(NamedTuple):
    generic: bool
    failures: tuple = ()
    certificates: tuple = ()


def torus_fixed_bits(quiver: QuiverOfSections, cone) -> tuple[int, ...]:
    """Arrow bits of the torus-fixed representation at a maximal cone."""
    bits = []
    for a in quiver.arrows:
        off = any(a.div[ρ] > 0 for ρ in cone)
        bits.append(0 if off else 1)
    return tuple(bits)


def _path_to(quiver, adjacency, start, targets):
    """A nonzero-arrow path from start into `targets` and the vertices seen.

    adjacency[v] lists the nonzero arrows out of v as (arrow index, head),
    in arrow order.  The path is a tuple of arrow indices, or None; then
    the vertices seen are every vertex that start reaches.
    """
    prev = {start: None}
    queue = [start]
    for v in queue:
        if v in targets:
            path = []
            while prev[v] is not None:
                idx = prev[v]
                path.append(idx)
                v = quiver.arrows[idx].tail
            return tuple(reversed(path)), prev.keys()
        for idx, head in adjacency[v]:
            if head not in prev:
                prev[head] = idx
                queue.append(head)
    return None, prev.keys()


def _checked_theta(quiver: QuiverOfSections, theta) -> tuple[int, ...]:
    """theta as ints, else QuiverError unless it is a weight of the closed
    chamber of the special parameter: one entry per vertex, each of an
    integer type, sum zero, a negative weight at the source and
    nonnegative weights elsewhere."""
    try:
        theta = int_vector(theta, "theta entry")
    except ValueError as exc:
        raise QuiverError(str(exc)) from None
    if len(theta) != quiver.n_vertices:
        raise QuiverError(f"theta has {len(theta)} entries, the quiver "
                          f"{quiver.n_vertices} vertices")
    if sum(theta) != 0:
        raise QuiverError("theta must be a weight: its entries sum to zero")
    if theta[0] >= 0 and quiver.n_vertices > 1:
        raise QuiverError("expected a negative weight at the source vertex")
    if any(t < 0 for t in theta[1:]):
        raise QuiverError("weights away from the source must be nonnegative")
    return theta


def check_theta_generic(quiver: QuiverOfSections, fan: Fan, theta) -> StabilityReport:
    """Torus-fixed-point genericity certificates for Y_theta ~= X.

    Per maximal cone this produces the certificate pair the verification
    procedure calls for: a nonzero-arrow path from the source to every
    positively-weighted vertex, and from every other vertex a nonzero-arrow
    path to some positively-weighted vertex.  theta must assign a negative
    weight to the source and nonnegative weights elsewhere (the closed
    chamber of the special parameter).  Each cone lists the nonzero arrows
    out of every vertex once, in arrow order, and every breadth-first
    search reads those lists.
    """
    theta = _checked_theta(quiver, theta)
    positives = {i for i, t in enumerate(theta) if t > 0}
    failures = []
    certs = []
    for cone in fan.max_cones:
        bits = torus_fixed_bits(quiver, cone)
        adjacency = [[] for _ in range(quiver.n_vertices)]
        for idx, a in enumerate(quiver.arrows):
            if bits[idx]:
                adjacency[a.tail].append((idx, a.head))
        cone_cert = {"cone": cone, "from_source": {}, "to_positive": {}}
        bad = None
        for t in sorted(positives):
            path, _ = _path_to(quiver, adjacency, 0, {t})
            if path is None:
                bad = (cone, "source does not reach the positive vertex", t)
                break
            cone_cert["from_source"][t] = path
        for v in range(1, quiver.n_vertices):
            if bad:
                break
            path, reached = _path_to(quiver, adjacency, v, positives)
            if path is None:
                bad = (cone, "closed set with nonpositive weight", sorted(reached))
                break
            cone_cert["to_positive"][v] = path
        if bad:
            failures.append(bad)
        else:
            certs.append(cone_cert)
    return StabilityReport(not failures, tuple(failures), tuple(certs))


# ------------------------------------------------------------- embeddings

class EmbeddingVerdict(NamedTuple):
    ok: bool
    route: str
    detail: str = ""
    product_class: IntVector | None = None
    vertex_matrix: tuple | None = None


def minkowski_embedding_check(fan: Fan, pic: PicBasis, bundles) -> EmbeddingVerdict:
    """Nef route: product ample and Minkowski sum of section polytopes full.

    Each distinct vertex of P_{product} is tested for membership in the
    sum of the P_{L_i} by one support LP (_in_minkowski_sum); containment
    the other way is automatic.
    """
    bundles = [tuple(b) for b in bundles]
    for b in bundles:
        if not nef_ample_test(fan, pic, b)[0]:
            return EmbeddingVerdict(False, "nef",
                                    detail=f"bundle {b} is not nef; use the Y_theta route")
    product = tuple(sum(b[i] for b in bundles) for i in range(pic.rank))
    nef, ample = nef_ample_test(fan, pic, product)
    if not ample:
        return EmbeddingVerdict(False, "nef", detail="product bundle is not ample",
                                product_class=product)
    # one Cartier vertex per maximal cone; all are sections, as product is ample
    big_vertices = list(dict.fromkeys(vertex_divisors(fan, pic, product)))
    for v in big_vertices:
        if not _in_minkowski_sum(pic, bundles, v):
            return EmbeddingVerdict(False, "nef",
                                    detail=f"vertex {v} missing from the Minkowski sum",
                                    product_class=product)
    matrix = tuple(tuple(v[ρ] for v in big_vertices) for ρ in range(pic.n_rays))
    return EmbeddingVerdict(True, "nef", product_class=product, vertex_matrix=matrix)


def _in_minkowski_sum(pic: PicBasis, bundles, v) -> bool:
    """Is the divisor v a sum of points x_i of the section polytopes P_{L_i}?

    That is the block system {x_i >= 0, deg x_i = L_i, sum_i x_i = v},
    one rational LP.  It is solved over the support of v only: where
    v_rho = 0, x >= 0 and sum_i x_{i,rho} = 0 force every x_{i,rho} = 0,
    so those columns and their coupling rows drop and the feasibility is
    unchanged.  A column with v_rho < 0 stays, and its coupling row then
    has no nonnegative solution, as in the full system.
    """
    support = [ρ for ρ, c in enumerate(v) if c]
    s = len(support)
    n = s * len(bundles)
    rows, rhs = [], []
    for i, b in enumerate(bundles):
        for deg_row, b_row in zip(pic.deg, b, strict=True):
            row = [0] * n
            row[i * s:(i + 1) * s] = [deg_row[ρ] for ρ in support]
            rows.append(row)
            rhs.append(b_row)
    for k, ρ in enumerate(support):
        row = [0] * n
        row[k::s] = [1] * len(bundles)
        rows.append(row)
        rhs.append(v[ρ])
    return simplex_feasible(rows, rhs, n) is not None


def pic_of_theta(bundles, theta) -> IntVector:
    rank = len(bundles[0])
    return tuple(sum(t * b[i] for t, b in zip(theta, bundles, strict=True))
                 for i in range(rank))


def theta_fiber_surjectivity_check(quiver: QuiverOfSections, fan: Fan,
                                   pic: PicBasis, theta) -> EmbeddingVerdict:
    """Non-nef route: every section monomial of pic(theta) is a path-divisor sum.

    Integer flows with divergence theta on an acyclic quiver decompose into
    source-to-sink unit paths, so the check reduces to a sumset of per-target
    path-divisor sets.

    It is a count on the free coordinates of the Pic basis
    (pic.free_indices), the variables of fiber_tower: a divisor of known
    class is fixed by them (PicBasis.lift).  A path from the source to v
    has class L_v - L_0, so a sum of one path divisor per target has class
    sum_t theta_t (L_t - L_0) = pic(theta): it is a section monomial.  The
    sumset lies in the fiber, and every monomial is reached exactly when
    the two have the same size.  Only a failure looks up which are missing.

    The sumset runs on packed integers (Kronecker substitution): free
    coordinates t become sum_k t_k << (B k), so a sum is one int addition.
    Packing is additive, and it is injective on vectors whose entries all
    lie in [0, 2^B); B is the bit length of the largest free coordinate M
    over the vertices of P_{pic(theta)}.  Every target has a path (checked
    first, in target order), so every partial sum plus one path divisor
    per remaining target is a final sum, and all of these are >= 0: each
    partial sum is dominated by a final sum.  A final sum is a lattice
    point of P_{pic(theta)}, so each of its coordinates is at most its
    largest value at a vertex.  So every entry of every sum, partial or
    final, and of every fiber point lies in [0, M], no carry crosses a
    field, and distinct sums stay distinct.

    A theta off the chamber (_checked_theta) raises QuiverError before
    any work, as in check_theta_generic.
    """
    if quiver.cyclic:
        raise QuiverError("the flow polytope argument needs the acyclic quiver on X")
    theta = _checked_theta(quiver, theta)
    cls = pic_of_theta(quiver.bundles, theta)
    nef, ample = nef_ample_test(fan, pic, cls)
    if not ample:
        return EmbeddingVerdict(False, "theta", detail="pic(theta) is not ample",
                                product_class=cls)
    if any(a.tail >= a.head for a in quiver.arrows):
        raise QuiverError("arrows must run up the vertex order")
    path_divs = _path_divisors(quiver, pic.free_indices)
    targets = []
    for i, t in enumerate(theta):
        if i and t > 0:
            targets.extend([i] * t)
    for tgt in targets:
        if not path_divs[tgt]:
            return EmbeddingVerdict(False, "theta",
                                    detail=f"no path from the source to vertex {tgt}")
    width = _field_width(fan, pic, cls)
    sums = _packed_sumset([path_divs[tgt] for tgt in targets], width)
    fiber = polytope_lattice_points(fiber_tower(pic, ()), fiber_rhs(pic, cls, ()))
    if len(sums) < len(fiber):
        missing = sorted(pic.lift(cls, t) for t in fiber if _pack(t, width) not in sums)
        return EmbeddingVerdict(False, "theta",
                                detail=f"{len(missing)} section monomials unreachable, "
                                       f"first {missing[0]}",
                                product_class=cls)
    return EmbeddingVerdict(True, "theta", product_class=cls,
                            detail=f"{len(fiber)} section monomials realized")


def _path_divisors(quiver: QuiverOfSections, free) -> list[set[IntVector]]:
    """Per vertex, the free coordinates of the path divisors from the source.

    Arrows run up; only the coordinates of the rays in `free` are summed.
    """
    path_divs: list[set[IntVector]] = [set() for _ in range(quiver.n_vertices)]
    path_divs[0] = {(0,) * len(free)}
    for v in range(quiver.n_vertices):
        for a in quiver.arrows_from(v):
            step = [a.div[f] for f in free]
            for s in path_divs[v]:
                path_divs[a.head].add(tuple(x + y for x, y in zip(s, step)))
    return path_divs


def _field_width(fan: Fan, pic: PicBasis, cls) -> int:
    """Bits per free ray that hold every free coordinate of a section monomial of cls."""
    return max(v[f] for v in vertex_divisors(fan, pic, cls)
               for f in pic.free_indices).bit_length()


def _pack(e, width: int) -> int:
    """The vector e as one int, `width` bits per entry (Kronecker substitution)."""
    return sum(c << (width * k) for k, c in enumerate(e))


def _packed_sumset(summands, width: int) -> set[int]:
    """The packed sums s_1 + ... + s_k, one s_j from each vector set summands[j]."""
    sums = {0}
    for divs in summands:
        packed = {_pack(e, width) for e in divs}
        sums = {s + p for s in sums for p in packed}
    return sums
