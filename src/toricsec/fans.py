"""Fans, lattice polytopes, divisor classes and contractions.

A fan stores primitive ray generators and maximal cones only; faces are
derived on demand.  All varieties in scope are smooth and complete (their
fans simplicial), except total spaces of canonical bundles which are
smooth but not complete.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from .intlin import (
    IntMatrix,
    IntVector,
    det,
    identity,
    int_vector,
    invert_unimodular,
    kernel_vector,
    mat,
    mat_mul,
    mat_vec,
    rank,
    transpose,
    vec_gcd,
)


class FanError(ValueError):
    pass


class PicRankError(ValueError):
    """A divisor class whose length is not the rank of Pic."""


class _FanFields(NamedTuple):
    dim: int
    rays: tuple[IntVector, ...]
    max_cones: tuple[tuple[int, ...], ...]
    label: str = ""


class Fan(_FanFields):
    """Rays as integer tuples and maximal cones as sorted ray-index tuples.

    Every construction, pickle and copy included, checks the input and
    raises FanError on a malformed fan.
    """

    __slots__ = ()

    def __new__(cls, dim, rays, max_cones, label=""):
        try:
            rays = tuple(int_vector(r, "ray entry") for r in rays)
            max_cones = tuple(tuple(sorted(int_vector(c, "cone entry"))) for c in max_cones)
        except ValueError as exc:
            raise FanError(str(exc)) from None
        for r in rays:
            if len(r) != dim:
                raise FanError(f"ray {r} has wrong dimension")
            if vec_gcd(r) != 1:
                raise FanError(f"ray {r} is not primitive")
        for c in max_cones:
            if any(i < 0 or i >= len(rays) for i in c):
                raise FanError(f"cone {c} references a missing ray")
            if len(set(c)) != len(c):
                raise FanError(f"cone {c} repeats a ray")
        return super().__new__(cls, dim, rays, max_cones, label)

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def is_face(self, ray_set) -> bool:
        s = set(ray_set)
        return any(s.issubset(c) for c in self.max_cones)

    def cone_matrix(self, cone) -> IntMatrix:
        return mat([self.rays[i] for i in cone])


class FanReport(NamedTuple):
    smooth: bool
    complete: bool
    fano: bool
    errors: tuple[str, ...] = ()


def _adjacency_connected(fan: Fan) -> bool:
    cones = fan.max_cones
    if not cones:
        return False
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(len(cones)):
            if j not in seen and len(set(cones[i]) & set(cones[j])) >= fan.dim - 1:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(cones)


def validate_fan(fan: Fan) -> FanReport:
    """Smoothness, completeness and the reflexive (Fano) property."""
    errors = []
    smooth = True
    for c in fan.max_cones:
        if len(c) != fan.dim:
            smooth = False
            errors.append(f"cone {c} is not simplicial of full dimension")
            continue
        if abs(det(fan.cone_matrix(c))) != 1:
            smooth = False
            errors.append(f"cone {c} has ray determinant != +-1")
    complete = False
    if all(len(c) == fan.dim for c in fan.max_cones):
        # every codim-1 face shared by exactly two maximal cones, connected
        counts: dict[tuple[int, ...], int] = {}
        for c in fan.max_cones:
            for facet in itertools.combinations(c, fan.dim - 1):
                counts[facet] = counts.get(facet, 0) + 1
        complete = bool(fan.max_cones) and all(v == 2 for v in counts.values()) \
            and _adjacency_connected(fan)
        if not complete:
            bad = [f for f, v in counts.items() if v != 2][:3]
            if bad:
                errors.append(f"codim-1 faces not paired: {bad}")
    fano = smooth and complete and _anticanonical_ample(fan)
    return FanReport(smooth, complete, fano, tuple(errors))


def _anticanonical_ample(fan: Fan) -> bool:
    """-K is ample: <m_sigma, u_rho> >= 0 for every sigma and rho off it.

    m_sigma = chart . (-1, ..., -1) is the Cartier vertex of -K on sigma,
    and the ampleness criterion <m_sigma, u_rho> > -1 reads >= 0 on
    integers (Cox-Little-Schenck, Toric Varieties, 2011, 6.1).  Then
    conv(sigma's rays) is a facet of conv(rays) at lattice distance 1,
    with no other ray on it, for every sigma, and as the codim-1 faces
    pair up these facets close up into the whole boundary: the same
    verdict as asking the fan to be the face fan of a reflexive hull.
    """
    for cone, chart in cone_charts(fan).items():
        m = [-sum(row) for row in chart]
        if any(sum(map(mul, m, fan.rays[ρ])) < 0
               for ρ in range(fan.n_rays) if ρ not in cone):
            return False
    return True


def hull_facets(points, dim):
    """Facets of conv(points) as (normal w, c, tight index set), w.x >= c.

    The points must affinely span dim, else FanError.  Each dim-subset of
    affinely independent points spans a hyperplane whose normal is the
    cofactor vector of its difference matrix; it is a facet when no point
    lies strictly on both sides.
    """
    pts = [tuple(p) for p in points]
    if not pts or rank(tuple(tuple(x - y for x, y in zip(p, pts[0]))
                             for p in pts[1:])) != dim:
        raise FanError("points do not span a full-dimensional hull")
    facets = {}
    for subset in itertools.combinations(range(len(pts)), dim):
        base = pts[subset[0]]
        w = kernel_vector(tuple(tuple(pts[i][k] - base[k] for k in range(dim))
                                for i in subset[1:]))
        if w is None:
            continue
        c = sum(a * b for a, b in zip(w, base))
        vals = [sum(a * b for a, b in zip(w, p)) for p in pts]
        if all(v >= c for v in vals):
            pass
        elif all(v <= c for v in vals):
            w = tuple(-x for x in w)
            c = -c
            vals = [-v for v in vals]
        else:
            continue
        tight = tuple(i for i, v in enumerate(vals) if v == c)
        facets[(w, c)] = tight
    return [(w, c, tight) for (w, c), tight in facets.items()]


def _face_fan_cones(facets) -> tuple[tuple[int, ...], ...]:
    """Maximal cones of the face fan: the tight ray sets of the hull facets."""
    for w, c, _ in facets:
        if c >= 0:
            raise FanError("origin is not interior to the hull of the rays")
    return tuple(sorted(tight for _, _, tight in facets))


def fan_from_rays(dim: int, rays, label: str = "") -> Fan:
    """Face fan of conv(rays); the origin must be interior."""
    cones = _face_fan_cones(hull_facets(rays, dim))
    return Fan(dim, tuple(tuple(r) for r in rays), cones, label=label)


class _PicFields(NamedTuple):
    basis_indices: tuple[int, ...]
    deg: IntMatrix  # r x d


class PicBasis(_PicFields):
    """A choice of ray classes forming a Z-basis of Pic.

    deg is the matrix of the quotient map Z^{Sigma(1)} -> Pic; lifting a
    class places its coordinates on the basis rays.  Instances keep a
    __dict__ for the cached free_indices.
    """

    @property
    def rank(self) -> int:
        return len(self.basis_indices)

    @property
    def n_rays(self) -> int:
        return len(self.deg[0]) if self.deg else 0

    @cached_property
    def free_indices(self) -> tuple[int, ...]:
        """The rays off the basis, in index order."""
        return tuple(ρ for ρ in range(self.n_rays) if ρ not in self.basis_indices)

    def deg_of(self, divisor) -> IntVector:
        return mat_vec(self.deg, divisor)

    def check_rank(self, cls) -> None:
        """Raise PicRankError unless cls has one entry per basis ray."""
        if len(cls) != self.rank:
            raise PicRankError(f"class {tuple(cls)} has {len(cls)} entries, "
                               f"Pic has rank {self.rank}")

    def lift(self, cls, free=None) -> IntVector:
        """The divisor of class cls with exponents `free` on the free rays.

        deg is the identity on the basis columns, so the free exponents
        (zero by default) fix the basis ones: x_b = cls_b - sum_f deg[b][f] x_f.
        """
        self.check_rank(cls)
        x = [0] * self.n_rays
        for b, v in zip(self.basis_indices, cls):
            x[b] = v
        if free is not None:
            for f, t in zip(self.free_indices, free):
                x[f] = t
                for row, b in zip(self.deg, self.basis_indices):
                    x[b] -= row[f] * t
        return tuple(x)

    def ray_class(self, ray_index: int) -> IntVector:
        return tuple(self.deg[i][ray_index] for i in range(self.rank))

    def canonical_class(self) -> IntVector:
        """Class of the canonical divisor -sum D_rho."""
        total = [0] * self.rank
        for ρ in range(self.n_rays):
            for i in range(self.rank):
                total[i] += self.deg[i][ρ]
        return tuple(-t for t in total)


def deg_and_pic(fan: Fan, basis_indices=None) -> PicBasis:
    """Quotient map of the ray exact sequence, with a pinned or lex-first basis.

    With A the d x n ray matrix, B the basis rays and F the n rays off it,
    B is a basis of Pic exactly when |det A_F| = 1, and then deg is I on
    the B columns and -A_B A_F^-1 on the F columns, so deg A = 0.
    """
    d = fan.n_rays
    r = d - fan.dim

    def free_square(basis):
        return mat([fan.rays[ρ] for ρ in range(d) if ρ not in basis])

    if basis_indices is None:
        for cand in itertools.combinations(range(d), r):
            if abs(det(free_square(cand))) == 1:
                basis_indices = cand
                break
        else:
            raise FanError("no ray subset gives a unimodular Pic basis")
    else:
        basis_indices = tuple(basis_indices)
        if len(basis_indices) != r or len(set(basis_indices)) != r or \
                any(not 0 <= b < d for b in basis_indices):
            raise FanError(f"pic_basis {basis_indices} must list {r} distinct "
                           f"ray indices in 0..{d - 1}")
        if abs(det(free_square(basis_indices))) != 1:
            raise FanError(f"rays {basis_indices} do not give a Pic basis")
    free = [ρ for ρ in range(d) if ρ not in basis_indices]
    free_part = mat_mul(mat([fan.rays[b] for b in basis_indices]),
                        invert_unimodular(free_square(basis_indices)))
    deg_rows = [[0] * d for _ in range(r)]
    for i in range(r):
        deg_rows[i][basis_indices[i]] = 1
        for f, x in zip(free, free_part[i]):
            deg_rows[i][f] = -x
    return PicBasis(basis_indices, mat(deg_rows))


class PrimitiveCollection(NamedTuple):
    ray_indices: tuple[int, ...]
    relation: IntVector  # full-length vector over Z^{Sigma(1)}


def primitive_collections(fan: Fan) -> list[PrimitiveCollection]:
    """Minimal non-faces with their primitive relations."""
    d = fan.n_rays
    out = []
    for size in range(2, d + 1):
        for cand in itertools.combinations(range(d), size):
            if fan.is_face(cand):
                continue
            if any(not fan.is_face(sub) for sub in itertools.combinations(cand, size - 1)):
                continue
            s = [0] * fan.dim
            for i in cand:
                for j in range(fan.dim):
                    s[j] += fan.rays[i][j]
            relation = [0] * d
            for i in cand:
                relation[i] += 1
            if any(s):
                coeffs = _cone_coordinates(fan, tuple(s))
                if coeffs is None:
                    raise FanError(f"ray sum of {cand} lies in no cone; fan incomplete?")
                for j, c in coeffs:
                    relation[j] -= c
            out.append(PrimitiveCollection(cand, tuple(relation)))
    return out


def _cone_coordinates(fan: Fan, v):
    """(ray index, positive coefficient) pairs expressing v in a containing cone."""
    for cone, chart in cone_charts(fan).items():
        coeffs = mat_vec(transpose(chart), v)
        if all(c >= 0 for c in coeffs):
            return [(cone[i], coeffs[i]) for i in range(len(cone)) if coeffs[i] > 0]
    return None


class ContractionStep(NamedTuple):
    """A torus-invariant divisorial contraction source -> target."""

    source: Fan
    target: Fan
    collapsed_ray: int
    beta: IntMatrix   # Z^{source rays} -> Z^{target rays}
    gamma: IntMatrix  # Pic(source) -> Pic(target)
    source_pic: PicBasis
    target_pic: PicBasis


def _subdivide(fan: Fan, σ: tuple[int, ...]) -> Fan:
    u = tuple(sum(fan.rays[i][j] for i in σ) for j in range(fan.dim))
    x = fan.n_rays
    new_cones = []
    for τ in fan.max_cones:
        if not set(σ).issubset(τ):
            new_cones.append(τ)
        else:
            for drop in σ:
                new_cones.append(tuple(sorted((set(τ) - {drop}) | {x})))
    return Fan(fan.dim, fan.rays + (u,), tuple(new_cones),
               label=f"{fan.label}*" if fan.label else "")


def star_subdivision(fan: Fan, cone_rays) -> tuple[Fan, ContractionStep]:
    """Insert the ray-sum generator of a cone; returns the blowup and its step."""
    σ = tuple(sorted(cone_rays))
    if not fan.is_face(σ):
        raise FanError(f"{σ} is not a cone of the fan")
    if len(σ) == 1:
        step = contraction_step(fan, fan, collapsed_ray=None)
        return fan, step
    source = _subdivide(fan, σ)
    return source, contraction_step(source, fan, collapsed_ray=fan.n_rays)


def contraction_step(source: Fan, target: Fan, collapsed_ray: int | None,
                     source_basis=None, target_basis=None) -> ContractionStep:
    """Build and verify the beta/gamma square for a blowdown."""
    if collapsed_ray is None:
        pic = deg_and_pic(source, source_basis)
        return ContractionStep(source, source, -1, identity(source.n_rays),
                               identity(pic.rank), pic, pic)
    kept = [i for i in range(source.n_rays) if i != collapsed_ray]
    if tuple(source.rays[i] for i in kept) != target.rays:
        raise FanError("target rays are not the source rays minus the collapsed one")
    u = source.rays[collapsed_ray]
    coeffs = _cone_coordinates(target, u)
    if coeffs is None or any(c != 1 for _, c in coeffs):
        raise FanError("collapsed ray is not a cone's ray sum in the target")
    σ = tuple(sorted(j for j, _ in coeffs))
    if not target.is_face(σ):
        raise FanError("the collapsed ray's support is not a cone of the target")
    rebuilt = _subdivide(target, σ)
    remap = {x: (kept.index(x) if x in kept else target.n_rays) for x in range(source.n_rays)}
    relabeled = set(tuple(sorted(remap[i] for i in c)) for c in source.max_cones)
    if relabeled != set(rebuilt.max_cones):
        raise FanError("source fan is not the star subdivision of the target")
    beta = mat([[1 if kept[t] == s else 0 for s in range(source.n_rays)]
                for t in range(target.n_rays)])
    pic_src = deg_and_pic(source, source_basis)
    pic_tgt = deg_and_pic(target, target_basis)
    gamma = transpose([pic_tgt.deg_of(mat_vec(beta, pic_src.lift(e)))
                       for e in identity(pic_src.rank)])
    left = mat_mul(gamma, pic_src.deg)
    right = mat_mul(pic_tgt.deg, beta)
    if left != right:
        raise FanError("gamma . deg_source != deg_target . beta")
    return ContractionStep(source, target, collapsed_ray, beta, gamma, pic_src, pic_tgt)


@lru_cache(maxsize=None)
def cone_charts(fan: Fan):
    """Maximal cone -> integer inverse of its ray matrix, in max_cones order.

    The rows of a cone's ray matrix are its rays u_i, so for a chart C the
    character m = C b has <m, u_i> = b_i, and v = sum_i (C^T v)_i u_i.
    The table is shared by every caller, hence read-only.
    """
    return MappingProxyType({cone: invert_unimodular(fan.cone_matrix(cone))
                             for cone in fan.max_cones})


def cartier_data(fan: Fan, pic: PicBasis, cls) -> list[IntVector]:
    """The vertices m_sigma with <m_sigma, u_rho> = -a_rho on each cone."""
    a = pic.lift(cls)
    return [mat_vec(chart, [-a[i] for i in cone])
            for cone, chart in cone_charts(fan).items()]


def vertex_divisors(fan: Fan, pic: PicBasis, cls) -> list[IntVector]:
    """Per maximal cone, the divisor with entries <m_sigma, u_rho> + a_rho.

    It vanishes on the rays of sigma, and the class is nef iff every
    entry of every vertex divisor is >= 0.
    """
    a = pic.lift(cls)
    return [tuple(sum(x * y for x, y in zip(m_sigma, u)) + a_rho
                  for u, a_rho in zip(fan.rays, a))
            for m_sigma in cartier_data(fan, pic, cls)]


@lru_cache(maxsize=None)
def nef_rows(fan: Fan, pic: PicBasis) -> tuple[IntVector, ...]:
    """The distinct class-space rows of the vertex divisors off their cones.

    vertex_divisors is linear in the class (lift with no free exponents
    is, and the charts are fixed), so its entry at (sigma, rho) is w . cls
    with w_j the entry at the j-th unit class.  The entries with rho in
    sigma vanish, as m_sigma is defined by them, and are dropped.  A class
    is nef iff w . cls >= 0 for every row w, ample iff every w . cls > 0.

    The j-th unit class lifts to the basis ray b_j alone.  When b_j is
    sigma's p-th ray, m_sigma is minus the p-th column of sigma's chart
    and w_j = -(u_rho . chart)_p; otherwise m_sigma = 0 and w_j = [rho = b_j].
    """
    rows = []
    for cone, chart in cone_charts(fan).items():
        columns = tuple(zip(*chart))
        places = [cone.index(b) if b in cone else None for b in pic.basis_indices]
        for ρ, u in enumerate(fan.rays):
            if ρ not in cone:
                rows.append(tuple(int(ρ == b) if p is None else -sum(map(mul, u, columns[p]))
                                  for b, p in zip(pic.basis_indices, places)))
    return tuple(dict.fromkeys(rows))


def nef_ample_test(fan: Fan, pic: PicBasis, cls) -> tuple[bool, bool]:
    """Cartier-data criterion on a Pic class; returns (nef, ample).

    Nef needs every vertex divisor >= 0, ample besides that every one
    positive off its cone; both read the rows of nef_rows.
    """
    pic.check_rank(cls)
    ample = True
    for w in nef_rows(fan, pic):
        x = sum(map(mul, w, cls))
        if x < 0:
            return False, False
        if not x:
            ample = False
    return True, ample


class LatticePolytope(NamedTuple):
    vertices: tuple[IntVector, ...]
    facets: tuple[tuple[IntVector, int], ...]  # (u_F, a_F): <m, u_F> >= -a_F

    @classmethod
    def from_vertices(cls, vertices) -> "LatticePolytope":
        vs = [tuple(v) for v in vertices]
        dim = len(vs[0])
        raw = hull_facets(vs, dim)
        facets = tuple((w, -int(c)) for w, c, _ in raw)
        hull_vert = set()
        for w, c, tight in raw:
            hull_vert.update(tight)
        # a vertex lies on >= dim facets
        count = {i: 0 for i in hull_vert}
        for _, _, tight in raw:
            for i in tight:
                count[i] += 1
        verts = tuple(sorted(vs[i] for i, k in count.items() if k >= dim))
        return cls(verts, facets)

    def is_reflexive(self) -> bool:
        return all(a == 1 for _, a in self.facets)

    def dual(self) -> "LatticePolytope":
        if not self.is_reflexive():
            raise FanError("dual polytope of a non-reflexive polytope is not a lattice polytope")
        return LatticePolytope.from_vertices([w for w, _ in self.facets])


def polytope_fan_roundtrip(p: LatticePolytope) -> Fan:
    """Face fan of the dual polytope; input must be reflexive."""
    for w, a in p.facets:
        if a != 1:
            raise FanError(f"facet with normal {w} has lattice distance {a} != 1")
    dual = p.dual()
    return fan_from_rays(len(dual.vertices[0]), dual.vertices)
