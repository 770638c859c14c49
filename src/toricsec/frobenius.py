"""Frobenius pushforward decomposition of toric line bundles.

The m-th Frobenius pushforward of O(sum w_rho D_rho) splits into line
bundles indexed by residue vectors v with 0 <= v_i < m; the summand
classes come from an exact floor-division formula on the ray data.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .fans import Fan, PicBasis, ContractionStep, cone_charts, nef_ample_test
from .intlin import IntVector, int_vector, mat_mul, mat_vec


class SplitSet(NamedTuple):
    """Summand classes with multiplicities; multiplicities sum to m^n."""

    m: int
    weights: tuple[int, ...]
    multiplicity: dict[IntVector, int]

    @property
    def support(self) -> frozenset[IntVector]:
        return frozenset(self.multiplicity)

    def total(self) -> int:
        return sum(self.multiplicity.values())


def frobenius_summands(fan: Fan, pic: PicBasis, m: int, w, sigma=None) -> SplitSet:
    """Thomsen's algorithm for one divisor vector w and one chart sigma.

    On the chart, t = B v + c with B = A A_sigma^{-1} and c = w - B w_sigma,
    and the summand of the residue vector v (0 <= v_i < m) is the class of
    floor(t / m).  The rows of sigma in B are unit vectors and c vanishes
    there, so those floors are 0; only the d - n other rows are floored.
    The first residue v_0 is swept from 0 to m - 1; at each step every
    other row is one column of values over the m^(n-1) residues of the
    remaining coordinates, so memory stays at m^(n-1) values per row.
    Each distinct floor vector is counted, then mapped to its class once.
    Classes appear in the order in which the residues, taken in
    lexicographic order, first reach them.
    """
    if m < 1:
        raise ValueError("m must be positive")
    w = int_vector(w, "w entry")
    if len(w) != fan.n_rays:
        raise ValueError("w must have one entry per ray")
    if sigma is None:
        sigma = fan.max_cones[0]
    sigma = tuple(sorted(sigma))
    chart = cone_charts(fan).get(sigma)
    if chart is None:
        raise ValueError(f"chart {sigma} is not a maximal cone")
    b = mat_mul(fan.rays, chart)
    b_w = mat_vec(b, tuple(w[i] for i in sigma))
    outside = [r for r in range(fan.n_rays) if r not in sigma]
    inner = []
    for r in outside:
        # t_r(v) less its v_0 term over the residues (v_1, ..., v_{n-1}) in
        # lexicographic order, one coordinate at a time
        values = [w[r] - b_w[r]]
        for coeff in b[r][1:]:
            steps = [coeff * k for k in range(m)]
            values = [t + s for t in values for s in steps]
        inner.append((b[r][0], values))
    floors = Counter()  # a complete fan has a ray outside sigma
    for v0 in range(m):
        floors.update(zip(*[[(t + s) // m for t in values]
                            for c, values in inner for s in (c * v0,)]))
    mult: dict[IntVector, int] = {}
    divisor = [0] * fan.n_rays
    for q, count in floors.items():
        for r, x in zip(outside, q):
            divisor[r] = x
        cls = pic.deg_of(divisor)
        mult[cls] = mult.get(cls, 0) + count
    return SplitSet(m, w, mult)


def frobenius_split_classes(fan: Fan, pic: PicBasis, m: int, w) -> SplitSet:
    """Summands on the chart of the first maximal cone.

    The summand classes do not depend on the chart (Thomsen, J. Algebra
    226, 2000), so one cone serves.
    """
    return frobenius_summands(fan, pic, m, w)


def gen_twists(fan: Fan) -> range:
    """The anticanonical twist levels i = 0..n of the gen-set's pieces."""
    return range(fan.dim + 1)


def frobenius_gen_set(fan: Fan, pic: PicBasis, m: int) -> dict[int, SplitSet]:
    """The split sets of the anticanonical twists w = (i,...,i), i in gen_twists.

    Keyed by the twist level i; the pieces stay separate so that callers
    can size each one, and their supports together form the gen-set.
    """
    out = {}
    for i in gen_twists(fan):
        w = (i,) * fan.n_rays
        out[i] = frobenius_split_classes(fan, pic, m, w)
    return out


def frobenius_gen_support(fan: Fan, pic: PicBasis, m: int) -> frozenset[IntVector]:
    pieces = frobenius_gen_set(fan, pic, m)
    support: set[IntVector] = set()
    for piece in pieces.values():
        support |= piece.support
    return frozenset(support)


def nef_frobenius_collection(fan: Fan, pic: PicBasis, m: int) -> list[IntVector]:
    """{L in D_m : L^{-1} nef}, sorted; strong exceptional by the nef lemma."""
    split = frobenius_split_classes(fan, pic, m, (0,) * fan.n_rays)
    out = []
    for cls in split.support:
        inv = tuple(-x for x in cls)
        if nef_ample_test(fan, pic, inv)[0]:
            out.append(cls)
    return sorted(out)


def pushforward_gamma_agreement(step: ContractionStep, m: int, w_kind: str = "zero") -> bool:
    """f_* and gamma agree on Frobenius summands for w = 0 or w = -1's.

    The chart is a maximal cone of the source avoiding the collapsed ray, so
    its image is a cone of the target.
    """
    src, tgt = step.source, step.target
    if w_kind == "zero":
        w_src = (0,) * src.n_rays
        w_tgt = (0,) * tgt.n_rays
    elif w_kind == "omega":
        w_src = (-1,) * src.n_rays
        w_tgt = (-1,) * tgt.n_rays
    else:
        raise ValueError("w_kind must be 'zero' or 'omega'")
    x = step.collapsed_ray
    sigma_src = next(c for c in src.max_cones if x not in c)
    kept = [i for i in range(src.n_rays) if i != x]
    sigma_tgt = tuple(sorted(kept.index(i) for i in sigma_src))
    up = frobenius_summands(src, step.source_pic, m, w_src, sigma_src)
    down = frobenius_summands(tgt, step.target_pic, m, w_tgt, sigma_tgt)
    pushed = frozenset(tuple(mat_vec(step.gamma, cls)) for cls in up.support)
    return pushed == down.support
