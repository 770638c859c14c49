"""Candidate resolutions of the diagonal from the covering quiver (Method 2).

The anticanonical cycles of the covering quiver carve cell sets out of the
path algebra; left/right derivatives of cells against their subcells give
a bigraded chain complex over the Cox ring of X x X.  Signs are solved
over GF(2), the squared differential is checked symbolically, and
exactness is certified fiberwise over a large prime field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import add

from .fans import Fan, PicBasis, nef_ample_test
from .intlin import IntVector
from .quiver import (
    QuiverOfSections,
    build_quiver_of_sections,
    check_theta_generic,
    covering_quiver_on_y,
    minkowski_embedding_check,
    theta_fiber_surjectivity_check,
)

Path = tuple[int, ...]  # arrow indices in traversal order


class DiagonalError(ValueError):
    pass


@dataclass(frozen=True)
class Cell:
    key: tuple
    paths: tuple[Path, ...]
    tail: int
    head: int
    div: IntVector


@dataclass
class CellComplexData:
    levels: tuple[tuple[Cell, ...], ...]   # Gamma'_0 .. Gamma'_{n+1}


def _path_div(quiver, path: Path) -> IntVector:
    total = [0] * quiver.n_variables
    for idx in path:
        for i, x in enumerate(quiver.arrows[idx].div):
            total[i] += x
    return tuple(total)


def superpotential(quiver: QuiverOfSections) -> tuple[Path, ...]:
    """All rooted anticanonical cycles: div(p) = (1,...,1), tail = head.

    Every rotation of a cycle appears once (rooted presentations), which is
    what the left-derivative calculus needs.
    """
    ones = (1,) * quiver.n_variables
    by_tail: dict[int, list[tuple[int, object]]] = {}
    for idx, a in enumerate(quiver.arrows):
        by_tail.setdefault(a.tail, []).append((idx, a))
    cycles = []

    def dfs(root, v, remaining, acc):
        for idx, a in by_tail.get(v, ()):
            if any(x > y for x, y in zip(a.div, remaining)):
                continue
            nxt = tuple(y - x for x, y in zip(a.div, remaining))
            if a.head == root and not any(nxt):
                cycles.append(acc + (idx,))
            elif any(nxt):
                dfs(root, a.head, nxt, acc + (idx,))

    for root in range(quiver.n_vertices):
        dfs(root, root, ones, ())
    return tuple(sorted(cycles))


def _suffix_map(cycles) -> dict[Path, list[Path]]:
    """q -> completions r over all splittings cycle = r . q (r may be empty)."""
    out: dict[Path, list[Path]] = {}
    for c in cycles:
        for s in range(len(c)):
            out.setdefault(c[s:], []).append(c[:s])
    return out


def cell_sets(quiver: QuiverOfSections, n: int) -> CellComplexData:
    """The cell families Gamma'_0 .. Gamma'_{n+1} of the covering quiver.

    Every path of a cell beyond the vertices completes one fixed path to an
    anticanonical cycle, so all of a cell's paths share their ends and
    divisor; the cell takes them from its first path.
    """
    cycles = superpotential(quiver)
    if not cycles:
        raise DiagonalError("no anticanonical cycles; is the base Fano?")
    if n < 2:
        raise DiagonalError("cell calculus needs dim >= 2")
    if n > 4:
        raise DiagonalError("cell calculus implemented for dim <= 4")
    suffix = _suffix_map(cycles)

    def cell(key, paths):
        paths = tuple(sorted(set(paths)))
        if not paths:
            raise DiagonalError(f"empty derivative cell {key}")
        first = paths[0]
        return Cell(key, paths, quiver.arrows[first[0]].tail,
                    quiver.arrows[first[-1]].head, _path_div(quiver, first))

    verts = tuple(Cell(("v", i), ((),), i, i, (0,) * quiver.n_variables)
                  for i in range(quiver.n_vertices))
    arrow_cells = tuple(cell(("a", idx), ((idx,),)) for idx in range(len(quiver.arrows)))

    # pairs: the two nonempty completions of one path, differing at both ends
    pairs = sorted({tuple(sorted(rs)) for rs in suffix.values() if len(rs) == 2})
    j_cells = tuple(cell(("j", (r1, r2)), (r1, r2)) for r1, r2 in pairs
                    if r1 and r2 and r1[0] != r2[0] and r1[-1] != r2[-1])

    # the derivative levels dj (dim 4), da (dim >= 3) and dv, built only when kept
    derived = (
        lambda: tuple(cell(("dj", c.key[1]),
                           [r for p in c.paths for r in suffix.get(p, ()) if r])
                      for c in j_cells),
        lambda: tuple(cell(("da", idx), [r for r in suffix.get((idx,), ()) if r])
                      for idx in range(len(quiver.arrows))),
        lambda: tuple(cell(("dv", i), [c for c in cycles if quiver.arrows[c[-1]].head == i])
                      for i in range(quiver.n_vertices)),
    )[4 - n:]
    return CellComplexData((verts, arrow_cells, j_cells) + tuple(build() for build in derived))


def restrict_cells(data: CellComplexData, rho_tot: int) -> tuple[tuple[Cell, ...], ...]:
    """Cells whose divisor avoids the extra total-space coordinate.

    The top level is dropped whole: it holds the cycles, whose divisor is
    all ones.
    """
    return tuple(tuple(c for c in lv if c.div[rho_tot] == 0) for lv in data.levels[:-1])


# ------------------------------------------------------ derivative complex

@dataclass
class GradedChainComplex:
    """Free bigraded modules with signed monomial-pair matrices.

    matrices[k] maps level k+1 to level k; an entry is a list of
    (sign, x-exponents, w-exponents) over the Cox ring variables of X.
    """

    bundles: tuple[IntVector, ...]
    levels: tuple[tuple[Cell, ...], ...]
    matrices: list[dict]
    n_variables: int

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(len(lv) for lv in self.levels)


def _entry_terms(quiver, small: Cell, big: Cell):
    """The derivative classes (alpha, beta) of big against small, or None.

    A class splits a path q of big as alpha . p . beta around a path p of
    small; the trivial path of a vertex cell occurs wherever q passes that
    vertex.  None unless every path of small occurs in some path of big.
    Classes are sorted by alpha, which determines beta: all paths of a
    cell share one divisor.
    """
    classes = set()
    for p in small.paths:
        m = len(p)
        found = False
        for q in big.paths:
            for s in range(len(q) - m + 1):
                if q[s:s + m] == p and (
                        quiver.arrows[q[s]].tail if s < len(q) else big.head) == small.tail:
                    classes.add((_path_div(quiver, q[:s]), _path_div(quiver, q[s + m:])))
                    found = True
        if not found:
            return None
    return sorted(classes)


def derivative_complex(levels: tuple[tuple[Cell, ...], ...],
                       quiver: QuiverOfSections, rho_tot: int,
                       bundles) -> GradedChainComplex:
    """Unsigned complex; d1 terms carry their fixed signs, the rest +1.

    Restricted cells have divisor 0 at rho_tot and divisors are >= 0, so
    dropping that coordinate from the flanks loses nothing.
    """
    matrices = []
    for k in range(1, len(levels)):
        mat: dict[tuple[int, int], list] = {}
        for col, big in enumerate(levels[k]):
            for row, small in enumerate(levels[k - 1]):
                terms = _entry_terms(quiver, small, big)
                if terms is None:
                    continue
                # d1: +x^div on the head vertex, -w^div on the tail
                mat[(row, col)] = [
                    (-1 if k == 1 and any(beta) else 1,
                     alpha[:rho_tot] + alpha[rho_tot + 1:], beta[:rho_tot] + beta[rho_tot + 1:])
                    for alpha, beta in terms]
        matrices.append(mat)
    return GradedChainComplex(tuple(tuple(b) for b in bundles), levels, matrices,
                              quiver.n_variables - 1)


def _first_terms(complex_: GradedChainComplex) -> list[dict]:
    """Per matrix, entry key -> number of its first term.

    Terms are numbered in order through all matrices, entries and terms.
    """
    starts = accumulate((len(terms) for mat in complex_.matrices for terms in mat.values()),
                        initial=0)
    return [{key: next(starts) for key in mat} for mat in complex_.matrices]


def _product_groups(complex_: GradedChainComplex):
    """The products of consecutive matrices, grouped by (row, column, monomial).

    Yields, per group of matrices[k] . matrices[k + 1], its list of
    (left term, right term, sign) products: terms by their _first_terms
    numbers, sign the product of the two term signs.
    """
    first = _first_terms(complex_)
    for k in range(len(complex_.matrices) - 1):
        by_mid: dict[int, list] = {}
        for (row, mid), terms in complex_.matrices[k].items():
            by_mid.setdefault(mid, []).append((row, first[k][(row, mid)], terms))
        groups: dict[tuple, list] = {}
        for (mid, col), right_terms in complex_.matrices[k + 1].items():
            r0 = first[k + 1][(mid, col)]
            for row, l0, left_terms in by_mid.get(mid, ()):
                for li, (ls, la, lb) in enumerate(left_terms, l0):
                    for ri, (rs, ra, rb) in enumerate(right_terms, r0):
                        key = (row, col, tuple(map(add, la, ra)), tuple(map(add, lb, rb)))
                        groups.setdefault(key, []).append((li, ri, ls * rs))
        yield from groups.values()


def sign_solve(complex_: GradedChainComplex) -> GradedChainComplex | None:
    """Assign +-1 per matrix term of d_2.. so that d_k d_{k+1} = 0.

    Signs live on the individual derivative classes, not whole entries:
    pair cells whose two paths share a middle arrow force opposite signs
    on the two classes of one entry, so entry-level signs are too coarse.
    Monomial cancellations pair products two at a time; each pairing is an
    XOR constraint over GF(2) on the terms' numbers.  Returns the signed
    complex or None when the system is infeasible.
    """
    fixed = sum(len(terms) for terms in complex_.matrices[0].values())  # d1's terms
    rows = []  # (bitmask over terms, constant bit)
    for group in _product_groups(complex_):
        if len(group) != 2:
            return None  # non-pairable cancellation pattern
        bits = 0
        const = 1  # the two products must carry opposite signs
        for left, right, sign in group:
            if left >= fixed:
                bits ^= 1 << left
            bits ^= 1 << right
            if sign < 0:
                const ^= 1
        rows.append((bits, const))

    solution = _gf2_solve(rows)
    if solution is None:
        return None
    first = _first_terms(complex_)
    signed = [{key: [(-sign if solution >> t & 1 else sign, a, b)
                     for t, (sign, a, b) in enumerate(terms, first[k][key])]
               for key, terms in mat.items()}
              for k, mat in enumerate(complex_.matrices)]
    return GradedChainComplex(complex_.bundles, complex_.levels, signed,
                              complex_.n_variables)


def _gf2_solve(rows):
    """Gaussian elimination on (mask, const) rows; None if inconsistent.

    Returns the solution with every free variable zero.  The pivot columns
    and that solution depend only on the solution set, not on row order.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for mask, const in rows:
        while mask:
            p = mask.bit_length() - 1
            if p in pivots:
                pm, pc = pivots[p]
                mask ^= pm
                const ^= pc
            else:
                pivots[p] = (mask, const)
                break
        else:
            if const:
                return None
    x = 0
    for p in sorted(pivots):  # x holds no bit >= p yet
        mask, const = pivots[p]
        if (const + (x & mask).bit_count()) % 2:
            x |= 1 << p
    return x


def check_dd_zero(complex_: GradedChainComplex) -> bool:
    """Symbolic verification that consecutive matrices compose to zero."""
    return all(sum(sign for _, _, sign in group) == 0
               for group in _product_groups(complex_))


def check_bidegrees(complex_: GradedChainComplex, pic: PicBasis) -> bool:
    """Every term's flank degrees must match the generator bidegrees."""
    for k, mat in enumerate(complex_.matrices):
        small_cells = complex_.levels[k]
        big_cells = complex_.levels[k + 1]
        for (row, col), terms in mat.items():
            small, big = small_cells[row], big_cells[col]
            want_alpha = tuple(a - b for a, b in zip(
                complex_.bundles[small.tail], complex_.bundles[big.tail]))
            want_beta = tuple(a - b for a, b in zip(
                complex_.bundles[big.head], complex_.bundles[small.head]))
            for _, alpha, beta in terms:
                if pic.deg_of(alpha) != want_alpha or pic.deg_of(beta) != want_beta:
                    return False
    return True


# --------------------------------------------------------- fiber exactness

@dataclass(frozen=True)
class FiberReport:
    ok: bool
    off_diagonal_ranks: tuple[int, ...]
    diagonal_homology: tuple[int, ...]
    detail: str = ""


def _rank_mod_p(rows, p) -> int:
    """Rank over F_p by row echelon form: only entries below a pivot clear."""
    m = list(rows)
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        inv = pow(top[c], -1, p)
        for i in range(r + 1, n_rows):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], top)]
        r += 1
        if r == n_rows:
            break
    return r


def _max_exponent(complex_: GradedChainComplex) -> int:
    """The largest exponent of any variable in any term of the complex."""
    return max((max(alpha + beta) for mat in complex_.matrices
                for terms in mat.values() for _, alpha, beta in terms), default=0)


def _power_table(values, top: int, p: int) -> list[list[int]]:
    """Per value x, the list x^0, x^1, ..., x^top mod p."""
    table = []
    for x in values:
        powers = [1] * (top + 1)
        for e in range(1, top + 1):
            powers[e] = powers[e - 1] * x % p
        table.append(powers)
    return table


def _evaluate(complex_: GradedChainComplex, k: int, x_powers, w_powers, p: int):
    """matrices[k] over F_p at the point whose power tables are given."""
    n_rows = len(complex_.levels[k])
    n_cols = len(complex_.levels[k + 1])
    rows = [[0] * n_cols for _ in range(n_rows)]
    for (row, col), terms in complex_.matrices[k].items():
        total = 0
        for sign, alpha, beta in terms:
            val = sign
            for powers, e in zip(x_powers, alpha):
                val *= powers[e]
            for powers, e in zip(w_powers, beta):
                val *= powers[e]
            total += val % p
        rows[row][col] = total % p
    return rows


def _rank_profile(complex_: GradedChainComplex, xs, ws, p, top: int):
    """Ranks of every matrix at (xs, ws); top bounds the complex's exponents."""
    x_powers = _power_table(xs, top, p)
    w_powers = _power_table(ws, top, p)
    return [
        _rank_mod_p(_evaluate(complex_, k, x_powers, w_powers, p), p)
        for k in range(len(complex_.matrices))
    ]


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p < _MR_BOUND."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_fiber_parameters(trials: int, diagonal_trials: int, prime: int) -> None:
    """DiagonalError unless the fiber test draws points over an odd prime field."""
    for name, value in (("trials", trials), ("diagonal_trials", diagonal_trials)):
        if value < 1:
            raise DiagonalError(f"{name} must be at least 1, got {value}")
    if prime >= _MR_BOUND:
        raise DiagonalError(f"prime {prime} is beyond the exact primality test "
                            f"(must be below {_MR_BOUND})")
    if not _is_prime(prime):
        raise DiagonalError(f"prime {prime} is not prime")
    if prime == 2:
        raise DiagonalError("prime 2 is too small: over F_2 no point lies off the diagonal")


def fiber_exactness_check(complex_: GradedChainComplex, n: int,
                          trials: int = 32, diagonal_trials: int = 8,
                          seed: int = 0, prime: int = 2147483647) -> FiberReport:
    """Random-point exactness over F_prime.

    Off the diagonal the complex must be exact with zero cokernel in the
    last position; on the diagonal the homology must be the rank-n Koszul
    profile.  Any rank deviation rejects with the offending point, and no
    later point is evaluated; the diagonal points are evaluated only once
    every off-diagonal point has passed.  All trial points are drawn up
    front from the seed.  Raises DiagonalError unless both trial counts
    are at least 1 and prime is an odd prime.
    """
    _check_fiber_parameters(trials, diagonal_trials, prime)
    rng = random.Random(seed)
    d = complex_.n_variables
    ranks = complex_.ranks
    alternating = sum((-1) ** i * r for i, r in enumerate(ranks))
    if alternating != 0:
        return FiberReport(False, (), (), f"alternating rank sum {alternating} != 0")
    expected = [ranks[0]]
    for k in range(1, len(ranks) - 1):
        expected.append(ranks[k] - expected[k - 1])
    off_points = [([rng.randrange(1, prime) for _ in range(d)],
                   [rng.randrange(1, prime) for _ in range(d)]) for _ in range(trials)]
    diag_points = [[rng.randrange(1, prime) for _ in range(d)]
                   for _ in range(diagonal_trials)]

    top = _max_exponent(complex_)
    for t, (xs, ws) in enumerate(off_points):
        profile = _rank_profile(complex_, xs, ws, prime, top)
        if profile != expected:
            return FiberReport(False, tuple(profile), (),
                               f"off-diagonal rank deviation at trial {t}: "
                               f"{profile} != {expected}")
    want_diag = [comb(n, k) for k in range(n + 1)]
    for t, point in enumerate(diag_points):
        padded = [0] + _rank_profile(complex_, point, point, prime, top) + [0]
        hom = [r - padded[k] - padded[k + 1] for k, r in enumerate(ranks)]
        if hom != want_diag:
            return FiberReport(False, tuple(expected), tuple(hom),
                               f"diagonal homology {hom} != {want_diag} at trial {t}")
    return FiberReport(True, tuple(expected), tuple(want_diag))


@dataclass(frozen=True)
class ResolutionVerdict:
    status: str                 # "full" or "inconclusive"
    stage: str                  # last stage reached / failing stage
    ranks: tuple[int, ...] = ()
    fiber: FiberReport | None = None
    embedding: object = None
    signed_complex: GradedChainComplex | None = None   # once signs are solved

    @property
    def full(self) -> bool:
        return self.status == "full"


def diagonal_resolution_verdict(fan: Fan, pic: PicBasis, bundles, theta=None,
                                trials: int = 32, diagonal_trials: int = 8,
                                seed: int = 0, prime: int = 2147483647) -> ResolutionVerdict:
    """Assemble and certify the Method-2 chain for one collection.

    "full" needs the signed complex with squared differential zero, the
    fiberwise exactness profile, and an embedding certificate: the nef
    Minkowski route when every bundle is nef, otherwise the Y_theta route
    with the supplied weight.  Every verdict past sign solving carries the
    signed complex.  Raises DiagonalError on the fiber test's parameters
    as fiber_exactness_check does, before any work.
    """
    _check_fiber_parameters(trials, diagonal_trials, prime)
    bundles = [tuple(b) for b in bundles]
    n = fan.dim
    try:
        qy = covering_quiver_on_y(fan, pic, bundles)
        data = cell_sets(qy, n)
        rest = restrict_cells(data, rho_tot=pic.n_rays)
        cx = derivative_complex(rest, qy, pic.n_rays, bundles)
    except DiagonalError as exc:
        return ResolutionVerdict("inconclusive", f"cell assembly: {exc}")
    signed = sign_solve(cx)
    if signed is None:
        return ResolutionVerdict("inconclusive", "no sign assignment", cx.ranks)

    def verdict(stage, fiber=None, emb=None, status="inconclusive"):
        return ResolutionVerdict(status, stage, cx.ranks, fiber, emb, signed)

    if not check_dd_zero(signed):
        return verdict("squared differential nonzero")
    fiber = fiber_exactness_check(signed, n, trials=trials,
                                  diagonal_trials=diagonal_trials,
                                  seed=seed, prime=prime)
    if not fiber.ok:
        return verdict("fiber exactness", fiber)
    if all(nef_ample_test(fan, pic, b)[0] for b in bundles):
        emb = minkowski_embedding_check(fan, pic, bundles)
        if not emb.ok:
            return verdict(f"nef embedding: {emb.detail}", fiber, emb)
    else:
        if theta is None:
            return verdict("non-nef collection without a theta weight", fiber)
        qx = build_quiver_of_sections(fan, pic, bundles)
        stability = check_theta_generic(qx, fan, theta)
        if not stability.generic:
            return verdict(f"theta not generic: {stability.failures[:1]}", fiber)
        emb = theta_fiber_surjectivity_check(qx, fan, pic, theta)
        if not emb.ok:
            return verdict(f"theta embedding: {emb.detail}", fiber, emb)
    return verdict("complete", fiber, emb, status="full")


def serialize_complex(complex_: GradedChainComplex) -> str:
    """Structured-text form: generator bidegrees per level, signed term
    triplets (row, col, terms) per matrix."""
    lines = [f"levels {len(complex_.levels)}"]
    for k, cells in enumerate(complex_.levels):
        lines.append(f"level {k} rank {len(cells)}")
        for c in cells:
            left = ",".join(str(x) for x in complex_.bundles[c.tail])
            right = ",".join(str(-x) for x in complex_.bundles[c.head])
            lines.append(f"generator {left}|{right}")
    for k, mat in enumerate(complex_.matrices):
        lines.append(f"matrix d{k + 1} entries {len(mat)}")
        for (row, col), terms in sorted(mat.items()):
            blocks = []
            for sign, alpha, beta in terms:
                blocks.append(f"{'+' if sign > 0 else '-'}:"
                              f"{','.join(str(x) for x in alpha)}:"
                              f"{','.join(str(x) for x in beta)}")
            lines.append(f"entry {row} {col} {' '.join(blocks)}")
    return "\n".join(lines) + "\n"


def torus_rescale(xs, ws, fan: Fan, exponents, prime: int):
    """Act by a torus element: multiplies both coordinate sets consistently."""
    out_x = list(xs)
    out_w = list(ws)
    for ρ in range(fan.n_rays):
        f = 1
        for j, e in enumerate(exponents):
            f = f * pow(pow(2, e, prime), fan.rays[ρ][j], prime) % prime
        out_x[ρ] = out_x[ρ] * f % prime
        out_w[ρ] = out_w[ρ] * f % prime
    return out_x, out_w
