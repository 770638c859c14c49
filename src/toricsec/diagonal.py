"""Candidate resolutions of the diagonal from the covering quiver (Method 2).

The anticanonical cycles of the covering quiver carve cell sets out of the
path algebra; left/right derivatives of cells against their subcells give
a bigraded chain complex over the Cox ring of X x X.  Signs are solved
over GF(2), the squared differential is checked symbolically, and
exactness is certified fiberwise over a large prime field.
"""

from __future__ import annotations

import random
from itertools import accumulate
from math import comb, prod
from operator import add
from typing import NamedTuple

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


class Cell(NamedTuple):
    key: tuple
    paths: tuple[Path, ...]
    tail: int
    head: int
    div: IntVector


class CellComplexData(NamedTuple):
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


def restrict_cells(data: CellComplexData) -> tuple[tuple[Cell, ...], ...]:
    """Cells whose divisor avoids the total-space coordinate, the last one.

    The top level is dropped whole: it holds the cycles, whose divisor is
    all ones.
    """
    return tuple(tuple(c for c in lv if c.div[-1] == 0) for lv in data.levels[:-1])


# ------------------------------------------------------ derivative complex

class GradedChainComplex(NamedTuple):
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
                       quiver: QuiverOfSections) -> GradedChainComplex:
    """Unsigned complex; d1 terms carry their fixed signs, the rest +1.

    Restricted cells have divisor 0 at the total-space coordinate, the
    last one, and divisors are >= 0, so dropping it from the flanks loses
    nothing.  Every term has the bidegree of its generators: alpha has
    degree L_{small.tail} - L_{big.tail} and beta L_{big.head} -
    L_{small.head}, so no check of it can fail.

    - A flank is part of a path of a restricted cell, so each of its
      arrows has total-space exponent 0, that is degree 0: an arrow
      i -> j with divisor pic.lift(L_j - L_i, t), and deg o lift is the
      identity.  A path's degree is then L_end - L_start.
    - All paths of a cell share their ends (cell_sets), and the
      occurrence rule of _entry_terms puts small's tail where p starts
      in q.  So alpha runs from big.tail to small.tail and beta from
      small.head to big.head.
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
                mat[(row, col)] = [(-1 if k == 1 and any(beta) else 1, alpha[:-1], beta[:-1])
                                   for alpha, beta in terms]
        matrices.append(mat)
    return GradedChainComplex(quiver.bundles, levels, matrices, quiver.n_variables - 1)


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


# --------------------------------------------------------- fiber exactness

class FiberReport(NamedTuple):
    ok: bool
    off_diagonal_ranks: tuple[int, ...]
    diagonal_homology: tuple[int, ...]
    detail: str = ""


def _rank_pivots(rows, p):
    """Pivot rows and columns of sparse rows over F_p: col -> entry in [1, p).

    Each row in turn is cleared by the normalised pivot row of its leading
    column, on that row's support, until it is zero or leads at a new
    column and becomes a pivot row.  Each pivot row is its input row less
    multiples of earlier ones, and sorted by leading column the pivot rows
    are in echelon form; so the pivot rows and columns index a nonsingular
    minor whose size is the rank.  Consumes rows.
    """
    pivots = {}
    pivot_rows, pivot_cols = [], []
    for i, row in enumerate(rows):
        while row:
            c = min(row)
            top = pivots.get(c)
            if top is None:
                inv = pow(row[c], -1, p)
                pivots[c] = [(j, x * inv % p) for j, x in row.items()]
                pivot_rows.append(i)
                pivot_cols.append(c)
                break
            f = row[c]
            for j, y in top:
                x = (row.get(j, 0) - f * y) % p
                if x:
                    row[j] = x
                else:
                    del row[j]
    return pivot_rows, pivot_cols


def _compile(complex_: GradedChainComplex):
    """The matrices as sums of signed monomials over the point xs + ws.

    Returns the distinct signed monomials, each a sign and the indices
    into xs + ws of its variables, each index repeated as often as its
    exponent, and per matrix its shape and its entries as (row, col) ->
    indices into those monomials.
    """
    ids: dict[tuple, int] = {}  # (sign, alpha, beta) -> monomial number
    matrices = [((len(complex_.levels[k]), len(complex_.levels[k + 1])),
                 {key: tuple(ids.setdefault(term, len(ids)) for term in terms)
                  for key, terms in mat.items()})
                for k, mat in enumerate(complex_.matrices)]
    monomials = tuple((sign, tuple(v for v, e in enumerate(alpha + beta) for _ in range(e)))
                      for sign, alpha, beta in ids)
    return monomials, matrices


def _monomial_values(monomials, point, p: int) -> list[int]:
    """The signed monomials of _compile over F_p at point = xs + ws."""
    get = point.__getitem__
    return [sign * prod(map(get, mono)) % p for sign, mono in monomials]


def _evaluate(shape, entries, values, p: int):
    """Sparse rows of a compiled matrix over F_p, given its monomials' values."""
    rows = [{} for _ in range(shape[0])]
    get = values.__getitem__
    for (row, col), ids in entries.items():
        x = sum(map(get, ids)) % p
        if x:
            rows[row][col] = x
    return rows


def _minor(entries, rows, cols):
    """The square minor of a compiled matrix on paired pivot rows and
    columns, with its elimination schedule.

    Row i of the minor is rows[i] and its column i is cols[i], in the
    order _rank_pivots found them.  At the point that found them, every
    leading principal minor in this order is nonsingular (the first i
    pivot rows, cleared, are in echelon form on the first i pivot
    columns), so elimination without row exchanges runs through.  The
    schedule fixes it: per step k, the flat index of the pivot and, per
    row below with an entry in column k, that entry's index and the
    (target, source) index pairs the step updates, fill included.
    """
    size = len(rows)
    at_row = {r: i for i, r in enumerate(rows)}
    at_col = {c: j for j, c in enumerate(cols)}
    positions = []
    support = [set() for _ in range(size)]
    for (r, c), ids in entries.items():
        if r in at_row and c in at_col:
            i, j = at_row[r], at_col[c]
            positions.append((i * size + j, ids))
            support[i].add(j)
    schedule = []
    for k in range(size):
        upper = [j for j in sorted(support[k]) if j > k]
        lower = []
        for i in range(k + 1, size):
            if k in support[i]:
                support[i].update(upper)
                lower.append((i * size + k, [(i * size + j, k * size + j) for j in upper]))
        schedule.append((k * size + k, lower))
    return size, positions, schedule


def _nonsingular(minor, values, p: int) -> bool:
    """True if the minor's scheduled elimination over F_p meets no zero
    pivot, which makes it nonsingular; False otherwise."""
    size, positions, schedule = minor
    a = [0] * (size * size)
    get = values.__getitem__
    for q, ids in positions:
        a[q] = sum(map(get, ids)) % p
    for kk, lower in schedule:
        if not a[kk]:
            return False
        inv = pow(a[kk], -1, p)
        for ik, pairs in lower:
            f = a[ik] * inv % p
            if f:
                for ij, kj in pairs:
                    a[ij] = (a[ij] - f * a[kj]) % p
    return True


def _point_profile(compiled, xs, ws, p: int, minors=None):
    """Rank profile of the compiled complex at (xs, ws), and its pivots.

    Given minors that are all nonsingular at the point, returns their
    sizes and None, with no full rank; that is the profile only of a
    complex (see fiber_exactness_check).  Otherwise ranks every matrix in
    full and returns, per matrix, its pivot rows and columns.
    """
    monomials, matrices = compiled
    values = _monomial_values(monomials, xs + ws, p)
    if minors is not None and all(_nonsingular(minor, values, p) for minor in minors):
        return [minor[0] for minor in minors], None
    pivots = [_rank_pivots(_evaluate(shape, entries, values, p), p)
              for shape, entries in matrices]
    return [len(rows) for rows, _ in pivots], pivots


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


# The fiber test's defaults: off-diagonal and diagonal trial points, the
# seed they are drawn from, and the prime 2^31 - 1.
FIBER_TRIALS = 32
DIAGONAL_TRIALS = 8
FIBER_SEED = 0
FIBER_PRIME = 2147483647


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


def fiber_exactness_check(complex_: GradedChainComplex,
                          trials: int = FIBER_TRIALS, diagonal_trials: int = DIAGONAL_TRIALS,
                          seed: int = FIBER_SEED, prime: int = FIBER_PRIME) -> FiberReport:
    """Random-point exactness over F_prime.

    Off the diagonal the complex must be exact with zero cokernel in the
    last position; on the diagonal the homology must be the rank-n Koszul
    profile, n = len(ranks) - 1: cell_sets builds n + 2 levels and
    restrict_cells drops the top one.  Any rank deviation rejects with the
    offending point, and no later point is evaluated; the diagonal points
    are evaluated only once every off-diagonal point has passed.  All
    trial points are drawn up front from the seed.  Raises DiagonalError
    unless both trial counts are at least 1 and prime is an odd prime,
    and unless the squared differential is zero (check_dd_zero), before
    any point is evaluated.

    Only the first off-diagonal point with the expected profile e pays
    for full ranks; it records, per matrix d_k, the pivot rows and
    columns of a nonsingular e_k x e_k minor.  A later off-diagonal point
    where every recorded minor is nonsingular has rank d_k = e_k for all
    k: the minor gives r_k >= e_k, and d_k d_{k+1} = 0 at every point, so
    im d_{k+1} lies in ker d_k and r_{k+1} <= ranks[k+1] - r_k
    <= ranks[k+1] - e_k = e_{k+1}, starting from r_0 <= ranks[0] = e_0.
    A point where some minor's scheduled elimination meets a zero pivot
    (as it must when the minor is singular) is ranked in full, like every
    diagonal point, and on the expected profile its minors replace the
    recorded ones; so every report equals that of full ranks everywhere.
    """
    _check_fiber_parameters(trials, diagonal_trials, prime)
    if not check_dd_zero(complex_):
        raise DiagonalError("squared differential nonzero")
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

    compiled = _compile(complex_)
    minors = None
    for t, (xs, ws) in enumerate(off_points):
        profile, pivots = _point_profile(compiled, xs, ws, prime, minors)
        if profile != expected:
            return FiberReport(False, tuple(profile), (),
                               f"off-diagonal rank deviation at trial {t}: "
                               f"{profile} != {expected}")
        if pivots is not None:
            minors = [_minor(entries, rows, cols)
                      for (_, entries), (rows, cols) in zip(compiled[1], pivots)]
    n = len(ranks) - 1
    want_diag = [comb(n, k) for k in range(n + 1)]
    for t, point in enumerate(diag_points):
        padded = [0] + _point_profile(compiled, point, point, prime)[0] + [0]
        hom = [r - padded[k] - padded[k + 1] for k, r in enumerate(ranks)]
        if hom != want_diag:
            return FiberReport(False, tuple(expected), tuple(hom),
                               f"diagonal homology {hom} != {want_diag} at trial {t}")
    return FiberReport(True, tuple(expected), tuple(want_diag))


class ResolutionVerdict(NamedTuple):
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
                                trials: int = FIBER_TRIALS, seed: int = FIBER_SEED,
                                prime: int = FIBER_PRIME) -> ResolutionVerdict:
    """Assemble and certify the Method-2 chain for one collection.

    "full" needs the signed complex with squared differential zero
    (checked by fiber_exactness_check), the fiberwise exactness profile,
    and an embedding certificate: the nef Minkowski route when every
    bundle is nef, otherwise the Y_theta route with the supplied weight.  Every verdict past sign solving carries the
    signed complex.  The fiber test draws DIAGONAL_TRIALS diagonal points.
    Raises DiagonalError on the fiber test's parameters as
    fiber_exactness_check does, before any work.
    """
    _check_fiber_parameters(trials, DIAGONAL_TRIALS, prime)
    bundles = [tuple(b) for b in bundles]
    try:
        qy = covering_quiver_on_y(fan, pic, bundles)
        cx = derivative_complex(restrict_cells(cell_sets(qy, fan.dim)), qy)
    except DiagonalError as exc:
        return ResolutionVerdict("inconclusive", f"cell assembly: {exc}")
    signed = sign_solve(cx)
    if signed is None:
        return ResolutionVerdict("inconclusive", "no sign assignment", cx.ranks)

    def verdict(stage, fiber=None, emb=None, status="inconclusive"):
        return ResolutionVerdict(status, stage, cx.ranks, fiber, emb, signed)

    try:
        fiber = fiber_exactness_check(signed, trials=trials, seed=seed, prime=prime)
    except DiagonalError as exc:  # d^2 != 0: the parameters were checked above
        return verdict(str(exc))
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
