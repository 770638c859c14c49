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
from math import comb

from .fans import Fan, PicBasis
from .intlin import IntVector
from .quiver import QuiverOfSections

Path = tuple[int, ...]  # arrow indices in traversal order


class DiagonalError(ValueError):
    pass


@dataclass(frozen=True)
class Cell:
    level: int
    key: tuple
    paths: tuple[Path, ...]
    tail: int
    head: int
    div: IntVector


@dataclass
class CellComplexData:
    quiver: QuiverOfSections
    n: int                      # dimension of X
    cycles: tuple[Path, ...]    # rooted anticanonical cycles (the superpotential)
    levels: tuple[tuple[Cell, ...], ...]   # Gamma'_0 .. Gamma'_{n+1}


def _path_div(quiver, path: Path) -> IntVector:
    total = [0] * quiver.n_variables
    for idx in path:
        for i, x in enumerate(quiver.arrows[idx].div):
            total[i] += x
    return tuple(total)


def _path_ends(quiver, path: Path) -> tuple[int, int]:
    return quiver.arrows[path[0]].tail, quiver.arrows[path[-1]].head


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


def cell_sets(quiver: QuiverOfSections, n: int,
              cycles=None) -> CellComplexData:
    """The cell families Gamma'_0 .. Gamma'_{n+1} of the covering quiver."""
    if cycles is None:
        cycles = superpotential(quiver)
    if not cycles:
        raise DiagonalError("no anticanonical cycles; is the base Fano?")
    ones = (1,) * quiver.n_variables
    suffix = _suffix_map(cycles)

    def cell(level, key, paths):
        paths = tuple(sorted(set(paths)))
        tails = {_path_ends(quiver, p)[0] for p in paths if p}
        heads = {_path_ends(quiver, p)[1] for p in paths if p}
        divs = {_path_div(quiver, p) for p in paths}
        if len(tails) > 1 or len(heads) > 1 or len(divs) > 1:
            raise DiagonalError(f"cell {key} mixes tails/heads/divisors")
        t = tails.pop() if tails else key[1]
        h = heads.pop() if heads else key[1]
        return Cell(level, key, paths, t, h, divs.pop() if divs else (0,) * quiver.n_variables)

    verts = tuple(
        Cell(0, ("v", i), ((),), i, i, (0,) * quiver.n_variables)
        for i in range(quiver.n_vertices))
    arrow_cells = tuple(
        cell(1, ("a", idx), ((idx,),)) for idx in range(len(quiver.arrows)))

    pairs = set()
    for q, rs in suffix.items():
        if len(rs) != 2:
            continue
        r1, r2 = sorted(rs)
        if not r1 or not r2:
            continue
        if r1[0] == r2[0] or r1[-1] == r2[-1]:
            continue
        pairs.add((r1, r2))
    j_cells = tuple(cell(2, ("j", pr), pr) for pr in sorted(pairs))

    dj = tuple(cell(n - 1, ("dj", c.key[1]),
                    tuple(r for p in c.paths for r in suffix.get(p, ()) if r))
               for c in j_cells)
    da = tuple(cell(n, ("da", idx),
                    tuple(r for r in suffix.get((idx,), ()) if r))
               for idx in range(len(quiver.arrows)))
    dv = tuple(cell(n + 1, ("dv", i),
                    tuple(c for c in cycles if _path_ends(quiver, c)[1] == i))
               for i in range(quiver.n_vertices))

    if n >= 4:
        if n > 4:
            raise DiagonalError("cell calculus implemented for dim <= 4")
        levels = (verts, arrow_cells, j_cells, dj, da, dv)
    elif n == 3:
        levels = (verts, arrow_cells, j_cells, da, dv)
    elif n == 2:
        levels = (verts, arrow_cells, j_cells, dv)
    else:
        raise DiagonalError("cell calculus needs dim >= 2")
    for lv in levels[2:]:
        for c in lv:
            if not c.paths:
                raise DiagonalError(f"empty derivative cell {c.key}")
    return CellComplexData(quiver, n, cycles, levels)


def restrict_cells(data: CellComplexData, rho_tot: int) -> tuple[tuple[Cell, ...], ...]:
    """Cells whose divisor avoids the extra total-space coordinate."""
    filtered = [tuple(c for c in lv if c.div[rho_tot] == 0) for lv in data.levels]
    if filtered[-1]:
        raise DiagonalError("top-level cells must carry the total-space variable")
    return tuple(filtered[:-1])


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

    def bidegrees(self, k: int):
        return [(self.bundles[c.tail], self.bundles[c.head]) for c in self.levels[k]]


def _subpath_positions(haystack: Path, needle: Path):
    if not needle:
        return []
    out = []
    for s in range(len(haystack) - len(needle) + 1):
        if haystack[s: s + len(needle)] == needle:
            out.append(s)
    return out


def _entry_terms(quiver, small: Cell, big: Cell):
    """Equivalence classes of (alpha, beta) flank divisors, or None.

    Requires every path of the small cell to embed in some path of the big
    cell; classes are keyed by the left flank divisor, and a key carrying
    two different right flanks is a degenerate collision.
    """
    classes: dict[IntVector, IntVector] = {}
    matched = set()
    for p in small.paths:
        if not p:
            # trivial path of a vertex cell: flanks split each big path
            for q in big.paths:
                splits = []
                pos = [i for i in range(len(q) + 1)]
                for i in pos:
                    t = quiver.arrows[q[i]].tail if i < len(q) else quiver.arrows[q[-1]].head
                    if t == small.tail:
                        splits.append(i)
                for i in splits:
                    alpha = _path_div(quiver, q[:i]) if i else (0,) * quiver.n_variables
                    beta = _path_div(quiver, q[i:]) if i < len(q) else (0,) * quiver.n_variables
                    classes.setdefault(alpha, beta)
                    if classes[alpha] != beta:
                        raise DiagonalError(
                            f"derivative collision between {small.key} and {big.key}")
                    matched.add(p)
            continue
        for q in big.paths:
            for s in _subpath_positions(q, p):
                alpha = _path_div(quiver, q[:s]) if s else (0,) * quiver.n_variables
                rest = q[s + len(p):]
                beta = _path_div(quiver, rest) if rest else (0,) * quiver.n_variables
                classes.setdefault(alpha, beta)
                if classes[alpha] != beta:
                    raise DiagonalError(
                        f"derivative collision between {small.key} and {big.key}")
                matched.add(p)
    if len(matched) < len(small.paths):
        return None
    return sorted(classes.items())


def derivative_complex(levels: tuple[tuple[Cell, ...], ...],
                       quiver: QuiverOfSections, rho_tot: int,
                       bundles) -> GradedChainComplex:
    """Unsigned complex; d1 terms carry their fixed signs, the rest +1."""
    matrices = []
    for k in range(1, len(levels)):
        mat: dict[tuple[int, int], list] = {}
        for col, big in enumerate(levels[k]):
            for row, small in enumerate(levels[k - 1]):
                terms = _entry_terms(quiver, small, big)
                if terms is None:
                    continue
                signed = []
                for alpha, beta in terms:
                    sign = 1
                    if k == 1:
                        # d1: +x^div on the head vertex, -w^div on the tail
                        sign = 1 if not any(beta) else -1
                    signed.append((sign, _strip(alpha, rho_tot), _strip(beta, rho_tot)))
                mat[(row, col)] = signed
        matrices.append(mat)
    return GradedChainComplex(tuple(tuple(b) for b in bundles), levels, matrices,
                              quiver.n_variables - 1)


def _strip(vec: IntVector, rho_tot: int) -> IntVector:
    if vec[rho_tot] != 0:
        raise DiagonalError("restricted entry carries the total-space variable")
    return vec[:rho_tot] + vec[rho_tot + 1:]


def _compose_terms(left, right):
    """Products grouped by total monomial; values are signed counts."""
    acc: dict[tuple[IntVector, IntVector], int] = {}
    for s1, a1, b1 in left:
        for s2, a2, b2 in right:
            key = (tuple(x + y for x, y in zip(a1, a2)),
                   tuple(x + y for x, y in zip(b1, b2)))
            acc[key] = acc.get(key, 0) + s1 * s2
    return acc


def sign_solve(complex_: GradedChainComplex) -> GradedChainComplex | None:
    """Assign +-1 per matrix term of d_2.. so that d_k d_{k+1} = 0.

    Signs live on the individual derivative classes, not whole entries:
    pair cells whose two paths share a middle arrow force opposite signs
    on the two classes of one entry, so entry-level signs are too coarse.
    Monomial cancellations pair products two at a time; each pairing is an
    XOR constraint over GF(2).  Returns the signed complex or None when
    the system is infeasible.
    """
    variables: dict[tuple, int] = {}
    for k in range(1, len(complex_.matrices)):
        for key, terms in complex_.matrices[k].items():
            for t in range(len(terms)):
                variables[(k, key, t)] = len(variables)
    rows = []  # (bitmask over variables, constant bit)

    for k in range(len(complex_.matrices) - 1):
        left = complex_.matrices[k]
        right = complex_.matrices[k + 1]
        cols_right: dict[int, list] = {}
        for (row, col), terms in right.items():
            cols_right.setdefault(col, []).append((row, terms))
        rows_left: dict[int, list] = {}
        for (row, col), terms in left.items():
            rows_left.setdefault(col, []).append((row, terms))
        for col, mids in cols_right.items():
            per_target: dict = {}
            for mid, right_terms in mids:
                for (row, left_terms) in rows_left.get(mid, ()):
                    for li, (ls, la, lb) in enumerate(left_terms):
                        for ri, (rs, ra, rb) in enumerate(right_terms):
                            mono = (tuple(x + y for x, y in zip(la, ra)),
                                    tuple(x + y for x, y in zip(lb, rb)))
                            per_target.setdefault((row, mono), []).append(
                                (k, (row, mid), li, (mid, col), ri, ls * rs))
            for (row, mono), contribs in per_target.items():
                if len(contribs) != 2:
                    return None  # non-pairable cancellation pattern
                bits = 0
                const = 1  # the two products must carry opposite signs
                for lvl, lkey, li, rkey, ri, fixed in contribs:
                    if lvl != 0:
                        bits ^= 1 << variables[(lvl, lkey, li)]
                    bits ^= 1 << variables[(lvl + 1, rkey, ri)]
                    if fixed < 0:
                        const ^= 1
                rows.append((bits, const))

    solution = _gf2_solve(rows, len(variables))
    if solution is None:
        return None
    signed = [dict(complex_.matrices[0])]
    for k in range(1, len(complex_.matrices)):
        mat = {}
        for key, terms in complex_.matrices[k].items():
            new_terms = []
            for t, (sign, a, b) in enumerate(terms):
                s = -1 if (solution >> variables[(k, key, t)]) & 1 else 1
                new_terms.append((s * sign, a, b))
            mat[key] = new_terms
        signed.append(mat)
    return GradedChainComplex(complex_.bundles, complex_.levels, signed,
                              complex_.n_variables)


def _gf2_solve(rows, nv):
    """Gaussian elimination on (mask, const) rows; None if inconsistent."""
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
    for p in sorted(pivots):
        mask, const = pivots[p]
        val = const
        rest = mask & ~(1 << p)
        while rest:
            q = rest.bit_length() - 1
            val ^= (x >> q) & 1
            rest &= ~(1 << q)
        if val:
            x |= 1 << p
    return x


def check_dd_zero(complex_: GradedChainComplex) -> bool:
    """Symbolic verification that consecutive matrices compose to zero."""
    for k in range(len(complex_.matrices) - 1):
        left = complex_.matrices[k]
        right = complex_.matrices[k + 1]
        mids: dict[int, list] = {}
        for (row, col), terms in left.items():
            mids.setdefault(col, []).append((row, terms))
        by_col: dict[int, list] = {}
        for (row, col), terms in right.items():
            by_col.setdefault(col, []).append((row, terms))
        for col, entries in by_col.items():
            acc: dict = {}
            for mid, right_terms in entries:
                for row, left_terms in mids.get(mid, ()):
                    for mono, coeff in _compose_terms(left_terms, right_terms).items():
                        key = (row, mono)
                        acc[key] = acc.get(key, 0) + coeff
            if any(v != 0 for v in acc.values()):
                return False
    return True


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


def fiber_exactness_check(complex_: GradedChainComplex, n: int,
                          trials: int = 32, diagonal_trials: int = 8,
                          seed: int = 0, prime: int = 2147483647) -> FiberReport:
    """Random-point exactness over F_prime.

    Off the diagonal the complex must be exact with zero cokernel in the
    last position; on the diagonal the homology must be the rank-n Koszul
    profile.  Any rank deviation rejects with the offending point, and no
    later point is evaluated; the diagonal points are evaluated only once
    every off-diagonal point has passed.  All trial points are drawn up
    front from the seed.
    """
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
    off_ranks = None
    for t, (xs, ws) in enumerate(off_points):
        profile = _rank_profile(complex_, xs, ws, prime, top)
        if profile != expected:
            return FiberReport(False, tuple(profile), (),
                               f"off-diagonal rank deviation at trial {t}: "
                               f"{profile} != {expected}")
        off_ranks = profile
    want_diag = [comb(n, k) for k in range(n + 1)]
    diag_hom = None
    for t, point in enumerate(diag_points):
        profile = _rank_profile(complex_, point, point, prime, top)
        hom = []
        prev = 0
        for k, r in enumerate(ranks):
            nxt = profile[k] if k < len(profile) else 0
            hom.append(r - prev - nxt)
            prev = nxt
        if hom != want_diag:
            return FiberReport(False, tuple(off_ranks or ()), tuple(hom),
                               f"diagonal homology {hom} != {want_diag} at trial {t}")
        diag_hom = hom
    return FiberReport(True, tuple(off_ranks or ()), tuple(diag_hom or ()))


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
    signed complex.
    """
    from .fans import nef_ample_test as _nef
    from .quiver import (build_quiver_of_sections, covering_quiver_on_y,
                         check_theta_generic, minkowski_embedding_check,
                         theta_fiber_surjectivity_check)

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
    all_nef = all(_nef(fan, pic, b)[0] for b in bundles)
    if all_nef:
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
