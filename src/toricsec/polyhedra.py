"""Exact lattice-point machinery and the phase-1 simplex.

A system is a list of integer rows with right-hand sides, rows . x >= rhs.
Every lattice-point question runs on one engine,
ParametricIntegerFeasibility: an integer Fourier-Motzkin tower followed by
a project-and-lift scan, so every bound is exact; no floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from operator import index, mul

from .intlin import identity, vec_gcd


def eliminate_last(rows, nvars: int):
    """Project out x_{nvars-1} by Fourier-Motzkin, tracking multipliers.

    Each row is (coefficients, multipliers): the coefficients are the
    multipliers' non-negative combination of the base rows, so the row's
    right-hand side is mult . b for base right-hand sides b, and the
    projection is exact over R.  A combined row is divided by the gcd of
    its coefficients and multipliers together.
    """
    zero, lower, upper = [], [], []
    for coeffs, mult in rows:
        c = coeffs[nvars - 1]
        if c == 0:
            zero.append((coeffs[: nvars - 1], mult))
        elif c > 0:
            lower.append((coeffs, mult))
        else:
            upper.append((coeffs, mult))
    out = list(zero)
    for lc, lm in lower:
        for uc, um in upper:
            a, b = lc[nvars - 1], -uc[nvars - 1]
            coeffs = tuple(b * lc[i] + a * uc[i] for i in range(nvars - 1))
            mult = tuple(b * x + a * y for x, y in zip(lm, um))
            g = vec_gcd(coeffs + mult)
            if g > 1:
                coeffs = tuple(v // g for v in coeffs)
                mult = tuple(v // g for v in mult)
            out.append((coeffs, mult))
    return list(dict.fromkeys(out))


def fourier_motzkin(rows, nvars: int):
    """Every level of the elimination of x_{nvars-1}, ..., x_0 from rows.

    levels[k] holds the rows over x_0..x_{k-1} as (coefficients,
    multipliers), levels[nvars] the distinct base rows with unit
    multipliers; levels[0] is the Farkas part, multipliers y >= 0 with
    y . rows = 0.
    """
    level = list(dict.fromkeys(zip(rows, identity(len(rows)))))
    levels = [level]
    for k in range(nvars, 0, -1):
        level = eliminate_last(level, k)
        levels.append(level)
    levels.reverse()
    return levels


def polytope_lattice_points(tower, rhs) -> list[tuple[int, ...]]:
    """Exactly the integer points of tower's rows at right-hand sides rhs.

    Lex order; a search that meets an unbounded coordinate raises
    UnboundedSearch.
    """
    return tower.points(rhs)


class UnboundedSearch(ValueError):
    """The lattice-point search met a coordinate with no lower or upper bound."""


class ParametricIntegerFeasibility:
    """The lattice-point engine: integer points of {x : rows . x >= rhs}.

    The Fourier-Motzkin tower depends only on the coefficient rows, so it
    is built once: level k holds rows over x_0..x_{k-1}, each with the
    multipliers that combine it from the base rows.  A query turns every
    right-hand side into an int once: base right-hand sides are rounded
    up (the rows are integral), and a level row divided by the gcd of its
    coefficients has its right-hand side rounded up too, a Chvatal-Gomory
    cut that keeps every integer point.  One depth-first search then fixes
    x_0, x_1, ... in turn within the bounds of the next level, passing the
    residuals of the deeper levels down as it goes.
    """

    def __init__(self, rows, nvars: int):
        self.nvars = nvars
        self.base_rows = [tuple(int(c) for c in r) for r in rows]
        levels = fourier_motzkin(self.base_rows, nvars)
        # Level k + 1 bounds x_k through its rows with a nonzero x_k
        # coefficient; the others repeat level k, which the search has
        # already satisfied.  Lower-bound rows come first.
        self._level0 = [self._sparse(mult) for _, mult in levels[0]]
        self._rows = []     # per level: (content, sparse multipliers)
        self._lower = []    # per level: last-variable coefficients, > 0
        self._upper = []    # per level: last-variable coefficients, < 0
        self._cols = []     # _cols[k][j]: coefficients of x_k at level k + 2 + j
        for k in range(1, nvars + 1):
            rows = sorted((r for r in levels[k] if r[0][k - 1]),
                          key=lambda r: r[0][k - 1] < 0)
            contents = [vec_gcd(c) for c, _ in rows]
            self._rows.append([(g, self._sparse(mult))
                               for g, (_, mult) in zip(contents, rows)])
            lead = [c[k - 1] // g for g, (c, _) in zip(contents, rows)]
            self._lower.append(tuple(a for a in lead if a > 0))
            self._upper.append(tuple(a for a in lead if a < 0))
            for j in range(k - 1):
                self._cols[j].append(tuple(c[j] // g for g, (c, _) in zip(contents, rows)))
            self._cols.append([])

    @staticmethod
    def _sparse(mult):
        return tuple((i, m) for i, m in enumerate(mult) if m)

    def query(self, rhs) -> bool:
        """Is there an integer point with base_rows . x >= rhs?"""
        return bool(self.points(rhs, first=True))

    def points(self, rhs, forbid=None, first: bool = False) -> list[tuple[int, ...]]:
        """Integer points with base_rows . x >= rhs, in lex order.

        With `first` the search stops at the first point.  `forbid(k, x,
        lo, hi)` is called once per search node, when x_0..x_{k-1} are
        fixed (x is a shared list) and x_k ranges over [lo, hi]; it
        returns closed integer intervals (a, b) of x_k to skip, with
        everything below them.  An interval may be empty or reach past
        [lo, hi].  Meeting a coordinate without a lower or an upper bound
        raises UnboundedSearch.
        """
        b = [ceil(r) for r in rhs]
        if any(sum(m * b[i] for i, m in mult) > 0 for mult in self._level0):
            return []
        n = self.nvars
        if n == 0:
            return [()]
        res = [[-(-sum(m * b[i] for i, m in mult) // g) for g, mult in rows]
               for rows in self._rows]
        x = [0] * n
        out = []
        lowers, uppers, cols = self._lower, self._upper, self._cols

        def rec(k, res):
            # res[j] holds the residuals of level k + 1 + j after x_0..x_{k-1}
            r, lower, upper = res[0], lowers[k], uppers[k]
            if not lower or not upper:
                raise UnboundedSearch(f"coordinate {k} is unbounded")
            lo = max(-(-ri // a) for ri, a in zip(r, lower))
            hi = min(ri // a for ri, a in zip(r[len(lower):], upper))
            if forbid is None or lo > hi:
                values = range(lo, hi + 1)
            else:
                values = _allowed(lo, hi, forbid(k, x, lo, hi))
            last = k + 1 == n
            for v in values:
                x[k] = v
                if last:
                    out.append(tuple(x))
                else:
                    rec(k + 1, [[ri - a * v for ri, a in zip(rl, col)]
                                for rl, col in zip(res[1:], cols[k])])
                if first and out:
                    return

        rec(0, res)
        return out


def _allowed(lo: int, hi: int, intervals) -> list[int]:
    """The integers of [lo, hi] outside every closed interval, in order."""
    values = []
    for a, b in sorted(intervals):
        if a > hi:
            break
        if a > b:
            continue
        values.extend(range(lo, a))
        lo = max(lo, b + 1)
    values.extend(range(lo, hi + 1))
    return values


def conjunction_forbid(rows, checks):
    """A forbid hook for points: skip x_k wherever a check at depth k holds.

    checks[k] lists conjunctions ((i, v), ...) that read rows[i] . x >= v,
    for rows vanishing past x_k.  At a node, row i reads s_i + c_i x_k
    with s_i its dot with the fixed prefix and c_i = rows[i][k], both
    computed once per node.  A row then bounds x_k exactly over the
    integers: x_k >= ceil((v - s_i) / c_i) for c_i > 0, x_k <=
    floor((v - s_i) / c_i) for c_i < 0, and for c_i = 0 it holds or fails
    outright.  So each conjunction forbids one closed interval.
    """
    # per depth: the prefixes of the rows its checks read, and each check
    # split into rows constant at that depth and rows bounding x_k, with
    # row indices renumbered to positions in the prefix list
    levels = []
    for k, level in enumerate(checks):
        needed = sorted({i for check in level for i, _ in check})
        pos = {i: j for j, i in enumerate(needed)}
        split = [(tuple((pos[i], v) for i, v in check if not rows[i][k]),
                  tuple((pos[i], v, rows[i][k]) for i, v in check if rows[i][k]))
                 for check in level]
        levels.append(([rows[i][:k] for i in needed], split))

    def forbid(k, x, lo, hi):
        prefixes, split = levels[k]
        if not split:
            return ()
        s = [sum(map(mul, prefix, x)) for prefix in prefixes]
        out = []
        for fixed, bounds in split:
            for i, v in fixed:
                if s[i] < v:
                    break
            else:
                a, b = lo, hi
                for i, v, c in bounds:
                    if c > 0:
                        t = -((s[i] - v) // c)
                        if t > a:
                            a = t
                    else:
                        t = (v - s[i]) // c
                        if t < b:
                            b = t
                if a <= b:
                    out.append((a, b))
        return out

    return forbid


def simplex_feasible(eq_rows, rhs, nvars: int):
    """Phase-1 simplex: does {x >= 0 : E x = f} have a rational point?

    E and f are integral.  Bland's rule on an all-integer tableau
    (Edmonds' integer-preserving pivoting, Bareiss 1968): every entry,
    the cost row included, is D times the rational tableau entry, where
    D > 0 is the previous pivot, the determinant of the current basis.
    A pivot on (r, c) with element pv maps x to (pv*x - a_ic*y) // D,
    exact by Sylvester's identity, and sets D = pv.  Returns a witness
    tuple of Fractions or None.
    """
    m = len(eq_rows)
    total = nvars + m
    tab = []
    for i, (row, f) in enumerate(zip(eq_rows, rhs, strict=True)):
        sign = -1 if f < 0 else 1
        tab.append([sign * index(a) for a in row]
                   + [1 if j == i else 0 for j in range(m)] + [sign * index(f)])
    # the artificial basis is the identity, so D starts at 1
    cost = [0] * nvars + [1] * m + [0]
    for row in tab:
        cost = [x - y for x, y in zip(cost, row)]
    basis = list(range(nvars, total))
    d = 1
    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        piv = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                # f_i / a < f_piv / a_piv, with both denominators positive
                if piv is None:
                    piv = i
                    continue
                p, q = row[total] * tab[piv][enter], tab[piv][total] * a
                if p < q or (p == q and basis[i] < basis[piv]):
                    piv = i
        if piv is None:
            break  # unbounded phase-1 cannot happen, guard anyway
        prow = tab[piv]
        pv = prow[enter]
        for i, row in enumerate(tab):
            if i != piv:
                tab[i] = _bareiss_row(row, prow, pv, d, enter)
        cost = _bareiss_row(cost, prow, pv, d, enter)
        basis[piv] = enter
        d = pv
    if cost[total] != 0:
        return None
    x = [Fraction(0)] * nvars
    for row, b in zip(tab, basis):
        if b < nvars:
            x[b] = Fraction(row[total], d)
        elif row[total] != 0:
            return None  # artificial stuck at positive level
    return tuple(x)


def _bareiss_row(row, prow, pv, d, enter):
    """One row of an integer-preserving pivot: (pv*x - a*y) // d."""
    a = row[enter]
    if a == 0:
        if pv == d:
            return row
        return [pv * x // d for x in row]
    return [(pv * x - a * y) // d for x, y in zip(row, prow)]
