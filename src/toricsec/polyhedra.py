"""Rational polyhedra with exact lattice-point machinery.

A polyhedron is a system of inequalities a.x >= b (integer a, rational b),
optionally together with integer equalities.  Every lattice-point search
runs on one engine, ParametricIntegerFeasibility: an integer
Fourier-Motzkin tower followed by a project-and-lift scan, so every bound
is exact; no floating point anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd
from operator import index

from .intlin import (
    kernel_basis,
    mat,
    mat_vec,
    primitive,
    solve_linear_diophantine,
    unimodular_with_last_column,
)

Ineq = tuple[tuple[int, ...], Fraction]  # coeffs . x >= rhs


def _norm_ineq(coeffs, rhs) -> Ineq:
    coeffs = tuple(int(c) for c in coeffs)
    rhs = Fraction(rhs)
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        rhs = rhs / g
    return coeffs, rhs


def _dedupe(ineqs: list[Ineq]) -> list[Ineq]:
    best: dict[tuple[int, ...], Fraction] = {}
    for coeffs, rhs in ineqs:
        if coeffs in best:
            if rhs > best[coeffs]:
                best[coeffs] = rhs
        else:
            best[coeffs] = rhs
    return [(c, r) for c, r in best.items()]


def fm_eliminate_last(ineqs: list[Ineq], nvars: int) -> list[Ineq]:
    """Project out the last variable by Fourier-Motzkin."""
    zero, lower, upper = [], [], []
    for coeffs, rhs in ineqs:
        c = coeffs[nvars - 1]
        if c == 0:
            zero.append((coeffs[: nvars - 1], rhs))
        elif c > 0:
            lower.append((coeffs, rhs))
        else:
            upper.append((coeffs, rhs))
    out = list(zero)
    for (lc, lr) in lower:
        for (uc, ur) in upper:
            a, b = lc[nvars - 1], -uc[nvars - 1]
            coeffs = tuple(b * lc[i] + a * uc[i] for i in range(nvars - 1))
            out.append(_norm_ineq(coeffs, b * lr + a * ur))
    return _dedupe(out)


def _cone_lineality(ineqs: list[Ineq], nvars: int):
    rows = mat([c for c, _ in ineqs]) if ineqs else mat([])
    if not ineqs:
        return [tuple(1 if i == j else 0 for j in range(nvars)) for i in range(nvars)]
    return kernel_basis(rows)


def _cone_ray(ineqs: list[Ineq], nvars: int):
    """A primitive nonzero integer vector w with coeff.w >= 0 for all rows,
    assuming the cone has no lineality.  None when the cone is {0}."""
    rows = [c for c, _ in _dedupe([_norm_ineq(c, Fraction(0)) for c, _ in ineqs])]
    if nvars == 0:
        return None
    if not rows:
        return tuple(1 if i == 0 else 0 for i in range(nvars))
    if nvars == 1:
        for cand in ((1,), (-1,)):
            if all(r[0] * cand[0] >= 0 for r in rows):
                return cand
        return None
    for subset in itertools.combinations(range(len(rows)), nvars - 1):
        sub = mat([rows[i] for i in subset])
        ker = kernel_basis(sub)
        if len(ker) != 1:
            continue
        v = primitive(ker[0])
        for cand in (v, tuple(-x for x in v)):
            if all(sum(c * x for c, x in zip(row, cand)) >= 0 for row in rows):
                return cand
    return None


@dataclass
class RationalPolyhedron:
    """{x in R^n : A x >= b, E x = f} with exact data."""

    nvars: int
    ineqs: list[Ineq] = field(default_factory=list)
    eqs: list[tuple[tuple[int, ...], int]] = field(default_factory=list)

    def add_ineq(self, coeffs, rhs):
        self.ineqs.append(_norm_ineq(coeffs, rhs))

    def add_eq(self, coeffs, rhs: int):
        self.eqs.append((tuple(int(c) for c in coeffs), int(rhs)))

    def contains(self, point) -> bool:
        ok = all(sum(c * x for c, x in zip(coeffs, point)) >= rhs
                 for coeffs, rhs in self.ineqs)
        return ok and all(sum(c * x for c, x in zip(coeffs, point)) == rhs
                          for coeffs, rhs in self.eqs)


def _reduce_equalities(poly: RationalPolyhedron):
    """Substitute out integer equalities.

    Returns (ineqs, nvars, lift) where lift maps free integer variables back
    to the original coordinates, or None when the equalities have no integer
    solution.
    """
    if not poly.eqs:
        n = poly.nvars
        return list(poly.ineqs), n, lambda t: tuple(t)
    a = mat([c for c, _ in poly.eqs])
    b = [r for _, r in poly.eqs]
    x0, kernel = solve_linear_diophantine(a, b)
    if x0 is None:
        return None
    k = len(kernel)
    new_ineqs = []
    for coeffs, rhs in poly.ineqs:
        base = sum(c * x for c, x in zip(coeffs, x0))
        row = tuple(sum(c * kv[i] for i, c in enumerate(coeffs)) for kv in kernel)
        new_ineqs.append(_norm_ineq(row, rhs - base))

    def lift(t):
        x = list(x0)
        for kv, tv in zip(kernel, t):
            for i in range(len(x)):
                x[i] += kv[i] * tv
        return tuple(x)

    return new_ineqs, k, lift


def polytope_lattice_points(poly, rhs=None) -> list[tuple[int, ...]]:
    """Exactly the integer points of a bounded polyhedron, lex order.

    `poly` is a RationalPolyhedron, or a ParametricIntegerFeasibility whose
    rows are instantiated at the right-hand sides `rhs`.  A search that
    meets an unbounded coordinate raises UnboundedSearch.
    """
    if rhs is not None:
        return poly.points(rhs)
    red = _reduce_equalities(poly)
    if red is None:
        return []
    ineqs, n, lift = red
    engine = ParametricIntegerFeasibility([c for c, _ in ineqs], n)
    return sorted(lift(t) for t in engine.points([r for _, r in ineqs]))


def integer_feasible(poly: RationalPolyhedron):
    """(feasible, witness) for arbitrary rational polyhedra.

    Unbounded instances are reduced one lattice direction at a time:
    lineality directions and recession rays are rotated to the last
    coordinate by a unimodular change of basis and projected out, which
    preserves integer feasibility exactly.
    """
    red = _reduce_equalities(poly)
    if red is None:
        return False, None
    ineqs, n, lift = red
    got = _integer_feasible_ineqs(ineqs, n)
    if got is None:
        return False, None
    return True, lift(got)


def _integer_feasible_ineqs(ineqs: list[Ineq], n: int):
    ineqs = _dedupe([_norm_ineq(c, r) for c, r in ineqs])
    hom = [(c, Fraction(0)) for c, _ in ineqs]
    lin = _cone_lineality(hom, n)
    if lin:
        w = primitive(lin[0])
        return _eliminate_direction(ineqs, n, w)
    ray = _cone_ray(ineqs, n)
    if ray is not None:
        return _eliminate_direction(ineqs, n, ray)
    engine = ParametricIntegerFeasibility([c for c, _ in ineqs], n)
    got = engine.points([r for _, r in ineqs], first=True)
    return got[0] if got else None


def _eliminate_direction(ineqs: list[Ineq], n: int, w):
    """Substitute x = U s (U unimodular, last column w) and drop s_n.

    All coefficients of s_n are >= 0, so its constraints are lower bounds;
    an integer value always exists, making the projection exact over Z.
    """
    u = unimodular_with_last_column(w)
    transformed = []
    for coeffs, rhs in ineqs:
        new = tuple(sum(coeffs[i] * u[i][j] for i in range(n)) for j in range(n))
        transformed.append((new, rhs))
    assert all(row[n - 1] >= 0 for row, _ in transformed), "direction is not recessive"
    reduced = [ (row[: n - 1], rhs) for row, rhs in transformed if row[n - 1] == 0 ]
    got = _integer_feasible_ineqs(reduced, n - 1)
    if got is None:
        return None
    # lift: choose the smallest integer s_n satisfying the lower bounds
    lo = None
    for row, rhs in transformed:
        c = row[n - 1]
        if c > 0:
            rem = rhs - sum(a * b for a, b in zip(row[: n - 1], got))
            bound = Fraction(rem, c)
            lo = bound if lo is None or bound > lo else lo
    s_n = ceil(lo) if lo is not None else 0
    s = tuple(got) + (s_n,)
    return mat_vec(u, s)


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
        m = len(self.base_rows)
        level = self._dedupe([(r, tuple(1 if i == j else 0 for j in range(m)))
                              for i, r in enumerate(self.base_rows)])
        levels = [level]
        for k in range(nvars, 0, -1):
            level = self._eliminate(level, k)
            levels.append(level)
        levels.reverse()
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
            contents = [self._content(c) for c, _ in rows]
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

    @staticmethod
    def _content(coeffs) -> int:
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        return g

    @staticmethod
    def _dedupe(rows):
        seen = {}
        for coeffs, mult in rows:
            seen.setdefault((coeffs, mult), None)
        return [k for k in seen]

    @staticmethod
    def _eliminate(rows, nvars):
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
                g = ParametricIntegerFeasibility._content(coeffs + mult)
                if g > 1:
                    coeffs = tuple(v // g for v in coeffs)
                    mult = tuple(v // g for v in mult)
                out.append((coeffs, mult))
        return ParametricIntegerFeasibility._dedupe(out)

    def query(self, rhs) -> bool:
        """Is there an integer point with base_rows . x >= rhs?"""
        try:
            return bool(self.points(rhs, first=True))
        except UnboundedSearch:
            poly = RationalPolyhedron(self.nvars,
                                      [(r, Fraction(b)) for r, b in
                                       zip(self.base_rows, rhs)])
            ok, _ = integer_feasible(poly)
            return ok

    def points(self, rhs, prune=None, first: bool = False) -> list[tuple[int, ...]]:
        """Integer points with base_rows . x >= rhs, in lex order.

        With `first` the search stops at the first point.  `prune(k, x)`
        is called once x_0..x_k are fixed (x is a shared list); a true
        result drops that value of x_k and everything below it.  Meeting
        a coordinate without a lower or an upper bound raises
        UnboundedSearch.
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
            last = k + 1 == n
            for v in range(lo, hi + 1):
                x[k] = v
                if prune is not None and prune(k, x):
                    continue
                if last:
                    out.append(tuple(x))
                else:
                    rec(k + 1, [[ri - a * v for ri, a in zip(rl, col)]
                                for rl, col in zip(res[1:], cols[k])])
                if first and out:
                    return

        rec(0, res)
        return out


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
