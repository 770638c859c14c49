import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsec import diagonal
from toricsec.diagonal import (
    DiagonalError,
    GradedChainComplex,
    _compile,
    _evaluate,
    _monomial_values,
    _point_profile,
    _rank_pivots,
    cell_sets,
    check_bidegrees,
    check_dd_zero,
    derivative_complex,
    diagonal_resolution_verdict,
    fiber_exactness_check,
    restrict_cells,
    sign_solve,
    superpotential,
)
from toricsec.fans import deg_and_pic
from toricsec.quiver import QuiverOfSections, Arrow, covering_quiver_on_y
from toricsec.workspace import load_workspace

from conftest import make_fan

E1_BUNDLES = [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 0, 0), (1, 0, 1),
              (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 3, 3)]


@pytest.fixture(scope="module")
def e1_signed():
    fan = make_fan("E1")
    pic = deg_and_pic(fan, (4, 5, 6))
    qy = covering_quiver_on_y(fan, pic, E1_BUNDLES)
    data = cell_sets(qy, 4)
    rest = restrict_cells(data, rho_tot=pic.n_rays)
    cx = derivative_complex(rest, qy, pic.n_rays, E1_BUNDLES)
    signed = sign_solve(cx)
    return fan, pic, qy, data, signed


def test_superpotential_p1():
    fan = make_fan("P1")
    pic = deg_and_pic(fan)
    qy = covering_quiver_on_y(fan, pic, [(0,), (1,)])
    cycles = superpotential(qy)
    # each cycle uses x0, x1, x_tot exactly once, through both arrows
    assert cycles
    for c in cycles:
        total = [0, 0, 0]
        for idx in c:
            for i, x in enumerate(qy.arrows[idx].div):
                total[i] += x
        assert total == [1, 1, 1]


def test_superpotential_requires_back_arrows():
    q = QuiverOfSections(((0,), (1,)), (Arrow(0, 1, (1, 0, 0)),), True, 3)
    assert superpotential(q) == ()
    with pytest.raises(DiagonalError):
        cell_sets(q, 2)


def test_e1_cell_cardinalities(e1_signed):
    _, _, qy, data, _ = e1_signed
    sizes = [len(l) for l in data.levels]
    assert sizes == [11, 46, 83, 83, 46, 11]
    # duality |Gamma'_k| = |Gamma'_{5-k}|
    assert sizes == sizes[::-1]


def test_e1_restricted_ranks(e1_signed):
    fan, pic, qy, data, signed = e1_signed
    assert signed.ranks == (11, 39, 52, 31, 7)


def test_j1_restricted_counts():
    fan = make_fan("J1")
    pic = deg_and_pic(fan, (2, 5, 6, 7))
    pic_rows = [
        [0, 0, 1, 1, 2, 2, 2, 3, 2, 3, 3, 3, 3, 3, 4, 3, 4],
        [0, 0, 0, 1, 1, 2, 1, 2, 2, 1, 2, 3, 2, 3, 2, 3, 2],
        [0, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 1, 2, 2, 2, 2, 2],
        [0, 1, 1, 1, 1, 1, 2, 1, 2, 2, 1, 1, 2, 1, 1, 2, 2]]
    bundles = list(zip(*pic_rows))
    qy = covering_quiver_on_y(fan, pic, bundles)
    rest = restrict_cells(cell_sets(qy, 4), rho_tot=pic.n_rays)
    assert [len(l) for l in rest] == [17, 50, 59, 38, 12]


def test_e1_sign_solution_squares_to_zero(e1_signed):
    _, pic, _, _, signed = e1_signed
    assert signed is not None
    assert check_dd_zero(signed)
    assert check_bidegrees(signed, pic)


def test_d1_shape(e1_signed):
    _, _, qy, _, signed = e1_signed
    d1 = signed.matrices[0]
    arrows = [a for a in qy.arrows if a.div[-1] == 0]
    for col, arrow in enumerate(arrows):
        terms_head = d1[(arrow.head, col)]
        terms_tail = d1[(arrow.tail, col)]
        assert terms_head == [(1, arrow.div[:-1], (0,) * 7)]
        assert terms_tail == [(-1, (0,) * 7, arrow.div[:-1])]


def test_repeated_subcell_entry(e1_signed):
    """A relation pair sharing its middle arrow yields a two-term entry."""
    _, _, qy, data, signed = e1_signed
    found = False
    for (row, col), terms in signed.matrices[1].items():
        if len(terms) == 2:
            found = True
            break
    assert found


def test_sign_corruption_detected(e1_signed):
    _, _, _, _, signed = e1_signed
    import copy
    broken = copy.deepcopy(signed)
    key = next(iter(broken.matrices[1]))
    s, a, b = broken.matrices[1][key][0]
    broken.matrices[1][key][0] = (-s, a, b)
    assert not check_dd_zero(broken)


def test_fiber_exactness_e1(e1_signed):
    _, _, _, _, signed = e1_signed
    rep = fiber_exactness_check(signed, 4, trials=8, diagonal_trials=4, seed=3)
    assert rep.ok
    assert rep.off_diagonal_ranks == (11, 28, 24, 7)
    assert rep.diagonal_homology == (1, 4, 6, 4, 1)


def torus_rescale(xs, ws, fan, exponents, prime: int):
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


def test_torus_orbit_invariance(e1_signed):
    fan, _, _, _, signed = e1_signed
    rng = random.Random(5)
    p = 2147483647
    xs = [rng.randrange(1, p) for _ in range(7)]
    ws = [rng.randrange(1, p) for _ in range(7)]
    compiled = _compile(signed)
    base = _point_profile(compiled, xs, ws, p)[0]
    xs2, ws2 = torus_rescale(xs, ws, fan, (3, -2, 5, 1), p)
    assert _point_profile(compiled, xs2, ws2, p)[0] == base


def test_alternating_sums_of_paper_complexes():
    assert 11 - 39 + 52 - 31 + 7 == 0
    assert 17 - 50 + 59 - 38 + 12 == 0
    assert 17 - 60 + 76 - 43 + 10 == 0
    assert 23 - 87 + 124 - 78 + 18 == 0


def test_dropped_bundle_collection_inconclusive():
    """Removing one bundle breaks exactness; the verdict stays inconclusive."""
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    verdict = diagonal_resolution_verdict(fan, pic, [(0,), (1,)], trials=4, seed=0)
    assert verdict.status == "inconclusive"


def test_p2_full_verdict():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    verdict = diagonal_resolution_verdict(fan, pic, [(0,), (1,), (2,)], trials=6, seed=0)
    assert verdict.full
    assert verdict.ranks == (3, 6, 3)


def test_threefold_verdict():
    fan = make_fan("D1_3")
    pic = deg_and_pic(fan, (3, 4, 5))
    bundles = [(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 0), (1, 0, 1),
               (1, 1, 1), (1, 1, 2), (1, 2, 2)]
    verdict = diagonal_resolution_verdict(fan, pic, bundles, trials=6, seed=0)
    assert verdict.full
    assert verdict.fiber.diagonal_homology == (1, 3, 3, 1)


# ------------------------------------------- fiber ranks against references

def full_reduction_rank(rows, p):
    """The former reduced row echelon rank mod p, kept as the reference."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    return r


def pow_evaluate(complex_, k, xs, ws, p):
    """The former evaluation with one pow per exponent, kept as the reference."""
    rows = [[0] * len(complex_.levels[k + 1]) for _ in complex_.levels[k]]
    for (row, col), terms in complex_.matrices[k].items():
        total = 0
        for sign, alpha, beta in terms:
            val = sign
            for e, x in zip(alpha, xs):
                if e:
                    val = val * pow(x, e, p) % p
            for e, w in zip(beta, ws):
                if e:
                    val = val * pow(w, e, p) % p
            total = (total + val) % p
        rows[row][col] = total % p
    return rows


@st.composite
def matrices_mod_p(draw):
    """Matrices over F_p, p in {7, 2^31 - 1}, with zero and dependent rows."""
    p = draw(st.sampled_from([7, 2147483647]))
    cols = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "random", "zero", "multiple", "sum"]))
        if kind == "random" or not rows:
            rows.append(draw(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)))
        elif kind == "zero":
            rows.append([0] * cols)
        elif kind == "multiple":
            k = draw(st.integers(1, p - 1))
            rows.append([k * x % p for x in rows[draw(st.integers(0, len(rows) - 1))]])
        else:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            rows.append([(x + y) % p for x, y in zip(rows[i], rows[j])])
    return rows, p


def dense_pivots(rows, p):
    """_rank_pivots of a dense matrix with entries in [0, p)."""
    return _rank_pivots([{j: x for j, x in enumerate(row) if x} for row in rows], p)


def pivot_rank(rows, p):
    return len(dense_pivots(rows, p)[0])


@settings(max_examples=300, deadline=None)
@given(matrices_mod_p())
def test_row_echelon_rank_matches_full_reduction(case):
    rows, p = case
    rank = full_reduction_rank(rows, p)
    pivot_rows, pivot_cols = dense_pivots(rows, p)
    assert len(set(pivot_rows)) == len(set(pivot_cols)) == len(pivot_rows) == rank
    # the pivots index a nonsingular minor of that size
    minor = [[rows[i][j] for j in pivot_cols] for i in pivot_rows]
    assert full_reduction_rank(minor, p) == rank


@settings(max_examples=200, deadline=None)
@given(matrices_mod_p(), st.randoms(use_true_random=False))
def test_scheduled_minor_elimination_certifies_nonsingular_minors(case, rng):
    rows, p = case
    # one monomial per nonzero entry: the values are the matrix itself
    entries = {(i, j): (i * len(row) + j,)
               for i, row in enumerate(rows) for j, x in enumerate(row) if x}
    pivot_rows, pivot_cols = dense_pivots(rows, p)
    minor = diagonal._minor(entries, pivot_rows, pivot_cols)
    assert diagonal._nonsingular(minor, [x for row in rows for x in row], p)
    # at other values on the same support, True still means nonsingular
    other = [[rng.randrange(p) if x else 0 for x in row] for row in rows]
    if diagonal._nonsingular(minor, [x for row in other for x in row], p):
        sub = [[other[i][j] for j in pivot_cols] for i in pivot_rows]
        assert full_reduction_rank(sub, p) == len(pivot_rows)


def test_compiled_monomials_match_pow_beyond_exponent_one():
    rng = random.Random(7)
    p = 2147483647
    nv = 4
    levels = (("cell",) * 3, ("cell",) * 4, ("cell",) * 2)
    matrices = []
    for k in range(2):
        entries = {}
        for row in range(len(levels[k])):
            for col in range(len(levels[k + 1])):
                entries[(row, col)] = [
                    (rng.choice((1, -1)), tuple(rng.randint(0, 3) for _ in range(nv)),
                     tuple(rng.randint(0, 3) for _ in range(nv)))
                    for _ in range(rng.randint(1, 3))]
        matrices.append(entries)
    matrices[1][(0, 0)].append((1, (0, 0, 0, 4), (0,) * nv))
    cx = GradedChainComplex((), levels, matrices, nv)
    xs = [rng.randrange(1, p) for _ in range(nv)]
    ws = [rng.randrange(1, p) for _ in range(nv)]
    monomials, matrices = _compile(cx)
    # the exponent-4 term repeats its variable's index four times
    assert (1, (3, 3, 3, 3)) in monomials
    values = _monomial_values(monomials, xs + ws, p)
    for k, (shape, entries) in enumerate(matrices):
        rows = _evaluate(shape, entries, values, p)
        got = [[row.get(col, 0) for col in range(shape[1])] for row in rows]
        assert got == pow_evaluate(cx, k, xs, ws, p)


def test_fiber_check_stops_at_the_first_off_diagonal_deviation(e1_signed, monkeypatch):
    _, _, _, _, signed = e1_signed
    real = diagonal._point_profile
    calls = []  # per evaluated point: is it on the diagonal?

    def third_point_deviates(compiled, xs, ws, p, minors=None):
        calls.append(xs is ws)
        profile, found = real(compiled, xs, ws, p, minors)
        return ([0] * len(profile) if len(calls) == 3 else profile), found

    monkeypatch.setattr(diagonal, "_point_profile", third_point_deviates)
    rep = fiber_exactness_check(signed, 4, trials=8, diagonal_trials=4, seed=3)
    assert not rep.ok
    assert rep.detail.startswith("off-diagonal rank deviation at trial 2:")
    assert calls == [False] * 3


def test_later_off_diagonal_points_check_only_the_recorded_minors(e1_signed, monkeypatch):
    _, _, _, _, signed = e1_signed
    rank, nonsingular = diagonal._rank_pivots, diagonal._nonsingular
    seen = []  # per matrix ranked in full or minor checked, in order: kind and rows

    def rank_spy(rows, p):
        seen.append(("rank", len(rows)))
        return rank(rows, p)

    def minor_spy(minor, values, p):
        seen.append(("minor", minor[0]))
        return nonsingular(minor, values, p)

    monkeypatch.setattr(diagonal, "_rank_pivots", rank_spy)
    monkeypatch.setattr(diagonal, "_nonsingular", minor_spy)
    rep = fiber_exactness_check(signed, 4, trials=8, diagonal_trials=2, seed=3)
    assert rep.ok
    full = [("rank", n) for n in signed.ranks[:-1]]
    minors = [("minor", e) for e in rep.off_diagonal_ranks]
    assert seen == full + minors * 7 + full * 2


def reference_fiber_exactness_check(complex_, n, trials=32, diagonal_trials=8,
                                    seed=0, prime=2147483647):
    """The former check, full ranks at every point, kept as the reference."""
    rng = random.Random(seed)
    d = complex_.n_variables
    ranks = complex_.ranks
    alternating = sum((-1) ** i * r for i, r in enumerate(ranks))
    if alternating != 0:
        return diagonal.FiberReport(False, (), (), f"alternating rank sum {alternating} != 0")
    expected = [ranks[0]]
    for k in range(1, len(ranks) - 1):
        expected.append(ranks[k] - expected[k - 1])
    off_points = [([rng.randrange(1, prime) for _ in range(d)],
                   [rng.randrange(1, prime) for _ in range(d)]) for _ in range(trials)]
    diag_points = [[rng.randrange(1, prime) for _ in range(d)]
                   for _ in range(diagonal_trials)]

    def profile(xs, ws):
        return [pivot_rank(pow_evaluate(complex_, k, xs, ws, prime), prime)
                for k in range(len(complex_.matrices))]

    for t, (xs, ws) in enumerate(off_points):
        got = profile(xs, ws)
        if got != expected:
            return diagonal.FiberReport(False, tuple(got), (),
                                        f"off-diagonal rank deviation at trial {t}: "
                                        f"{got} != {expected}")
    want_diag = [comb(n, k) for k in range(n + 1)]
    for t, point in enumerate(diag_points):
        padded = [0] + profile(point, point) + [0]
        hom = [r - padded[k] - padded[k + 1] for k, r in enumerate(ranks)]
        if hom != want_diag:
            return diagonal.FiberReport(False, tuple(expected), tuple(hom),
                                        f"diagonal homology {hom} != {want_diag} at trial {t}")
    return diagonal.FiberReport(True, tuple(expected), tuple(want_diag))


@pytest.fixture(scope="module")
def grid_complexes():
    """The signed complexes of the bundled S3, D1_3 and E1 collections."""
    ws = load_workspace()
    out = {}
    for label in ("S3", "D1_3", "E1"):
        fan, pic = ws.fan(label), ws.pic(label)
        bundles = [tuple(b) for b in ws.collection_for(label).bundles]
        qy = covering_quiver_on_y(fan, pic, bundles)
        rest = restrict_cells(cell_sets(qy, fan.dim), rho_tot=pic.n_rays)
        out[label] = sign_solve(derivative_complex(rest, qy, pic.n_rays, bundles))
    return out


@pytest.mark.parametrize("label, n, trials", [("S3", 2, 32), ("D1_3", 3, 32), ("E1", 4, 8)])
@pytest.mark.parametrize("prime", [3, 5, 7, 11, 101, 2147483647])
def test_fiber_reports_match_full_ranks_everywhere(grid_complexes, label, n, trials, prime):
    signed = grid_complexes[label]
    for seed in range(6):
        args = dict(trials=trials, diagonal_trials=trials // 4, seed=seed, prime=prime)
        assert fiber_exactness_check(signed, n, **args) == \
            reference_fiber_exactness_check(signed, n, **args), seed


def doctored_first_matrix(signed):
    """signed plus x_0 - w_0 in d1 at its last column: zero on the diagonal."""
    d1 = dict(signed.matrices[0])
    col = len(signed.levels[1]) - 1
    row = next(r for r in range(len(signed.levels[0])) if (r, col) not in d1)
    unit = (1,) + (0,) * (signed.n_variables - 1)
    zero = (0,) * signed.n_variables
    d1[(row, col)] = [(1, unit, zero), (-1, zero, unit)]
    return GradedChainComplex(signed.bundles, signed.levels, [d1] + signed.matrices[1:],
                              signed.n_variables), col


def test_fiber_check_rejects_a_nonzero_square_that_no_rank_sees(e1_signed):
    _, _, _, _, signed = e1_signed
    broken, col = doctored_first_matrix(signed)
    assert not check_dd_zero(broken)
    # the extra entry lies outside the minor recorded at the first point
    rng, p = random.Random(3), 2147483647
    xs = [rng.randrange(1, p) for _ in range(broken.n_variables)]
    ws = [rng.randrange(1, p) for _ in range(broken.n_variables)]
    monomials, matrices = _compile(broken)
    values = _monomial_values(monomials, xs + ws, p)
    assert col not in _rank_pivots(_evaluate(*matrices[0], values, p), p)[1]
    # d1 has full row rank off the diagonal and the entry vanishes on it
    assert reference_fiber_exactness_check(broken, 4, trials=4, diagonal_trials=2, seed=3).ok
    with pytest.raises(DiagonalError, match="squared differential nonzero"):
        fiber_exactness_check(broken, 4, trials=4, diagonal_trials=2, seed=3)


def test_verdict_reports_a_nonzero_square_before_any_fiber(monkeypatch):
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    real = diagonal.sign_solve
    monkeypatch.setattr(diagonal, "sign_solve", lambda cx: doctored_first_matrix(real(cx))[0])
    verdict = diagonal_resolution_verdict(fan, pic, [(0,), (1,), (2,)], trials=2, seed=0)
    assert (verdict.status, verdict.stage, verdict.fiber) == \
        ("inconclusive", "squared differential nonzero", None)


def test_verdict_rejects_a_term_off_the_generator_bidegrees(monkeypatch):
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    real = diagonal.derivative_complex

    def shifted(*args):
        cx = real(*args)
        terms = next(iter(cx.matrices[0].values()))
        sign, alpha, beta = terms[0]
        terms[0] = (sign, (alpha[0] + 1,) + alpha[1:], beta)
        return cx

    monkeypatch.setattr(diagonal, "derivative_complex", shifted)
    verdict = diagonal_resolution_verdict(fan, pic, [(0,), (1,), (2,)], trials=2, seed=0)
    assert (verdict.status, verdict.stage, verdict.fiber) == \
        ("inconclusive", "term bidegrees off the generators", None)


# ------------------------------------------------ cell levels and parameters

@pytest.mark.parametrize("label, bundles, kinds", [
    ("P2", [(0,), (1,), (2,)], ["v", "a", "j", "dv"]),
    ("D1_3", [(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 0), (1, 0, 1),
              (1, 1, 1), (1, 1, 2), (1, 2, 2)], ["v", "a", "j", "da", "dv"]),
])
def test_cell_sets_keep_n_plus_two_levels(label, bundles, kinds):
    fan = make_fan(label)
    pic = deg_and_pic(fan, (3, 4, 5) if label == "D1_3" else None)
    qy = covering_quiver_on_y(fan, pic, bundles)
    data = cell_sets(qy, fan.dim)
    assert len(data.levels) == fan.dim + 2
    assert [{c.key[0] for c in lv} for lv in data.levels] == [{k} for k in kinds]


def test_cell_sets_levels_of_e1(e1_signed):
    _, _, _, data, _ = e1_signed
    assert [{c.key[0] for c in lv} for lv in data.levels] == \
        [{"v"}, {"a"}, {"j"}, {"dj"}, {"da"}, {"dv"}]


@pytest.mark.parametrize("n, message", [
    (1, "cell calculus needs dim >= 2"),
    (5, "cell calculus implemented for dim <= 4"),
])
def test_cell_sets_reject_unsupported_dimension(e1_signed, n, message):
    _, _, qy, _, _ = e1_signed
    with pytest.raises(DiagonalError, match=message):
        cell_sets(qy, n)


def test_cells_share_ends_and_divisor_across_paths(e1_signed):
    _, _, qy, data, _ = e1_signed
    for lv in data.levels[1:]:
        for c in lv:
            for p in c.paths:
                assert qy.arrows[p[0]].tail == c.tail
                assert qy.arrows[p[-1]].head == c.head
                assert diagonal._path_div(qy, p) == c.div


def trial_division_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(-10, 200_000))
def test_is_prime_matches_trial_division(p):
    assert diagonal._is_prime(p) == trial_division_prime(p)


@pytest.mark.parametrize("p, prime", [
    (561, False),                      # Carmichael number
    (3215031751, False),               # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, False),      # strong pseudoprime to bases 2 .. 23
    (318665857834031151167461, False),  # strong pseudoprime to bases 2 .. 37
    (2147483647, True),
    (2 ** 61 - 1, True),
    (2147483649, False),
])
def test_is_prime_on_pseudoprimes_and_large_primes(p, prime):
    assert diagonal._is_prime(p) == prime


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": 0}, "trials must be at least 1, got 0"),
    ({"trials": -5}, "trials must be at least 1, got -5"),
    ({"diagonal_trials": 0}, "diagonal_trials must be at least 1, got 0"),
    ({"prime": 1}, "prime 1 is not prime"),
    ({"prime": 9}, "prime 9 is not prime"),
    ({"prime": 2147483649}, "prime 2147483649 is not prime"),
    ({"prime": 2 ** 89 - 1}, "beyond the exact primality test"),
    ({"prime": 2}, "prime 2 is too small"),
])
def test_fiber_parameters_rejected(e1_signed, monkeypatch, kwargs, message):
    fan, pic, _, _, signed = e1_signed
    with pytest.raises(DiagonalError, match=message):
        fiber_exactness_check(signed, 4, **kwargs)

    def no_quiver(*args):
        raise AssertionError("parameters must be checked before any work")

    monkeypatch.setattr(diagonal, "covering_quiver_on_y", no_quiver)
    error = DiagonalError
    if "diagonal_trials" in kwargs:
        # the verdict has no such knob: it always draws DIAGONAL_TRIALS diagonal points
        error, message = TypeError, "unexpected keyword argument 'diagonal_trials'"
    with pytest.raises(error, match=message):
        diagonal_resolution_verdict(fan, pic, E1_BUNDLES, **kwargs)


def test_fiber_report_carries_the_checked_profiles():
    fan = make_fan("P2")
    pic = deg_and_pic(fan)
    verdict = diagonal_resolution_verdict(fan, pic, [(0,), (1,), (2,)], trials=1, seed=0)
    assert verdict.full
    assert verdict.fiber.off_diagonal_ranks == (3, 3)
    assert verdict.fiber.diagonal_homology == (1, 2, 1)
