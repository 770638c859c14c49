from operator import mul

import pytest

from toricsec.cohomology import fiber_rhs, fiber_tower
from toricsec.fans import Fan, fan_from_rays
from toricsec.polyhedra import polytope_lattice_points

RAYS = {
    "P1": [(1,), (-1,)],
    "P2": [(1, 0), (0, 1), (-1, -1)],
    "P3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    "P4": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)],
    "P1xP1": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "S1": [(1, 0), (0, 1), (-1, -1), (1, 1)],
    "S2": [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0)],
    "S3": [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)],
    "B1_3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (2, -1, -1)],
    "D1_3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (2, -1, -1), (1, -1, -1)],
    "B1": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (-1, 0, 0, 0), (3, -1, -1, -1)],
    "E1": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (-1, 0, 0, 0), (3, -1, -1, -1), (2, -1, -1, -1)],
    "I1": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (0, -1, 1, 0), (2, 0, -1, -1), (-1, 0, 0, 0), (-1, 0, 1, 0)],
    "J1": [(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, -1, 0), (0, 0, 1, 0),
           (0, 0, 0, 1), (0, 0, -1, -1), (-1, 0, 0, 0), (-1, 0, 1, 0)],
    "M1": [(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 1, 1), (0, 0, 1, 0),
           (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1), (-1, 0, 0, 0)],
    "V4": [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
           (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1),
           (1, 1, 1, 1)],
    "R3": [(1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 1, -1), (0, 0, 1, 0),
           (0, 0, 0, 1), (0, 0, -1, 0), (1, 0, 0, -1), (-1, 0, 0, 1),
           (-1, 0, 0, 0)],
}


def make_fan(label: str) -> Fan:
    rays = RAYS[label]
    return fan_from_rays(len(rays[0]), rays, label=label)


def total_space_fan(fan: Fan) -> tuple[Fan, int]:
    """Fan of tot(omega_X) in dimension n+1, plus the index of the extra ray."""
    n = fan.dim
    rays = tuple(tuple(r) + (1,) for r in fan.rays) + ((0,) * n + (1,),)
    rho_tot = fan.n_rays
    cones = tuple(tuple(sorted(c + (rho_tot,))) for c in fan.max_cones)
    return Fan(n + 1, rays, cones, label=f"tot(w_{fan.label})" if fan.label else ""), rho_tot


def spy(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.fixture(scope="session")
def fans() -> dict[str, Fan]:
    return {label: make_fan(label) for label in RAYS}


def level0_pullback(multipliers, matrix, offset) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Level-0 multipliers pulled back through rhs = matrix . theta + offset.

    The reference for cohomology.fiber_refuters, which reads the same rows
    off the circuits of the ray relations instead of an elimination.

    A level-0 multiplier y >= 0 has y . rows = 0, so the system rows . x
    >= rhs has no integer point once y . ceil(rhs) > 0 (the rows are
    integral, so rounding rhs up keeps every integer point): a Farkas
    certificate (Schrijver 1986, section 7).  For an integral matrix (one
    row per base row) and offset and an integer theta, ceil(rhs) = rhs
    and the row reads L . theta + c > 0 with L = y . matrix and c =
    y . offset.  Returns the distinct pairs (L, c), the largest c per L
    (it fires whenever a smaller one does), and without those that never
    fire (L = 0, c <= 0).  For integer theta, some L . theta + c > 0
    exactly when the level-0 test of ParametricIntegerFeasibility.query
    refutes matrix . theta + offset, so query then returns False.
    """
    columns = tuple(zip(*matrix))
    best = {}
    for y in multipliers:
        key = tuple(sum(map(mul, y, col)) for col in columns)
        c = sum(map(mul, y, offset))
        if (any(key) or c > 0) and (key not in best or c > best[key]):
            best[key] = c
    return tuple(best.items())


def refuted(rows, cls) -> bool:
    """Some level-0 row (L, c) fires at the integer class cls: L . cls + c > 0.

    The reference for a row set's refutations, kept apart from the
    refuter screens of cohomology.
    """
    return any(sum(map(mul, L, cls)) + c > 0 for L, c in rows)


def sections(pic, cls) -> list[tuple[int, ...]]:
    """Exponent vectors of the torus-invariant sections of a class, lex order.

    The full fiber, kept as the reference for the pruned searches of
    quiver._level_arrows and for the theta embedding count.
    """
    free = polytope_lattice_points(fiber_tower(pic, ()), fiber_rhs(pic, cls, ()))
    return sorted(pic.lift(cls, t) for t in free)
