import random
from fractions import Fraction

import pytest

from dpierce import ProjectiveParams, projective_instance, simplex
from dpierce.simplex import SimplexError, solve_lp_max

from helpers import reference_solve_lp_max

BEALE = (
    [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0],
    ],
    [0, 0, 1],
    [Fraction(3, 4), -150, Fraction(1, 50), -6],
)


def _c5_lp():
    # fractional matching of the odd cycle C5 (each constraint a vertex)
    n = 5
    A = [[1 if j in (i, (i + 1) % n) else 0 for j in range(n)] for i in range(n)]
    return A, [1] * n, [1] * n


def _projective_lp(dim, q):
    # the fractional matching LP of PG(dim, q): points x hyperplanes
    inst = projective_instance(ProjectiveParams(dim, q)).instance
    A = [[1 if pt in e else 0 for e in inst.edges] for pt in range(inst.ground_size)]
    return A, [1] * len(A), [1] * len(inst.edges)


def _random_lps(seed, count=200):
    """Seeded integer LPs with bounded columns; b has zeros, so some
    pivots are degenerate."""
    rng = random.Random(seed)
    lps = []
    for _ in range(count):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        A = [[rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(n)] for _ in range(m)]
        for j in range(n):  # keep every column bounded
            if all(A[i][j] == 0 for i in range(m)):
                A[rng.randrange(m)][j] = rng.randint(1, 3)
        b = [rng.choice((0, 0, rng.randint(1, 9))) for _ in range(m)]
        c = [rng.randint(-3, 5) for _ in range(n)]
        lps.append((A, b, c))
    return lps


def _as_tuple(sol):
    return sol.value, sol.primal, sol.dual, sol.pivots


def test_single_variable():
    sol = solve_lp_max([[1]], [2], [1])
    assert sol.value == 2
    assert sol.primal == (Fraction(2),)
    assert sol.dual == (Fraction(1),)


def test_two_variable_known_optimum():
    # max x + y, x + 2y <= 4, 3x + y <= 6 -> optimum at (8/5, 6/5), value 14/5
    sol = solve_lp_max([[1, 2], [3, 1]], [4, 6], [1, 1])
    assert sol.value == Fraction(14, 5)
    assert sol.primal == (Fraction(8, 5), Fraction(6, 5))


def test_zero_objective():
    sol = solve_lp_max([[1, 1]], [5], [0, 0])
    assert sol.value == 0


def test_unbounded_detected():
    with pytest.raises(SimplexError):
        solve_lp_max([], [], [1])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        solve_lp_max([[1]], [-1], [1])


def test_beale_degenerate_example_terminates():
    # Beale's classic cycling instance; optimum 1/20 at x = (1/25, 0, 1, 0)
    sol = solve_lp_max(*BEALE)
    assert sol.value == Fraction(1, 20)
    assert sol.primal == (Fraction(1, 25), 0, 1, 0)


def test_fractional_values_exact():
    # max x1 + x2 + x3 over the Fano-style odd cycle C5:
    # fractional matching of C5 (each constraint a vertex) has value 5/2
    sol = solve_lp_max(*_c5_lp())
    assert sol.value == Fraction(5, 2)


def test_random_lps_certified():
    # the solver re-verifies primal/dual feasibility and zero duality gap on
    # every call, so surviving a batch of random LPs is a strong certificate
    rng = random.Random(42)
    for _ in range(40):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        A = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        for j in range(n):  # keep every column bounded
            if all(A[i][j] == 0 for i in range(m)):
                A[rng.randrange(m)][j] = rng.randint(1, 3)
        b = [rng.randint(0, 9) for _ in range(m)]
        c = [rng.randint(-3, 5) for _ in range(n)]
        sol = solve_lp_max(A, b, c)
        assert sol.value >= 0  # x = 0 is always feasible here


def test_matches_reference_tableau():
    # the integer tableau must reproduce the Fraction tableau pivot for
    # pivot: same optimum, same primal and dual vertex, same pivot count
    lps = [_projective_lp(*dq) for dq in ((2, 2), (2, 3), (3, 2), (2, 5))]
    lps += [_c5_lp(), BEALE] + _random_lps(7)
    for A, b, c in lps:
        assert _as_tuple(solve_lp_max(A, b, c)) == reference_solve_lp_max(A, b, c)


def test_matches_reference_under_blands_rule(monkeypatch):
    # with no stall tolerated, Bland's rule takes over at the first
    # degenerate pivot
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
    for A, b, c in [BEALE] + _random_lps(11):
        expected = reference_solve_lp_max(A, b, c, stall_limit=0)
        assert _as_tuple(solve_lp_max(A, b, c)) == expected
