import random
from fractions import Fraction
from math import lcm

import pytest

from dpierce import ProjectiveParams, projective_instance, simplex
from dpierce.simplex import SimplexError, solve_lp_max

from helpers import reference_solve_lp_max, reference_verify

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


def _random_rational_lps(seed, count=200):
    """Seeded LPs with rational entries, so most row scales s_i exceed 1."""
    rng = random.Random(seed)

    def entry(*numerators):
        return Fraction(rng.choice(numerators), rng.choice((1, 2, 3, 4, 6)))

    lps = []
    for _ in range(count):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = [[entry(0, 0, 1, 2, 3, 5) for _ in range(n)] for _ in range(m)]
        for j in range(n):  # keep every column bounded
            if all(A[i][j] == 0 for i in range(m)):
                A[rng.randrange(m)][j] = entry(1, 2)
        b = [entry(0, 1, 2, 5, 7) for _ in range(m)]
        c = [entry(-2, 0, 1, 3, 5) for _ in range(n)]
        lps.append((A, b, c))
    return lps


def _tied_rational_lps(seed, count=240):
    """Seeded LPs built for reduced-cost ties between variables.

    The rows are the cyclic shifts of one base row, each divided by 1, 2 or
    3, so rows repeat one another up to rotation and most row scales s_i
    exceed 1; every objective coefficient is 1, and half of the LPs get a
    copy of one column at a random position.  In some of them a slack that
    has left the basis ties in reduced cost with a structural variable at a
    higher column position, or two variables tie in the reverse of their
    column order.
    """
    rng = random.Random(seed)
    lps = []
    for _ in range(count):
        n = rng.randint(3, 6)
        base = [rng.choice((0, 1, 1, 2)) for _ in range(n)]
        base[0] = base[0] or 1
        A, b = [], []
        for i in range(n):
            row = base[-i:] + base[:-i]
            k = rng.choice((1, 2, 3))
            A.append([Fraction(v, k) for v in row])
            b.append(Fraction(rng.choice((1, 2)) * (row[0] or 1), k))
        c = [1] * n
        if rng.random() < 0.5:
            j, k = rng.randrange(n), rng.randint(0, n)
            for row in A:
                row.insert(k, row[j])
            c.insert(k, 1)
        lps.append((A, b, c))
    return lps


def _integer_certificate(A, b, c, sol):
    """`_verify`'s arguments (inputs, c_row, D, P, Y, V) for a returned
    solution, with D the least common denominator that makes them integral,
    plus the row scales and s_c that map them back to rationals."""
    rows = [simplex._integer_row([*A[i], b[i]]) for i in range(len(A))]
    inputs = [row for row, _ in rows]
    scales = [s for _, s in rows]
    c_row, s_c = simplex._integer_row(c)
    scaled = [*sol.primal, sol.value * s_c]
    scaled += [y * s_c / s for y, s in zip(sol.dual, scales)]
    D = lcm(*(v.denominator for v in scaled))
    P = [int(x * D) for x in sol.primal]
    Y = [int(y * D * s_c / s) for y, s in zip(sol.dual, scales)]
    return (inputs, c_row, D, P, Y, int(sol.value * D * s_c)), scales, s_c


def _rejects(check, *args):
    try:
        check(*args)
    except SimplexError:
        return True
    return False


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


def test_matches_reference_on_ties_and_rational_rows(monkeypatch):
    # Dantzig's rule breaks reduced-cost ties, and Bland's rule chooses, by
    # lowest variable index, which is not the lowest column position once
    # slacks and structural variables have traded places
    lps = _tied_rational_lps(13)
    for limit in (simplex._STALL_LIMIT, 0):
        monkeypatch.setattr(simplex, "_STALL_LIMIT", limit)
        for A, b, c in lps:
            expected = reference_solve_lp_max(A, b, c, stall_limit=limit)
            assert _as_tuple(solve_lp_max(A, b, c)) == expected


def test_integer_verify_agrees_with_reference():
    # the genuine solution, and every solution whose integer P, Y or V is
    # one away from it in a single entry: the integer check must accept
    # exactly those that the Fraction check accepts
    rational = _random_rational_lps(5)
    scaled = sum(
        any(simplex._integer_row([*row, bi])[1] > 1 for row, bi in zip(A, b))
        for A, b, _ in rational
    )
    assert scaled > 150  # LPs with some row scale s_i > 1
    accepted = rejected = 0  # tampered solutions, by the integer check
    for A, b, c in [BEALE, _c5_lp()] + rational + _random_lps(3, count=50):
        certificate, scales, s_c = _integer_certificate(A, b, c, solve_lp_max(A, b, c))
        inputs, c_row, D, P, Y, V = certificate
        variants = [(P, Y, V)]
        for delta in (-1, 1):
            variants += [(P[:j] + [P[j] + delta] + P[j + 1:], Y, V) for j in range(len(P))]
            variants += [(P, Y[:i] + [Y[i] + delta] + Y[i + 1:], V) for i in range(len(Y))]
            variants.append((P, Y, V + delta))
        for k, (P2, Y2, V2) in enumerate(variants):
            primal = [Fraction(v, D) for v in P2]
            dual = [Fraction(v * s, D * s_c) for v, s in zip(Y2, scales)]
            value = Fraction(V2, D * s_c)
            verdict = _rejects(simplex._verify, inputs, c_row, D, P2, Y2, V2)
            assert verdict == _rejects(reference_verify, A, b, c, primal, dual, value)
            assert k > 0 or not verdict  # the genuine solution passes
            rejected += verdict
            accepted += k > 0 and not verdict
    # both outcomes occur among the tampered solutions (another optimal
    # vertex, or slack left in a constraint, keeps some of them valid)
    assert rejected > 1000 and accepted > 100


def test_integer_verify_rejects_tampered_solutions():
    # max x + y, x + 2y <= 4, 3x + y <= 6: x = (8, 6)/5, y = (2, 1)/5, 14/5
    inputs, c_row = [[1, 2, 4], [3, 1, 6]], [1, 1]
    simplex._verify(inputs, c_row, 5, [8, 6], [2, 1], 14)
    tampered = {
        "negative": (5, [8, 6], [2, -1], 14),
        "primal violates constraint 0": (5, [9, 6], [2, 1], 14),
        "dual violates constraint 0": (5, [8, 6], [1, 1], 14),
        "duality gap": (5, [8, 6], [2, 1], 15),
        "not positive": (-5, [8, 6], [2, 1], 14),
    }
    for message, (D, P, Y, V) in tampered.items():
        with pytest.raises(SimplexError, match=message):
            simplex._verify(inputs, c_row, D, P, Y, V)
