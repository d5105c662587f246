import random
import re
from fractions import Fraction

import pytest

from dpierce import ProjectiveParams, projective_instance, simplex
from dpierce.simplex import SimplexError, solve_lp_max

from helpers import reference_solve_lp_max, reference_verify

# Beale's classic cycling instance, its rows and objective times 100
BEALE = (
    [
        [25, -6000, -4, 900],
        [50, -9000, -2, 300],
        [0, 0, 100, 0],
    ],
    [0, 0, 100],
    [75, -15000, 2, -600],
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


def _incidence_lps(seed, count=240):
    """Seeded LPs of the shape the solvers build: 0/1 rows, b = c = 1.

    Up to 10 rows and 10 columns of density 0.3 or 0.5, every column
    nonzero.  Reduced costs tie often here, also between variables whose
    column positions are in the reverse of their index order.
    """
    rng = random.Random(seed)
    lps = []
    for _ in range(count):
        m, n = rng.randint(2, 10), rng.randint(2, 10)
        density = rng.choice((0.3, 0.5))
        A = [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]
        for j in range(n):  # keep every column bounded
            if not any(A[i][j] for i in range(m)):
                A[rng.randrange(m)][j] = 1
        lps.append((A, [1] * m, [1] * n))
    return lps


def _tied_lps(seed, count=240):
    """Seeded LPs built for reduced-cost ties between variables.

    The rows are the cyclic shifts of one base row, each times 1, 2 or 3,
    so rows repeat one another up to rotation and scale; every objective
    coefficient is 1, and half of the LPs get a copy of one column at a
    random position.  In some of them a slack that has left the basis ties
    in reduced cost with a structural variable at a higher column position,
    or two variables tie in the reverse of their column order.
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
            A.append([v * k for v in row])
            b.append(rng.choice((1, 2)) * (row[0] or 1) * k)
        c = [1] * n
        if rng.random() < 0.5:
            j, k = rng.randrange(n), rng.randint(0, n)
            for row in A:
                row.insert(k, row[j])
            c.insert(k, 1)
        lps.append((A, b, c))
    return lps


def _rejects(check, *args):
    try:
        check(*args)
    except SimplexError:
        return True
    return False


def _as_tuple(sol):
    """(value, primal, dual, pivots) of a solution, in Fractions."""
    return (
        Fraction(sol.value, sol.den),
        tuple(Fraction(x, sol.den) for x in sol.primal),
        tuple(Fraction(y, sol.den) for y in sol.dual),
        sol.pivots,
    )


def test_single_variable():
    sol = solve_lp_max([[1]], [2], [1])
    assert (sol.den, sol.value, sol.primal, sol.dual) == (1, 2, (2,), (1,))


def test_two_variable_known_optimum():
    # max x + y, x + 2y <= 4, 3x + y <= 6 -> optimum at (8/5, 6/5), value 14/5
    sol = solve_lp_max([[1, 2], [3, 1]], [4, 6], [1, 1])
    assert (sol.den, sol.value, sol.primal, sol.dual) == (5, 14, (8, 6), (2, 1))


def test_zero_objective():
    sol = solve_lp_max([[1, 1]], [5], [0, 0])
    assert sol.value == 0


@pytest.mark.parametrize("m", [0, 2])
def test_no_variables(m):
    # no column to enter: the all-slack start is optimal, with value 0
    sol = solve_lp_max([[]] * m, [3] * m, [])
    assert sol == simplex.LPSolution(1, 0, (), (0,) * m, 0)


def test_unbounded_detected():
    with pytest.raises(SimplexError):
        solve_lp_max([], [], [1])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        solve_lp_max([[1]], [-1], [1])


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1), 0.5, 1.0, True], ids=repr)
def test_non_int_entries_rejected(bad):
    # every entry of A, b and c must be an int: a Fraction, even an integral
    # one, a float or a bool is refused, and the message names the entry
    cases = {
        "A[1][0]": ([[1, 2], [bad, 1]], [4, 6], [1, 1]),
        "b[0]": ([[1, 2], [3, 1]], [bad, 6], [1, 1]),
        "c[1]": ([[1, 2], [3, 1]], [4, 6], [1, bad]),
    }
    for name, (A, b, c) in cases.items():
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} = .* is not an int$"):
            solve_lp_max(A, b, c)


@pytest.mark.parametrize("b", [[1, 5], []], ids=["longer", "shorter"])
def test_rhs_length_must_match_rows(b):
    # an extra entry of b is not ignored, and a missing one is no IndexError
    with pytest.raises(ValueError, match=rf"^b has {len(b)} entries, expected 1$"):
        solve_lp_max([[1]], b, [1])


def test_beale_degenerate_example_terminates():
    # Beale's classic cycling instance (times 100); optimum 5 at x = (1/25, 0, 1, 0)
    sol = solve_lp_max(*BEALE)
    value, primal, _, _ = _as_tuple(sol)
    assert value == 5
    assert primal == (Fraction(1, 25), 0, 1, 0)


def test_fractional_values_exact():
    # max x1 + x2 + x3 over the Fano-style odd cycle C5:
    # fractional matching of C5 (each constraint a vertex) has value 5/2
    sol = solve_lp_max(*_c5_lp())
    assert Fraction(sol.value, sol.den) == Fraction(5, 2)


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
        assert sol.den > 0 and sol.value >= 0  # x = 0 is always feasible here


def test_matches_reference_tableau():
    # the integer tableau must reproduce the Fraction tableau pivot for
    # pivot: same optimum, same primal and dual vertex, same pivot count
    lps = [_projective_lp(*dq) for dq in ((2, 2), (2, 3), (3, 2), (2, 5))]
    lps += [_c5_lp(), BEALE] + _random_lps(7)
    for A, b, c in lps:
        assert _as_tuple(solve_lp_max(A, b, c)) == reference_solve_lp_max(A, b, c)


def test_matches_reference_under_blands_rule(monkeypatch):
    # with no stall tolerated, Bland's rule takes over at the first
    # degenerate pivot, and with one stall at the second in a row
    lps = [BEALE] + _random_lps(7) + _random_lps(11)
    plain = [_as_tuple(solve_lp_max(A, b, c)) for A, b, c in lps]
    for limit in (0, 1):
        monkeypatch.setattr(simplex, "_STALL_LIMIT", limit)
        switched = 0
        for (A, b, c), before in zip(lps, plain):
            got = _as_tuple(solve_lp_max(A, b, c))
            assert got == reference_solve_lp_max(A, b, c, stall_limit=limit)
            switched += got != before
        assert switched > 0  # the switch changed the pivots of some LP


def test_matches_reference_on_ties_and_scaled_rows(monkeypatch):
    # Dantzig's rule breaks reduced-cost ties, and Bland's rule chooses, by
    # lowest variable index, which is not the lowest column position once
    # slacks and structural variables have traded places.  The tied LPs
    # tell the two apart mostly under Bland's rule, the incidence LPs under
    # both rules
    lps = _tied_lps(13) + _incidence_lps(14)
    for limit in (simplex._STALL_LIMIT, 0):
        monkeypatch.setattr(simplex, "_STALL_LIMIT", limit)
        for A, b, c in lps:
            expected = reference_solve_lp_max(A, b, c, stall_limit=limit)
            assert _as_tuple(solve_lp_max(A, b, c)) == expected


def test_integer_verify_agrees_with_reference():
    # the genuine solution, and every solution whose integer P, Y or V is
    # one away from it in a single entry: the integer check must accept
    # exactly those that the Fraction check accepts
    accepted = rejected = 0  # tampered solutions, by the integer check
    for A, b, c in [BEALE, _c5_lp()] + _random_lps(5) + _random_lps(3, count=50):
        sol = solve_lp_max(A, b, c)
        inputs = [[*row, bi] for row, bi in zip(A, b)]
        D, P, Y, V = sol.den, list(sol.primal), list(sol.dual), sol.value
        variants = [(P, Y, V)]
        for delta in (-1, 1):
            variants += [(P[:j] + [P[j] + delta] + P[j + 1:], Y, V) for j in range(len(P))]
            variants += [(P, Y[:i] + [Y[i] + delta] + Y[i + 1:], V) for i in range(len(Y))]
            variants.append((P, Y, V + delta))
        for k, (P2, Y2, V2) in enumerate(variants):
            primal = [Fraction(v, D) for v in P2]
            dual = [Fraction(v, D) for v in Y2]
            verdict = _rejects(simplex._verify, inputs, c, D, P2, Y2, V2)
            assert verdict == _rejects(reference_verify, A, b, c, primal, dual, Fraction(V2, D))
            assert k > 0 or not verdict  # the genuine solution passes
            rejected += verdict
            accepted += k > 0 and not verdict
    # both outcomes occur among the tampered solutions (another optimal
    # vertex, or slack left in a constraint, keeps some of them valid)
    assert rejected > 1000 and accepted > 100


def test_integer_verify_rejects_tampered_solutions():
    # max x + y, x + 2y <= 4, 3x + y <= 6: x = (8, 6)/5, y = (2, 1)/5, 14/5
    inputs, c = [[1, 2, 4], [3, 1, 6]], [1, 1]
    simplex._verify(inputs, c, 5, [8, 6], [2, 1], 14)
    tampered = {
        "negative": (5, [8, 6], [2, -1], 14),
        "primal violates constraint 0": (5, [9, 6], [2, 1], 14),
        "dual violates constraint 0": (5, [8, 6], [1, 1], 14),
        "duality gap": (5, [8, 6], [2, 1], 15),
        "not positive": (-5, [8, 6], [2, 1], 14),
    }
    for message, (D, P, Y, V) in tampered.items():
        with pytest.raises(SimplexError, match=message):
            simplex._verify(inputs, c, D, P, Y, V)
