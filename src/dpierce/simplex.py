"""Exact simplex for the small LPs behind the fractional solvers.

Solves max{c.x : Ax <= b, x >= 0} with b >= 0, so the all-slack basis is
feasible and no phase one is needed (every covering/matching LP in this
package has that shape).  Pivoting is Dantzig's rule with a permanent switch
to Bland's rule after a degenerate stall, which keeps the method anti-cycling
while staying fast on non-degenerate instances; all tie-breaks are by lowest
index, so runs are deterministic.

Arithmetic is exact and fraction-free (Edmonds/Bareiss pivoting, as in
Avis's lrs).  The tableau holds Python ints over one common denominator D,
the last pivot element; every division in a pivot is exact by Sylvester's
identity, so no gcd is ever taken.  Rational data are brought to integers
by scaling each row of [A | b], and c, by the lcm of its denominators.

The tableau is condensed, like lrs's dictionary: m rows of one column per
nonbasic variable plus the rhs, with two index lists naming each row's
basic variable and each column's nonbasic one.  A basic variable's column
is always D times a unit vector, so it is not stored.  A pivot on row r and
column s gives every entry outside row r and column s the Bareiss update
(x*p - f*y) / D, keeps row r, and hands column s to the leaving variable:
the old D in row r, -f in every other row (f the row's old entry in column
s) and minus the old reduced cost in the objective.  Those are the entries
the full m x (n+m+1) tableau holds in its nonbasic columns.  The pivot
rules read variable indices, never column positions, so they pick the same
pivots as the full tableau and reach the same D and solutions.

Before returning, the primal and dual solutions are re-verified against the
input data, in integers too: each check is the rational inequality
multiplied through by the positive row scales and by D, so it is exact
without a single Fraction.  Results are returned as Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

# the rational type of the results; perfbench/run.py reads it
_Q = Fraction

# pivots without strict objective improvement tolerated before switching to
# Bland's rule (any finite threshold preserves the termination guarantee)
_STALL_LIMIT = 64


class SimplexError(RuntimeError):
    """Internal inconsistency: produced solutions failed re-verification."""


@dataclass(frozen=True)
class LPSolution:
    """Optimal value with mutually certifying primal and dual solutions."""

    value: Fraction
    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]
    pivots: int


def _integer_row(values) -> tuple[list[int], int]:
    """`values` times the lcm s of their denominators, as ints, and s."""
    values = [v if isinstance(v, int) else Fraction(v) for v in values]
    s = lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


def solve_lp_max(A, b, c) -> LPSolution:
    """Maximize c.x subject to Ax <= b, x >= 0 (b >= 0 required).

    Returns the exact optimum, an optimal primal vector, and an optimal dual
    vector y (min y.b s.t. yA >= c, y >= 0) with c.x == y.b verified.
    Raises SimplexError if the LP is unbounded or verification fails.
    """
    m = len(A)
    n = len(c)
    for i, bi in enumerate(b):
        if bi < 0:
            raise ValueError(f"b[{i}] = {bi} < 0: all-slack start infeasible")
    if n == 0:
        return LPSolution(Fraction(0), (), tuple(Fraction(0) for _ in range(m)), 0)

    # variables 0..n-1 are structural and n+i is the slack of row i.  Row i
    # of the condensed tableau starts as s_i * [A[i] | b[i]], one column per
    # nonbasic variable plus the rhs, and the objective row as s_c * [-c | 0];
    # the true tableau is T / D.  A basic variable's column is D * e_i, so it
    # is not stored.  _verify checks the result against the unpivoted inputs
    # and c_row
    inputs: list[list[int]] = []
    scales: list[int] = []
    for i in range(m):
        if len(A[i]) != n:
            raise ValueError(f"A[{i}] has {len(A[i])} entries, expected {n}")
        row, s = _integer_row([*A[i], b[i]])
        inputs.append(row)
        scales.append(s)
    rows = [list(row) for row in inputs]
    c_row, s_c = _integer_row(c)
    obj = [-v for v in c_row] + [0]
    D = 1

    basis = list(range(n, n + m))  # basic variable of each row
    nonbasic = list(range(n))  # nonbasic variable of each column
    pivots = 0
    stall = 0
    bland = False

    # the slack of row i stands for s_i times the slack of the input row, so
    # its reduced cost is the input's divided by s_i; weighting it back makes
    # Dantzig's choice that of the unscaled tableau
    weights = [1] * n + scales

    while True:
        # all reduced costs share the denominator D > 0: compare numerators.
        # Bland's rule takes the lowest variable with a negative reduced cost,
        # and Dantzig's breaks ties by lowest variable: variable indices,
        # never column positions
        col = -1
        if bland:
            for j in range(n):
                if obj[j] < 0 and (col < 0 or nonbasic[j] < nonbasic[col]):
                    col = j
        else:
            best = 0
            for j in range(n):
                v = obj[j] * weights[nonbasic[j]]
                if v < best or (v == best < 0 and nonbasic[j] < nonbasic[col]):
                    best = v
                    col = j
        if col < 0:
            break

        # ratio test by cross-multiplication; ties by lowest basic-variable
        # index (Bland-compatible)
        row_idx = -1
        num = den = 0
        for i in range(m):
            a = rows[i][col]
            if a > 0:
                rhs = rows[i][-1]
                if (
                    row_idx < 0
                    or rhs * den < num * a
                    or (rhs * den == num * a and basis[i] < basis[row_idx])
                ):
                    num, den = rhs, a
                    row_idx = i
        if row_idx < 0:
            raise SimplexError("LP is unbounded")

        # every entry outside the pivot row and column becomes (x*p - f*y) / D
        # and the pivot row stays.  The pivot column becomes the leaving
        # variable's, whose D * e_r pivots to the old D in the pivot row and
        # to -f elsewhere, f being the row's old entry in the pivot column
        piv_row = rows[row_idx]
        p = piv_row[col]
        for i in range(m):
            if i == row_idx:
                continue
            r = rows[i]
            f = r[col]
            if f:
                r = rows[i] = [(x * p - f * y) // D for x, y in zip(r, piv_row)]
                r[col] = -f
            elif p != D:
                rows[i] = [x * p // D for x in r]
        f = obj[col]
        obj = [(x * p - f * y) // D for x, y in zip(obj, piv_row)]
        obj[col] = -f
        piv_row[col] = D
        D = p
        nonbasic[col], basis[row_idx] = basis[row_idx], nonbasic[col]
        pivots += 1

        # the objective moves by -f * rhs / p, so it stalls iff rhs = 0
        if piv_row[-1] == 0:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0

    P = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            P[var] = rows[i][-1]
    # a basic slack's reduced cost is 0
    Y = [0] * m
    for j, var in enumerate(nonbasic):
        if var >= n:
            Y[var - n] = obj[j]
    V = obj[-1]
    _verify(inputs, c_row, D, P, Y, V)

    primal = tuple(Fraction(v, D) for v in P)
    dual = tuple(Fraction(Y[i] * scales[i], D * s_c) for i in range(m))
    return LPSolution(Fraction(V, D * s_c), primal, dual, pivots)


def _verify(inputs, c_row, D, P, Y, V) -> None:
    """Certify x = P/D and y = Y*s/(D*s_c), of value V/(D*s_c), in integers.

    `inputs[i]` is s_i * [A[i] | b[i]] and `c_row` is s_c * c.  Every scale
    and D is positive, so multiplying a check on the rational solution
    through by them gives one of these, with the same truth value:
    x, y >= 0 is P, Y >= 0; A[i].x <= b[i] is sum_j inputs[i][j]*P[j] <=
    inputs[i][-1]*D; y.A[:, j] >= c[j] is sum_i Y[i]*inputs[i][j] >=
    c_row[j]*D; and c.x == y.b == value is c_row.P == Y.inputs[:, -1] == V.
    """
    if D <= 0:
        raise SimplexError(f"common denominator {D} is not positive")
    if any(v < 0 for v in P) or any(v < 0 for v in Y):
        raise SimplexError("negative component in returned solution")
    basic = [(j, v) for j, v in enumerate(P) if v]
    for i, row in enumerate(inputs):
        if sum(row[j] * v for j, v in basic) > row[-1] * D:
            raise SimplexError(f"primal violates constraint {i}")
    priced = [(inputs[i], v) for i, v in enumerate(Y) if v]
    for j, cj in enumerate(c_row):
        if sum(row[j] * v for row, v in priced) < cj * D:
            raise SimplexError(f"dual violates constraint {j}")
    cx = sum(c_row[j] * v for j, v in basic)
    yb = sum(row[-1] * v for row, v in priced)
    if not (cx == yb == V):
        raise SimplexError(f"duality gap: c.x={cx}, y.b={yb}, value={V} (all over D*s_c)")
