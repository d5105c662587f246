"""Exact simplex for the small LPs behind the fractional solvers.

Solves max{c.x : Ax <= b, x >= 0} for integer A, b and c with b >= 0, so
the all-slack basis is feasible and no phase one is needed (every
covering/matching LP in this package has that shape).  Pivoting is
Dantzig's rule with a permanent switch to Bland's rule after a degenerate
stall, which keeps the method anti-cycling while staying fast on
non-degenerate instances; all tie-breaks are by lowest index, so runs are
deterministic.

Arithmetic is exact and fraction-free (Edmonds/Bareiss pivoting, as in
Avis's lrs).  The tableau holds Python ints over one common denominator D,
the last pivot element; every division in a pivot is exact by Sylvester's
identity, so no gcd is ever taken.

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

The solution is returned as integer numerators over D.  Before that, the
primal and dual solutions are re-verified against the input data: each
check is the rational inequality multiplied through by D > 0, so it is
exact in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# the rational type of the results; perfbench/run.py reads it
_Q = Fraction

# pivots without strict objective improvement tolerated before switching to
# Bland's rule (any finite threshold preserves the termination guarantee)
_STALL_LIMIT = 64


class SimplexError(RuntimeError):
    """Internal inconsistency: produced solutions failed re-verification."""


@dataclass(frozen=True)
class LPSolution:
    """Optimal value with mutually certifying primal and dual solutions.

    Every number is an integer numerator over the common denominator
    `den` > 0: the optimum is value/den, and x_j = primal[j]/den and
    y_i = dual[i]/den.
    """

    den: int
    value: int
    primal: tuple[int, ...]
    dual: tuple[int, ...]
    pivots: int


def _require_ints(name: str, values) -> None:
    for j, v in enumerate(values):
        if type(v) is not int:
            raise ValueError(f"{name}[{j}] = {v!r} is not an int")


def solve_lp_max(A, b, c) -> LPSolution:
    """Maximize c.x subject to Ax <= b, x >= 0 (ints only, b >= 0 required).

    Returns the exact optimum, an optimal primal vector, and an optimal dual
    vector y (min y.b s.t. yA >= c, y >= 0) with c.x == y.b verified.
    Raises ValueError on malformed input, and SimplexError if the LP is
    unbounded or verification fails.
    """
    m = len(A)
    n = len(c)
    if len(b) != m:
        raise ValueError(f"b has {len(b)} entries, expected {m}")
    _require_ints("b", b)
    _require_ints("c", c)
    for i, bi in enumerate(b):
        if bi < 0:
            raise ValueError(f"b[{i}] = {bi} < 0: all-slack start infeasible")
    # variables 0..n-1 are structural and n+i is the slack of row i.  Row i
    # of the condensed tableau starts as [A[i] | b[i]], one column per
    # nonbasic variable plus the rhs, and the objective row as [-c | 0]; the
    # true tableau is T / D.  A basic variable's column is D * e_i, so it is
    # not stored.  _verify checks the result against the unpivoted inputs
    inputs: list[list[int]] = []
    for i in range(m):
        if len(A[i]) != n:
            raise ValueError(f"A[{i}] has {len(A[i])} entries, expected {n}")
        _require_ints(f"A[{i}]", A[i])
        inputs.append([*A[i], b[i]])
    rows = [list(row) for row in inputs]
    obj = [-v for v in c] + [0]
    D = 1

    basis = list(range(n, n + m))  # basic variable of each row
    nonbasic = list(range(n))  # nonbasic variable of each column
    pivots = 0
    stall = 0
    bland = False

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
                v = obj[j]
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
    _verify(inputs, c, D, P, Y, V)
    return LPSolution(D, V, tuple(P), tuple(Y), pivots)


def _verify(inputs, c, D, P, Y, V) -> None:
    """Certify x = P/D and y = Y/D, of value V/D, in integers.

    `inputs[i]` is [A[i] | b[i]].  D is positive, so multiplying a check on
    the rational solution through by it gives one of these, with the same
    truth value: x, y >= 0 is P, Y >= 0; A[i].x <= b[i] is
    sum_j inputs[i][j]*P[j] <= inputs[i][-1]*D; y.A[:, j] >= c[j] is
    sum_i Y[i]*inputs[i][j] >= c[j]*D; and c.x == y.b == value is
    c.P == Y.inputs[:, -1] == V.
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
    for j, cj in enumerate(c):
        if sum(row[j] * v for row, v in priced) < cj * D:
            raise SimplexError(f"dual violates constraint {j}")
    cx = sum(c[j] * v for j, v in basic)
    yb = sum(row[-1] * v for row, v in priced)
    if not (cx == yb == V):
        raise SimplexError(f"duality gap: c.x={cx}, y.b={yb}, value={V} (all over D)")
