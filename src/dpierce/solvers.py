"""Exact matching/covering solvers and the (p,q)-property decision procedure.

All solvers consume a `HypergraphInstance`.  Integral solvers are
branch-and-bound with deterministic tie-breaks (reproducible node counts);
the fractional solver is an exact rational LP whose primal and dual sides
certify each other.  Every incidence LP (tau* and each node bound of the
branch-and-bounds) is solved on its dominance kernel: a point whose set of
edges is contained in another point's adds only a redundant row, so it is
left out, and the optimum is unchanged.  `fractional_pair` then certifies
its weights on every point and edge of the original instance.
`pq_check` decides the (p,q) property by a depth-first search for p
distinct edges that load no point q times, the shape of a counterexample.
`naive_oracle` is a deliberately unpruned enumeration used by the test
suite to certify the main solvers on small instances.

Multiplicity semantics: nu, tau and the (p,q) check operate on distinct
edges (copies of an edge are never disjoint and never enrich a p-subset);
max_depth counts copies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import HypergraphInstance, PQParameters
from .simplex import LPSolution, _integer_row, solve_lp_max


class TooLarge(ValueError):
    """Instance exceeds the naive oracle's enumeration guard."""


@dataclass(frozen=True)
class SolveResult:
    optimum: int
    witness: frozenset[int]
    node_count: int


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal LP value and weights for one side of the covering/matching LP."""

    value: Fraction
    weights: dict
    side: str  # 'cover' (weights on points) or 'matching' (weights on edge ids)


@dataclass(frozen=True)
class PQVerdict:
    holds: bool
    counterexample: frozenset[int] | None
    max_depth: int
    vacuous: bool = False


def distinct_edges(instance: HypergraphInstance) -> list[tuple[int, frozenset[int]]]:
    """(first-occurrence index, point set) for each distinct edge, in index order."""
    seen: set[frozenset[int]] = set()
    out = []
    for i, e in enumerate(instance.edges):
        if e not in seen:
            seen.add(e)
            out.append((i, e))
    return out


def verify_cover(instance: HypergraphInstance, points) -> bool:
    """Containment check, independent of any solver internals."""
    pts = set(points)
    return all(e & pts for e in instance.edges)


def verify_matching(instance: HypergraphInstance, edge_ids) -> bool:
    """Pairwise disjointness check, independent of any solver internals."""
    ids = sorted(set(edge_ids))
    if any(not (0 <= i < len(instance.edges)) for i in ids):
        return False
    if len({instance.edges[i] for i in ids}) != len(ids):
        return False  # two copies of one edge are never disjoint
    for a, b in itertools.combinations(ids, 2):
        if instance.edges[a] & instance.edges[b]:
            return False
    return True


def max_depth(instance: HypergraphInstance) -> tuple[int, int | None]:
    """(r, point) with r the largest multiplicity-weighted point degree."""
    load: dict[int, int] = {}
    for e, mult in zip(instance.edges, instance.multiplicity):
        for pt in e:
            load[pt] = load.get(pt, 0) + mult
    if not load:
        return 0, None
    best = max(load.values())
    point = min(pt for pt, v in load.items() if v == best)
    return best, point


def _incidence_lp(edge_sets: list[frozenset[int]]) -> tuple[list[int], LPSolution]:
    """(points, solution) of max{1.x : Ax <= 1, x >= 0}, A the kernel incidence.

    Columns are the edge sets in order; the primal is a fractional matching,
    the dual a fractional cover on `points`.  Rows are the dominance kernel
    of the points met by `edge_sets`, in increasing point id: the lowest id
    of each distinct set of edges through a point, minus every such set
    strictly contained in another.  A dropped row is implied by the row
    that contains it (for x >= 0 its load is at most that row's), so the
    primal polytope, and with it the LP value, is that of the full incidence.
    """
    masks: dict[int, int] = {}
    for j, e in enumerate(edge_sets):
        for pt in e:
            masks[pt] = masks.get(pt, 0) | 1 << j
    lowest: dict[int, int] = {}
    for pt in sorted(masks):
        lowest.setdefault(masks[pt], pt)
    # a strict superset has more bits, so it is kept before it is needed
    kept: list[int] = []
    for m in sorted(lowest, key=int.bit_count, reverse=True):
        if not any(m & k == m for k in kept):
            kept.append(m)
    points = sorted(lowest[m] for m in kept)
    n = len(edge_sets)
    rows = [[masks[pt] >> j & 1 for j in range(n)] for pt in points]
    return points, solve_lp_max(rows, [1] * len(points), [1] * n)


def _lp_value(edge_sets: list[frozenset[int]], mask: int, root_value: Fraction | None) -> Fraction:
    """The incidence LP optimum of the edge sets whose bits are set in `mask`.

    `root_value`, when given, is that optimum for all of `edge_sets`, the
    LP `fractional_pair` solves, and stands in for solving it again.
    """
    n = len(edge_sets)
    if root_value is not None and mask == (1 << n) - 1:
        return root_value
    _, sol = _incidence_lp([edge_sets[j] for j in range(n) if mask >> j & 1])
    return sol.value


# ---------------------------------------------------------------------------
# integral solvers
# ---------------------------------------------------------------------------

def covering_number(
    instance: HypergraphInstance, *, root_value: Fraction | None = None
) -> SolveResult:
    """Minimum point set meeting every edge, exactly.

    Branch and bound: greedy cover for the initial upper bound, a disjoint
    -edge packing and then the exact fractional optimum as lower bounds,
    branching on an uncovered edge with fewest points, all ties to lowest id.
    `root_value`, if given, must be the instance's exact tau* (as from
    `fractional_pair`); the root node then uses it instead of its own LP.
    """
    reps = distinct_edges(instance)
    if not reps:
        return SolveResult(0, frozenset(), 0)
    n = len(reps)
    edge_sets = [e for _, e in reps]
    full = (1 << n) - 1
    points = sorted(set().union(*edge_sets))
    covers: dict[int, int] = {pt: 0 for pt in points}
    for j, e in enumerate(edge_sets):
        for pt in e:
            covers[pt] |= 1 << j

    # greedy upper bound
    best: list[int] = []
    uncovered = full
    while uncovered:
        pt = max(points, key=lambda p: ((covers[p] & uncovered).bit_count(), -p))
        best.append(pt)
        uncovered &= ~covers[pt]
    best_size = len(best)

    edge_points = [sorted(e) for e in edge_sets]
    node_count = 0

    def packing_bound(mask: int) -> int:
        taken: set[int] = set()
        count = 0
        for j in range(n):
            if mask >> j & 1 and not (edge_sets[j] & taken):
                taken |= edge_sets[j]
                count += 1
        return count

    def lp_bound(mask: int) -> int:
        value = _lp_value(edge_sets, mask, root_value)
        return -((-value.numerator) // value.denominator)  # ceil

    def search(mask: int, chosen: list[int]) -> None:
        nonlocal best, best_size, node_count
        node_count += 1
        if not mask:
            if len(chosen) < best_size:
                best = list(chosen)
                best_size = len(chosen)
            return
        lower = packing_bound(mask)
        if len(chosen) + lower >= best_size:
            return
        if len(chosen) + lp_bound(mask) >= best_size:
            return
        branch = min(
            (j for j in range(n) if mask >> j & 1),
            key=lambda j: (len(edge_points[j]), j),
        )
        for pt in edge_points[branch]:
            chosen.append(pt)
            search(mask & ~covers[pt], chosen)
            chosen.pop()

    search(full, [])
    del search  # the closure refers to itself; break the cycle
    witness = frozenset(best)
    if len(witness) != best_size or not verify_cover(instance, witness):
        raise RuntimeError("covering_number produced an infeasible witness")
    return SolveResult(best_size, witness, node_count)


def matching_number(
    instance: HypergraphInstance, *, root_value: Fraction | None = None
) -> SolveResult:
    """Maximum set of pairwise disjoint distinct edges, exactly.

    Branch and bound over distinct edges, branching on a point of highest
    degree among the still-available edges (take one of its edges, or none).
    `root_value`, if given, must be the instance's exact nu* (as from
    `fractional_pair`); the root node then uses it instead of its own LP.
    """
    reps = distinct_edges(instance)
    if not reps:
        return SolveResult(0, frozenset(), 0)
    n = len(reps)
    edge_sets = [e for _, e in reps]
    rep_index = [i for i, _ in reps]
    full = (1 << n) - 1
    conflict = []
    for j in range(n):
        mask = 0
        for k in range(n):
            if edge_sets[j] & edge_sets[k]:
                mask |= 1 << k
        conflict.append(mask)
    member: dict[int, int] = {}
    for j, e in enumerate(edge_sets):
        for pt in e:
            member[pt] = member.get(pt, 0) | 1 << j

    # greedy matching as the initial lower bound
    best: list[int] = []
    avail = full
    while avail:
        j = (avail & -avail).bit_length() - 1
        best.append(j)
        avail &= ~conflict[j]
    best_size = len(best)

    node_count = 0

    def lp_bound(mask: int) -> int:
        value = _lp_value(edge_sets, mask, root_value)
        return value.numerator // value.denominator  # floor

    def search(mask: int, chosen: list[int]) -> None:
        nonlocal best, best_size, node_count
        node_count += 1
        if not mask:
            if len(chosen) > best_size:
                best = list(chosen)
                best_size = len(chosen)
            return
        if len(chosen) + mask.bit_count() <= best_size:
            return
        if len(chosen) + lp_bound(mask) <= best_size:
            return
        live_points: dict[int, int] = {}
        for j in range(n):
            if mask >> j & 1:
                for pt in edge_sets[j]:
                    live_points[pt] = live_points.get(pt, 0) + 1
        degree = max(live_points.values())
        pt = min(p for p, v in live_points.items() if v == degree)
        through = member[pt] & mask
        k = through
        while k:
            j = (k & -k).bit_length() - 1
            chosen.append(j)
            search(mask & ~conflict[j], chosen)
            chosen.pop()
            k &= k - 1
        search(mask & ~through, chosen)

    search(full, [])
    del search  # the closure refers to itself; break the cycle
    witness = frozenset(rep_index[j] for j in best)
    if len(witness) != best_size or not verify_matching(instance, witness):
        raise RuntimeError("matching_number produced an infeasible witness")
    return SolveResult(best_size, witness, node_count)


# ---------------------------------------------------------------------------
# fractional optimum (both LP sides, mutually certified)
# ---------------------------------------------------------------------------

def fractional_pair(instance: HypergraphInstance) -> tuple[FractionalSolution, FractionalSolution]:
    """Exact optimal fractional cover and fractional matching.

    One simplex run on the kernel LP yields the matching side as the primal
    and the cover side as the dual.  Non-negativity and feasibility of both
    on the whole instance (every edge covered, no point of any edge
    overloaded) and equality of their values are re-verified (strong
    duality as an executable certificate); cover weights sit on kernel
    points only.
    """
    reps = distinct_edges(instance)
    if not reps:
        zero = Fraction(0)
        return (
            FractionalSolution(zero, {}, "cover"),
            FractionalSolution(zero, {}, "matching"),
        )
    edge_sets = [e for _, e in reps]
    points, sol = _incidence_lp(edge_sets)

    matching_weights = {
        reps[j][0]: w for j, w in enumerate(sol.primal) if w
    }
    cover_weights = {points[i]: w for i, w in enumerate(sol.dual) if w}

    # certified on the whole instance, not only on the kernel rows, and in
    # integers: each side's weights are scaled by the lcm of their denominators
    cover, cover_den = _integer_row(cover_weights.values())
    packing, packing_den = _integer_row(matching_weights.values())
    if any(w < 0 for w in cover) or any(w < 0 for w in packing):
        raise RuntimeError("fractional solution has a negative weight")
    cover_items = list(zip(cover_weights, cover))
    for e in edge_sets:
        if sum(w for pt, w in cover_items if pt in e) < cover_den:
            raise RuntimeError("fractional cover misses an edge constraint")
    load: dict[int, int] = {}
    for i, w in zip(matching_weights, packing):
        for pt in instance.edges[i]:
            load[pt] = load.get(pt, 0) + w
    if any(v > packing_den for v in load.values()):
        raise RuntimeError("fractional matching overloads a point")
    cover_value = Fraction(sum(cover), cover_den)
    matching_value = Fraction(sum(packing), packing_den)
    if not (cover_value == matching_value == sol.value):
        raise RuntimeError("LP duality certificate failed")

    return (
        FractionalSolution(sol.value, cover_weights, "cover"),
        FractionalSolution(sol.value, matching_weights, "matching"),
    )


def fractional_optimum(instance: HypergraphInstance, side: str) -> FractionalSolution:
    """Exact tau* (side='cover') or nu* (side='matching'); equal by duality."""
    if side not in ("cover", "matching"):
        raise ValueError(f"unknown side {side!r}")
    cover, matching = fractional_pair(instance)
    return cover if side == "cover" else matching


# ---------------------------------------------------------------------------
# (p,q) property
# ---------------------------------------------------------------------------

def pq_check(instance: HypergraphInstance, params: PQParameters) -> PQVerdict:
    """Decide whether among every p distinct edges some q share a point.

    The property fails exactly when some p distinct edges form a
    (q-1)-packing: no point lies in q of them.  An include-first depth-first
    search over the distinct edges, in first-occurrence order, looks for one.
    It extends a packing by an edge only if the edge misses every point that
    is already loaded q-1 times, and drops a prefix once fewer edges are left
    than it still needs.  Include-first order meets p-subsets
    lexicographically, so the first packing found is the lexicographically
    first failing p-subset; it is the counterexample.  Fewer than p distinct
    edges satisfy the property vacuously.
    """
    r, _ = max_depth(instance)
    reps = distinct_edges(instance)
    p, n = params.p, len(reps)
    if n < p:
        return PQVerdict(True, None, r, vacuous=True)
    # point bitmask of each edge, built the first time the search reaches it;
    # the search first reaches the edges in increasing order
    masks: list[int] = []
    # layers[k] holds the points loaded at least k+1 times by the chosen edges
    layers = [0] * (params.q - 1)
    chosen: list[int] = []
    saved: list[list[int]] = []  # the layers before each chosen edge
    j = 0
    while len(chosen) < p:
        if n - j < p - len(chosen):
            if not chosen:
                return PQVerdict(True, None, r)
            j = chosen.pop() + 1
            layers = saved.pop()
            continue
        if j == len(masks):
            m = 0
            for pt in reps[j][1]:
                m |= 1 << pt
            masks.append(m)
        m = masks[j]
        if not m & layers[-1]:
            saved.append(layers)
            # adding the edge carries each of its points up one layer
            layers = [layers[0] | m] + [
                hi | lo & m for lo, hi in zip(layers, layers[1:])
            ]
            chosen.append(j)
        j += 1
    return PQVerdict(False, frozenset(reps[k][0] for k in chosen), r)


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------

def naive_oracle(instance: HypergraphInstance, quantity: str) -> int:
    """Exhaustive, unpruned nu or tau for certifying the solvers in tests."""
    if len(instance.edges) > 14 or instance.ground_size > 20:
        raise TooLarge(
            f"guard exceeded: {len(instance.edges)} edges, ground {instance.ground_size}"
        )
    if quantity not in ("nu", "tau"):
        raise ValueError(f"unknown quantity {quantity!r}")
    edge_sets = [e for _, e in distinct_edges(instance)]
    if quantity == "tau":
        if not edge_sets:
            return 0
        points = sorted(set().union(*edge_sets))
        for k in range(len(points) + 1):
            for combo in itertools.combinations(points, k):
                pts = set(combo)
                if all(e & pts for e in edge_sets):
                    return k
        raise AssertionError("unreachable: the full point set is a cover")
    best = 0
    for size in range(len(edge_sets) + 1):
        for combo in itertools.combinations(range(len(edge_sets)), size):
            ok = True
            for a, b in itertools.combinations(combo, 2):
                if edge_sets[a] & edge_sets[b]:
                    ok = False
                    break
            if ok:
                best = max(best, size)
    return best
