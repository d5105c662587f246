"""Exact matching/covering solvers and the (p,q)-property decision procedure.

All solvers consume a `HypergraphInstance`, with deterministic
tie-breaks (reproducible node counts).  nu is a branch and bound started
from the better of a first-fit matching and a greedy guided by the root
LP, which it reads anyway.  tau is a descent from the plain greedy cover
by one exact hitting-set search, `_cover_at_most`, the one `pq_check`
runs: each step asks for a cover of one point fewer.  Where an incumbent
meets its lower bound, the search closes at its root.  The fractional
solver returns an optimal LP pair whose primal and dual sides certify
each other.  `_root_lp` is the only reader of the whole-instance LP: it
offers uniform weights, then the greedy sandwich, to the certificate on
every point and edge of the original instance, and runs the simplex only
when neither passes.  Every incidence LP the simplex solves (tau* and
each node bound of the matching search) is solved on its dominance
kernel: a point whose set of edges is contained in another point's adds
only a redundant row, so it is left out, and the optimum is unchanged.
`solve` gives the one record, `Measures`, that every bound kind reads:
nu, tau, tau* and the depth r of an instance.
`pq_check` decides the (p,q) property from the distinct edges' point
bitmasks in the solve context below.  It first searches for the
pigeonhole certificate, (p-1)//(q-1) points meeting every edge, by the
same hitting-set search, and only when there is none runs a
depth-first search for p distinct edges that load no point q times, the
shape of a counterexample.
`naive_oracle` is a deliberately unpruned enumeration: the test suite
certifies the main solvers on small instances by it, and
`perfbench/make_reference.py` confirms the benchmark's reference answers
by it.

Copies: a family is a multiset, and a repeated member is a repeated edge.
nu, tau, tau* and the (p,q) check operate on distinct edges (copies of an
edge are never disjoint and never enrich a p-subset); max_depth counts
every copy.  All but `naive_oracle` read the edges as `edge_masks` and
share one solve context per instance (`_context`): the distinct edges'
point masks, the point->edge bitmasks that the LP kernel and the
matching search read, and every LP solved, by column mask, so that no
mask's LP is solved twice and the certified root pair of `_root_lp` is
the root bound of both searches and the matching search's incumbent
guide.  Uniform weights, the greedy sandwich, the certificate and the
hitting-set search run on the edge masks alone, so an instance whose
root pair they settle and whose matching search closes at the root never
builds the point->edge masks.  LP solutions stay integer numerators over
one denominator inside this module; `fractional_pair` builds Fractions for
its value and weights, and `solve` for tau* alone.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, or_

from .model import HypergraphInstance, PQParameters, _deepest_point, _depth_layers, mask_points
from .simplex import LPSolution, solve_lp_max


class TooLarge(ValueError):
    """Instance exceeds the naive oracle's enumeration guard."""


@dataclass(frozen=True)
class SolveResult:
    optimum: int
    witness: frozenset[int]
    node_count: int


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal LP value and weights (on points for a cover, on edge ids for a matching)."""

    value: Fraction
    weights: dict


@dataclass(frozen=True)
class Measures:
    """One exact solve of an instance, as `solve` returns it.

    `nu` and `tau` are the searches' results, with their witnesses and node
    counts; `tau_star` is the fractional optimum and `r` the depth.
    """

    nu: SolveResult
    tau: SolveResult
    tau_star: Fraction
    r: int


@dataclass(frozen=True)
class PQVerdict:
    holds: bool
    counterexample: frozenset[int] | None
    max_depth: int
    vacuous: bool = False


def verify_cover(instance: HypergraphInstance, points) -> bool:
    """Containment check on the instance's masks; a value that is not an int point covers nothing."""
    cover = 0
    for pt in points:
        if type(pt) is int and 0 <= pt < instance.ground_size:
            cover |= 1 << pt
    return all(m & cover for m in instance.edge_masks)


def verify_matching(instance: HypergraphInstance, edge_ids) -> bool:
    """Pairwise disjointness check on the instance's masks; copies of an edge always meet.

    A repeated id counts once; a value that is not an int edge id in range
    makes the matching invalid.
    """
    masks, ids = instance.edge_masks, list(edge_ids)
    if not all(type(i) is int and 0 <= i < len(masks) for i in ids):
        return False
    taken = 0
    for i in set(ids):
        if masks[i] & taken:
            return False
        taken |= masks[i]
    return True


def max_depth(instance: HypergraphInstance) -> tuple[int, int | None]:
    """(r, point): r the most edges, copies counted, through one point; the lowest such point.

    Counted once per instance: this reads `instance.max_depth`, which is
    kept on the instance after the first read.
    """
    return instance.max_depth


class _SolveContext:
    """What the solvers of one instance share, kept on it by `_context`.

    Distinct edge j has its first occurrence at `firsts[j]`, in index order,
    and point mask `masks[j]`.  Built on first use: `point_masks` ({point:
    bit j for each distinct edge j through it}, in increasing id; read by
    the kernel LPs and the matching search's branches), `conflicts[j]` (the
    bits of the distinct edges meeting edge j, j included; read only when
    the matching search branches) and the greedies `plain_matching` and
    `plain_cover`, the incumbents of nu and tau and the sandwich's sides,
    which read the edge masks only.
    `by_cols`: `_incidence_lp`'s answer for each column mask; `root`: the
    certified answer of `_root_lp`, also kept in `by_cols` under the full
    mask.
    """

    def __init__(self, instance: HypergraphInstance):
        firsts: dict[int, int] = {}
        for i, m in enumerate(instance.edge_masks):
            firsts.setdefault(m, i)
        self.masks = list(firsts)
        self.firsts = list(firsts.values())
        self.by_cols: dict[int, tuple[list[int], LPSolution]] = {}
        self.root: tuple[list[int], LPSolution] | None = None

    @cached_property
    def point_masks(self) -> dict[int, int]:
        masks: dict[int, int] = {}
        for j, m in enumerate(self.masks):
            bit = 1 << j
            for pt in mask_points(m):
                masks[pt] = masks.get(pt, 0) | bit
        return {pt: masks[pt] for pt in sorted(masks)}

    @cached_property
    def conflicts(self) -> list[int]:
        member = self.point_masks
        conflicts = []
        for m in self.masks:
            mask = 0
            for pt in mask_points(m):
                mask |= member[pt]
            conflicts.append(mask)
        return conflicts

    @cached_property
    def plain_matching(self) -> list[int]:
        """The first-fit matching in index order; shared, so never changed in place."""
        return _greedy_matching(self, range(len(self.masks)))

    @cached_property
    def plain_cover(self) -> list[int]:
        """The greedy cover over all points; shared, so never changed in place.

        Each step takes the deepest point of the uncovered distinct edges,
        the one on most of them, then the lowest id, and drops the edges
        through it.
        """
        cover: list[int] = []
        live = self.masks
        while live:
            pt = _deepest_point(live)[1]
            cover.append(pt)
            bit = 1 << pt
            live = [m for m in live if not m & bit]
        return cover


def _context(instance: HypergraphInstance) -> _SolveContext:
    """The instance's solve context, built on first use; not a field, like `max_depth`."""
    ctx = vars(instance).get("_solve_context")
    if ctx is None:
        ctx = _SolveContext(instance)
        object.__setattr__(instance, "_solve_context", ctx)
    return ctx


def _incidence_lp(ctx: _SolveContext, cols: int) -> tuple[list[int], LPSolution]:
    """(points, solution) of max{1.x : Ax <= 1, x >= 0}, A the kernel incidence.

    The columns are the distinct edges whose bits are set in `cols`, in
    increasing index.  The primal is a fractional matching, the dual a
    fractional cover on `points`.  Rows are the dominance kernel of the
    points those edges meet, in increasing point id: the lowest id of each
    distinct set of edges through a point, minus every such set strictly
    contained in another.  A dropped row is implied by the row that contains
    it (for x >= 0 its load is at most that row's), so the primal polytope,
    and with it the LP value, is that of the full incidence.  A column mask
    asked for before returns its earlier answer without a kernel or a solve.
    """
    hit = ctx.by_cols.get(cols)
    if hit is not None:
        return hit
    masks = ctx.point_masks
    lowest: dict[int, int] = {}
    for pt, m in masks.items():
        m &= cols
        if m:
            lowest.setdefault(m, pt)
    # a strict superset has more bits, so it is kept before it is needed
    kept: list[int] = []
    for m in sorted(lowest, key=int.bit_count, reverse=True):
        if not any(m & k == m for k in kept):
            kept.append(m)
    points = sorted(lowest[m] for m in kept)
    columns = [j for j in range(cols.bit_length()) if cols >> j & 1]
    rows = [[masks[pt] >> j & 1 for j in columns] for pt in points]
    sol = solve_lp_max(rows, [1] * len(points), [1] * len(columns))
    hit = ctx.by_cols[cols] = points, sol
    return hit


def _root_lp(ctx: _SolveContext) -> tuple[list[int], LPSolution]:
    """(points, solution) of the whole instance's tau* LP, certified.

    The only reader of the root LP.  Its sources are tried in order, and
    the first whose pair passes `_certificate_problem` is kept: uniform
    weights, then the greedy sandwich, then the simplex on the kernel
    (`_incidence_lp` of every distinct edge).  A candidate that fails falls
    through to the next source and is never reported; a simplex answer that
    fails raises.  The pair is kept in `ctx.by_cols` under the full mask, so
    the root node of the matching search reads it.
    """
    if ctx.root is not None:
        return ctx.root
    full = (1 << len(ctx.masks)) - 1
    for source in (_uniform_pair, _sandwich_pair):
        pair = source(ctx)
        if pair is not None and _certificate_problem(ctx, *pair) is None:
            break
    else:
        pair = _incidence_lp(ctx, full)
        problem = _certificate_problem(ctx, *pair)
        if problem is not None:
            raise RuntimeError(problem)
    ctx.root = ctx.by_cols[full] = pair
    return pair


def _uniform_pair(ctx: _SolveContext) -> tuple[list[int], LPSolution] | None:
    """Weight 1/r on every edge and 1/s on every point, if the instance allows.

    It does when every distinct edge has s points and every point lies on r
    distinct edges (every PG(k,q) does).  Then each edge is covered and each
    point loaded exactly 1, and both sides sum to N*s = P*r over D = r*s, N
    edges and P points, by double counting the incidences.  Regularity is
    read from the `_depth_layers` of the distinct edges: every point of
    their union has load r exactly when each nonzero layer, a set bit of r,
    is that whole union.
    """
    sizes = {m.bit_count() for m in ctx.masks}
    if len(sizes) != 1:
        return None
    union = reduce(or_, ctx.masks)
    layers = _depth_layers(ctx.masks)
    if any(layer and layer != union for layer in layers):
        return None
    (s,) = sizes
    r = sum(1 << k for k, layer in enumerate(layers) if layer)
    n, points = len(ctx.masks), mask_points(union)
    return points, LPSolution(r * s, n * s, (s,) * n, (r,) * len(points), 0)


def _sandwich_pair(ctx: _SolveContext) -> tuple[list[int], LPSolution] | None:
    """Weight 1 on the plain greedy matching and cover, if they have equal size.

    A matching M and a cover C with |M| = |C| give nu = tau* = tau = |M|
    by weak duality, so both are optimal, over D = 1.
    """
    matching, cover = ctx.plain_matching, ctx.plain_cover
    if len(matching) != len(cover):
        return None
    chosen = set(matching)
    primal = tuple(int(j in chosen) for j in range(len(ctx.masks)))
    return sorted(cover), LPSolution(1, len(cover), primal, (1,) * len(cover), 0)


def _certificate_problem(ctx: _SolveContext, points: list[int], sol: LPSolution) -> str | None:
    """Why `sol` is not an optimal tau* pair of the whole instance, or None.

    `sol.primal` weighs the distinct edges and `sol.dual` the `points`, as
    integer numerators over `sol.den`; the points must be strictly
    increasing point ids.  Non-negativity and feasibility of both on every
    edge and point of the instance (every edge covered, no point of any
    edge overloaded), not only on the kernel rows, and equality of their
    values are checked on those integers (strong duality as an executable
    certificate): each check is the rational one multiplied through by D.
    The cover's points are grouped into one mask per weight, so an edge's
    cover is a sum of popcounts; loads are summed over the points of the
    matching's support edges only, the only points they can overload.
    """
    D = sol.den
    if D <= 0:
        return f"LP denominator {D} is not positive"
    if any(a >= b for a, b in zip(points, points[1:])) or (points and points[0] < 0):
        return "fractional cover points are not strictly increasing point ids"
    if any(w < 0 for w in sol.dual) or any(w < 0 for w in sol.primal):
        return "fractional solution has a negative weight"
    by_weight: dict[int, int] = {}
    for pt, w in zip(points, sol.dual):
        if w:
            by_weight[w] = by_weight.get(w, 0) | 1 << pt
    for m in ctx.masks:
        if sum(w * (m & group).bit_count() for w, group in by_weight.items()) < D:
            return "fractional cover misses an edge constraint"
    load: dict[int, int] = {}
    for m, w in zip(ctx.masks, sol.primal):
        if w:
            for pt in mask_points(m):
                load[pt] = load.get(pt, 0) + w
    if any(v > D for v in load.values()):
        return "fractional matching overloads a point"
    if not (sum(sol.dual) == sum(sol.primal) == sol.value):
        return "LP duality certificate failed"
    return None


# ---------------------------------------------------------------------------
# integral solvers
# ---------------------------------------------------------------------------

def covering_number(instance: HypergraphInstance) -> SolveResult:
    """Minimum point set meeting every edge, exactly.

    A descent from the plain greedy cover (`_SolveContext.plain_cover`):
    while the incumbent is larger than the lower bound, `_cover_at_most`
    looks for a cover of one point fewer, the search `pq_check` runs for
    its pigeonhole cover, and a cover it finds is the next incumbent.  Its
    None proves the incumbent optimal.  The lower bound is a first-fit
    disjoint-edge packing and, unless that meets the greedy cover, the
    ceiling of the root LP (`_root_lp`), which is never below it.  The
    node count is 1 for the root plus every node of those searches.
    """
    ctx = _context(instance)
    if not ctx.masks:
        return SolveResult(0, frozenset(), 0)
    best = ctx.plain_cover
    bound = _packing_bound(ctx.masks)
    if len(best) > bound:
        sol = _root_lp(ctx)[1]
        bound = -(-sol.value // sol.den)
    nodes = [1]
    while len(best) > bound:
        cover = _cover_at_most(ctx.masks, len(best) - 1, instance.max_depth[0], nodes)
        if cover is None:
            break
        best = mask_points(cover)
    witness = frozenset(best)
    if len(witness) != len(best) or not verify_cover(instance, witness):
        raise RuntimeError("covering_number produced an infeasible witness")
    return SolveResult(len(best), witness, nodes[0])


def _packing_bound(masks: list[int]) -> int:
    """Size of a first-fit set of pairwise disjoint masks of `masks`."""
    taken = count = 0
    for m in masks:
        if not m & taken:
            taken |= m
            count += 1
    return count


def matching_number(instance: HypergraphInstance) -> SolveResult:
    """Maximum set of pairwise disjoint distinct edges, exactly.

    Branch and bound from the larger of two greedy matchings: first fit in
    index order and, unless that takes every edge or meets the floor of the
    root LP (`_root_lp`, which the root then reads), first fit in
    decreasing weight of that LP's fractional matching.  The search
    branches on a point of highest degree among the still-available edges
    (take one of its edges, or none).
    """
    ctx = _context(instance)
    n = len(ctx.masks)
    if not n:
        return SolveResult(0, frozenset(), 0)
    best = ctx.plain_matching
    if len(best) < n:
        sol = _root_lp(ctx)[1]
        if len(best) < sol.value // sol.den:
            lp = _lp_matching(ctx)
            if len(lp) > len(best):
                best = lp
    return _matching_search(instance, best)


def _greedy_matching(ctx: _SolveContext, order) -> list[int]:
    """Distinct edges taken in `order` whenever they miss every edge taken.

    An edge misses them all when its point mask misses their union `taken`;
    an edge is never empty, so one already taken, met again in `order`, is
    never taken twice.
    """
    masks = ctx.masks
    chosen: list[int] = []
    taken = 0
    for j in order:
        m = masks[j]
        if not m & taken:
            chosen.append(j)
            taken |= m
    return chosen


def _lp_matching(ctx: _SolveContext) -> list[int]:
    """The greedy matching in decreasing root-LP weight x, ties to lowest index.

    The weights are read as their numerators over the LP's positive
    denominator, which order the same.
    """
    x = _root_lp(ctx)[1].primal
    support = [j for j, w in enumerate(x) if w]
    # a stable sort keeps equal weights in index order; the edges of weight 0
    # then follow in index order (a support edge met again is no longer free)
    support.sort(key=x.__getitem__, reverse=True)
    return _greedy_matching(ctx, itertools.chain(support, range(len(x))))


def _matching_search(instance: HypergraphInstance, incumbent: list[int]) -> SolveResult:
    """`matching_number`'s branch and bound, started from `incumbent`.

    `incumbent` is a matching given as distinct-edge positions (the order
    of first occurrences).
    """
    ctx = _context(instance)
    best = list(incumbent)
    best_size = len(best)
    node_count = 0

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
        sol = _incidence_lp(ctx, mask)[1]
        if len(chosen) + sol.value // sol.den <= best_size:
            return
        # both built on the first branch, then kept
        member, conflict = ctx.point_masks, ctx.conflicts
        pt = max(member, key=lambda p: ((member[p] & mask).bit_count(), -p))
        through = member[pt] & mask
        k = through
        while k:
            j = (k & -k).bit_length() - 1
            chosen.append(j)
            search(mask & ~conflict[j], chosen)
            chosen.pop()
            k &= k - 1
        search(mask & ~through, chosen)

    search((1 << len(ctx.masks)) - 1, [])
    del search  # the closure refers to itself; break the cycle
    witness = frozenset(ctx.firsts[j] for j in best)
    if len(witness) != best_size or not verify_matching(instance, witness):
        raise RuntimeError("matching_number produced an infeasible witness")
    return SolveResult(best_size, witness, node_count)


# ---------------------------------------------------------------------------
# fractional optimum (both LP sides, mutually certified)
# ---------------------------------------------------------------------------

def fractional_pair(instance: HypergraphInstance) -> tuple[FractionalSolution, FractionalSolution]:
    """Exact optimal fractional cover and fractional matching.

    Both come from `_root_lp`: the matching side as the primal and the cover
    side as the dual, as integer numerators over one positive denominator
    D, from uniform weights, the greedy sandwich or a simplex run on the
    kernel LP, whichever comes first to pass the certificate on the whole
    instance.  So the weights are one optimal pair, not always a vertex of
    the kernel LP: uniform cover weights sit on every point, and sandwich
    ones on the greedy cover.  Only the value and the nonzero weights
    returned become Fractions.
    """
    ctx = _context(instance)
    if not ctx.masks:
        zero = Fraction(0)
        return FractionalSolution(zero, {}), FractionalSolution(zero, {})
    points, sol = _root_lp(ctx)
    D = sol.den
    value = Fraction(sol.value, D)
    return (
        FractionalSolution(
            value, {points[i]: Fraction(w, D) for i, w in enumerate(sol.dual) if w}
        ),
        FractionalSolution(
            value, {ctx.firsts[j]: Fraction(w, D) for j, w in enumerate(sol.primal) if w}
        ),
    )


# ---------------------------------------------------------------------------
# one solve per instance, for every bound kind
# ---------------------------------------------------------------------------

def solve(instance: HypergraphInstance) -> Measures:
    """nu, tau, tau* and the depth r of `instance`, from one shared solve.

    No LP is solved twice: tau* is read first, from `_root_lp`, whose
    certified pair is then the root bound of both searches, and each node
    LP of the matching search is kept in the solve context by its column
    mask.  The root LP is not solved at all where uniform weights or the
    greedy sandwich certify tau*.  An edgeless instance has tau* = 0.
    """
    ctx = _context(instance)
    tau_star = Fraction(0)
    if ctx.masks:
        sol = _root_lp(ctx)[1]
        tau_star = Fraction(sol.value, sol.den)
    return Measures(
        matching_number(instance), covering_number(instance), tau_star, instance.max_depth[0]
    )


# ---------------------------------------------------------------------------
# (p,q) property
# ---------------------------------------------------------------------------

def pq_check(instance: HypergraphInstance, params: PQParameters) -> PQVerdict:
    """Decide whether among every p distinct edges some q share a point.

    Fewer than p distinct edges satisfy the property vacuously.  Otherwise
    it holds by pigeonhole when t = (p-1)//(q-1) points meet every distinct
    edge: any p edges then put ceil(p/t) >= q of themselves on one of them.
    `_cover_at_most` decides exactly whether such t points exist, from the
    edges' masks alone, and re-validates the cover it finds.  When they
    do not, `_packing_search` decides: the property fails exactly when some
    p distinct edges form a (q-1)-packing, no point lying in q of them, and
    the first one that search finds, the lexicographically first failing
    p-subset, is the counterexample.  A failing family has no such cover,
    so its verdict always comes from that search.
    """
    r, _ = max_depth(instance)
    ctx = _context(instance)
    masks = ctx.masks
    if len(masks) < params.p:
        return PQVerdict(True, None, r, vacuous=True)
    if _cover_at_most(masks, params.pigeonhole_points, r, [0]) is not None:
        return PQVerdict(True, None, r)
    chosen = _packing_search(masks, params.p, params.q)
    if chosen is None:
        return PQVerdict(True, None, r)
    return PQVerdict(False, frozenset(ctx.firsts[k] for k in chosen), r)


def _cover_at_most(masks: list[int], t: int, r: int, nodes: list[int]) -> int | None:
    """The point mask of at most t >= 1 points meeting every mask of `masks`, or None.

    The one hitting-set search, shared by `covering_number` and `pq_check`.
    Exact: None means no t points meet every mask.  `r` bounds the number
    of masks through any point, so more than t*r masks need more than t
    points.  Otherwise `_cover_within` searches the masks in increasing
    size, which makes its first-fit packings large, and adds the nodes it
    visits to `nodes[0]`; the cover it returns is checked on every mask
    before it is trusted.
    """
    if len(masks) > t * r:
        return None
    cover = _cover_within(sorted(masks, key=int.bit_count), t, nodes)
    if cover is not None and (cover.bit_count() > t or not all(m & cover for m in masks)):
        raise RuntimeError("the hitting-set search produced an invalid cover")
    return cover


def _cover_within(live: list[int], k: int, nodes: list[int]) -> int | None:
    """A mask of at most k >= 1 points meeting every mask of `live`, or None.

    Each call is a node, added to `nodes[0]`.  `live` is in nondecreasing
    size, and so is every child's list.  With one point left, the cover is
    the lowest point common to every mask.
    Otherwise a node is dropped when a first-fit set of pairwise disjoint
    masks has more than k members, or when more than k times its own depth
    (the most masks through one point) are live.  It branches on the points
    of the first mask, a smallest one, one of which every cover contains.
    A point whose live masks are strictly contained in another of those
    points' is skipped, as is every point but the lowest of equal ones:
    swapping it for that point keeps a cover a cover.  The rest are tried
    in decreasing number of live masks, then increasing id.
    """
    nodes[0] += 1
    if not live:
        return 0
    if k == 1:
        common = reduce(and_, live)
        return common & -common or None
    if _packing_bound(live) > k or len(live) > k * _deepest_point(live)[0]:
        return None
    # each live mask's trace on the first mask, shifted down to its lowest
    # point `low`, with its multiplicity
    first = live[0]
    low = (first & -first).bit_length() - 1
    traces = collections.Counter((m & first) >> low for m in live)
    traces.pop(0, None)
    # beside[i]: the points on every live mask through point low + i, i among them
    degree: dict[int, int] = {}
    beside: dict[int, int] = {}
    for trace, count in traces.items():
        for i in mask_points(trace):
            degree[i] = degree.get(i, 0) + count
            beside[i] = beside.get(i, trace) & trace
    # i is kept when it is its lowest companion and each companion has the
    # same live masks, so has i as a companion too
    branches = [
        i for i, common in beside.items()
        if common & -common == 1 << i and all(beside[o] >> i & 1 for o in mask_points(common))
    ]
    branches.sort(key=lambda i: (-degree[i], i))
    for i in branches:
        bit = 1 << low + i
        cover = _cover_within([m for m in live if not m & bit], k - 1, nodes)
        if cover is not None:
            return cover | bit
    return None


def _packing_search(masks: list[int], p: int, q: int) -> list[int] | None:
    """Positions in `masks` of the first p of them forming a (q-1)-packing, or None.

    An include-first depth-first search in index order.  The loads are q-1
    bitmask layers, layer k holding the points loaded at least k+1 times by
    the masks chosen.  A mask may join only if it misses the top layer, and
    a prefix is dropped once fewer masks are left than it still needs.
    Include-first order meets p-subsets lexicographically, so the packing
    returned is the lexicographically first; None means there is none.
    """
    n = len(masks)
    # layers[k] holds the points loaded at least k+1 times by the chosen masks
    layers = [0] * (q - 1)
    chosen: list[int] = []
    saved: list[list[int]] = []  # the layers before each chosen mask
    need = p  # p - len(chosen)
    j = 0
    while need:
        if n - j < need:
            if not chosen:
                return None
            j = chosen.pop() + 1
            layers = saved.pop()
            need += 1
            continue
        m = masks[j]
        if not m & layers[-1]:
            saved.append(layers)
            # adding the mask carries each of its points up one layer
            layers = [layers[0] | m] + [
                hi | lo & m for lo, hi in zip(layers, layers[1:])
            ]
            chosen.append(j)
            need -= 1
        j += 1
    return chosen


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
    edge_sets = list(dict.fromkeys(instance.edges))
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
