"""Exact matching/covering solvers and the (p,q)-property decision procedure.

All solvers consume a `HypergraphInstance`, with deterministic
tie-breaks (reproducible node counts).  nu and tau are found exactly
first, and tau* last.  tau descends from the greedy cover by one exact
hitting-set search, `_cover_at_most`, the one `pq_check` runs on an
unsolved instance: each step asks for a cover of one point fewer, down to
the size of a greedy matching.  nu then ascends from that matching by one
exact packing search, `_packing_search`, the one `pq_check` runs for a
counterexample: each step asks for a matching of one edge more, up to
tau.  The
fractional solver returns an optimal LP pair whose primal and dual sides
certify each other.  `_optima` finds nu and tau for `covering_number`,
`matching_number` and `_root_lp`: it offers uniform weights, once per
instance, and then runs `_search`, bounded by them where they pass the
certificate, and builds nothing else of the LP.  `_root_lp` is the only
reader of the whole-instance LP, run only where tau* is read: it offers
uniform weights, then the sandwich of the two optima, to the certificate
on every point and edge of the original instance, and runs the simplex
only when neither passes, so only where nu < tau.  The
simplex solves the LP on its dominance kernel: a point whose set of
edges is contained in another point's adds only a redundant row, so it
is left out, and the optimum is unchanged.
`solve` gives the one record, `Measures`, that every bound kind reads:
nu, tau, tau* and the depth r of an instance.
`pq_check` decides the (p,q) property from the distinct edges' point
bitmasks in the solve context below.  It first asks for the pigeonhole
certificate, t = (p-1)//(q-1) points meeting every edge, that is for
tau <= t.  After a solve it reads the answer from tau's optimal cover,
re-checked on every distinct edge, with no search; before one it runs the
same hitting-set search.  Only when there is no such cover does it run the
packing search for p distinct edges that load no point q times, the shape
of a counterexample.
`naive_oracle` is a deliberately unpruned enumeration: the test suite
certifies the main solvers on small instances by it, and
`perfbench/make_reference.py` confirms the benchmark's reference answers
by it.

Copies: a family is a multiset, and a repeated member is a repeated edge.
nu, tau, tau* and the (p,q) check operate on distinct edges (copies of an
edge are never disjoint and never enrich a p-subset); max_depth counts
every copy.  All but `naive_oracle` read the edges as `edge_masks` and
share one solve context per instance (`_context`): the distinct edges'
point masks, the two optima and the certified root pair.  Everything but
the kernel LP reads the edge masks alone; the certificate checks a
matching's loads on bit-sliced counters of its edges' masks, one per
weight, and sums each edge's cover over the groups of points of one
weight, one list pass per group.  LP solutions stay integer numerators
over one denominator inside this module; `fractional_pair` builds
Fractions for its value and weights, and `fractional_value`, which `solve`
and the sharpness probe read, for tau* alone.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, lt, or_

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
    and point mask `masks[j]`.  Built on first use: the greedies
    `plain_matching` and `plain_cover`, the starts of the two searches,
    and `uniform`, the uniform pair if it is certified.  Filled by
    `_search`: `matching` and `cover`, the optimal matching (as
    distinct-edge positions) and cover (as points), and the node counts
    `nu_nodes` and `tau_nodes`.  `root`: the certified answer of `_root_lp`,
    set only when tau* is read.
    """

    def __init__(self, instance: HypergraphInstance):
        firsts: dict[int, int] = {}
        for i, m in enumerate(instance.edge_masks):
            firsts.setdefault(m, i)
        self.masks = list(firsts)
        self.firsts = list(firsts.values())
        self.root: tuple[list[int], LPSolution] | None = None
        self.matching: list[int] | None = None
        self.cover: list[int] | None = None
        self.nu_nodes = self.tau_nodes = 0

    @cached_property
    def plain_matching(self) -> list[int]:
        """The first-fit matching in index order; shared, so never changed in place."""
        return _first_fit(self.masks, 0, 0, len(self.masks))

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

    @cached_property
    def uniform(self) -> tuple[list[int], LPSolution] | None:
        """`_uniform_pair`'s pair if it passes `_certificate_problem`, else None.

        So uniform weights are offered at most once per instance, whether
        `_root_lp` or `_search` asks first.
        """
        pair = _uniform_pair(self)
        if pair is None or _certificate_problem(self, *pair) is not None:
            return None
        return pair


def _context(instance: HypergraphInstance) -> _SolveContext:
    """The instance's solve context, built on first use; not a field, like `max_depth`."""
    ctx = vars(instance).get("_solve_context")
    if ctx is None:
        ctx = _SolveContext(instance)
        object.__setattr__(instance, "_solve_context", ctx)
    return ctx


def _incidence_lp(ctx: _SolveContext) -> tuple[list[int], LPSolution]:
    """(points, solution) of max{1.x : Ax <= 1, x >= 0}, A the kernel incidence.

    The columns are the distinct edges in index order.  The primal is a
    fractional matching, the dual a fractional cover on `points`.  Rows are
    the dominance kernel of the points, in increasing point id: the lowest
    id of each distinct set of edges through a point, minus every such set
    strictly contained in another.  A dropped row is implied by the row
    that contains it (for x >= 0 its load is at most that row's), so the
    primal polytope, and with it the LP value, is that of the full
    incidence.
    """
    # through[pt]: bit j for each distinct edge j through point pt
    through: dict[int, int] = {}
    for j, m in enumerate(ctx.masks):
        bit = 1 << j
        for pt in mask_points(m):
            through[pt] = through.get(pt, 0) | bit
    lowest: dict[int, int] = {}
    for pt in sorted(through):
        lowest.setdefault(through[pt], pt)
    # a strict superset has more bits, so it is kept before it is needed
    kept: list[int] = []
    for m in sorted(lowest, key=int.bit_count, reverse=True):
        if not any(m & k == m for k in kept):
            kept.append(m)
    points = sorted(lowest[m] for m in kept)
    n = len(ctx.masks)
    rows = [[through[pt] >> j & 1 for j in range(n)] for pt in points]
    return points, solve_lp_max(rows, [1] * len(points), [1] * n)


def _root_lp(instance: HypergraphInstance) -> tuple[list[int], LPSolution]:
    """(points, solution) of the whole instance's tau* LP, certified.

    The only reader of the root LP, run only where tau* is read.  Its
    sources are tried in order, and the first whose pair passes
    `_certificate_problem` is kept: uniform weights (`ctx.uniform`), before
    any search; then, once `_optima` has found nu and tau exactly, the
    sandwich of the two optima; then the simplex on the kernel
    (`_incidence_lp`).  A candidate that fails falls through to the next
    source and is never reported; a simplex answer that fails raises.  So
    the simplex runs at most once per instance, and only where nu < tau.
    """
    ctx = _context(instance)
    if ctx.root is None:
        pair = ctx.uniform
        if pair is None:
            _optima(instance)
            pair = _sandwich_pair(ctx)
            if pair is None or _certificate_problem(ctx, *pair) is not None:
                pair = _incidence_lp(ctx)
                problem = _certificate_problem(ctx, *pair)
                if problem is not None:
                    raise RuntimeError(problem)
        ctx.root = pair
    return ctx.root


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
    """Weight 1 on the optimal matching and cover of `_search`, if they have equal size.

    A matching M and a cover C with |M| = |C| give nu = tau* = tau = |M|
    by weak duality, so both are optimal, over D = 1.
    """
    matching, cover = ctx.matching, ctx.cover
    if len(matching) != len(cover):
        return None
    chosen = set(matching)
    primal = tuple([int(j in chosen) for j in range(len(ctx.masks))])
    return sorted(cover), LPSolution(1, len(cover), primal, (1,) * len(cover), 0)


def _certificate_problem(ctx: _SolveContext, points: list[int], sol: LPSolution) -> str | None:
    """Why `sol` is not an optimal tau* pair of the whole instance, or None.

    `sol.primal` weighs the distinct edges and `sol.dual` the `points`, one
    weight each, as integer numerators over `sol.den`; the points must be
    strictly increasing point ids.  Non-negativity and feasibility of both
    on every edge and point of the instance (every edge covered, no point
    of any edge overloaded), not only on the kernel rows, and equality of
    their values are checked on those integers (strong duality as an
    executable certificate): each check is the rational one multiplied
    through by D.  The cover's points are grouped into one mask per weight,
    and each group adds its weight times its popcount on every edge in one
    list pass, so an edge's cover is a sum of popcounts and the least of
    them is compared with D once; the loads are bit-sliced counters of the
    matching's edges, one per weight, added into one total
    (`_overloaded_points`), so no point is visited alone.
    """
    D = sol.den
    if D <= 0:
        return f"LP denominator {D} is not positive"
    if not all(map(lt, points, points[1:])) or (points and points[0] < 0):
        return "fractional cover points are not strictly increasing point ids"
    if len(sol.primal) != len(ctx.masks) or len(sol.dual) != len(points):
        return "fractional solution weighs a wrong number of edges or points"
    if min(sol.dual, default=0) < 0 or min(sol.primal, default=0) < 0:
        return "fractional solution has a negative weight"
    by_weight: dict[int, int] = {}
    for pt, w in zip(points, sol.dual):
        if w:
            by_weight[w] = by_weight.get(w, 0) | 1 << pt
    masks = ctx.masks
    covered = [0] * len(masks)
    for w, group in by_weight.items():
        covered = [c + w * (m & group).bit_count() for c, m in zip(covered, masks)]
    if min(covered, default=D) < D:
        return "fractional cover misses an edge constraint"
    if _overloaded_points(ctx.masks, sol.primal, D):
        return "fractional matching overloads a point"
    if not (sum(sol.dual) == sum(sol.primal) == sol.value):
        return "LP duality certificate failed"
    return None


def _overloaded_points(masks, weights, D: int) -> int:
    """The mask of the points whose load exceeds D.

    A point's load is the sum of the non-negative `weights[j]` of the
    `masks[j]` through it.  The masks are grouped by weight, weight 0 left
    out, and each group is counted by `_depth_layers`; layer k of the group
    of weight w is added, with a ripple carry, into one bit-sliced total at
    bit k + b for each set bit b of w.  The totals are then compared with D
    from the top bit down.  So the cost is a few big-int operations per
    mask and per bit of the weights and loads, not one per incidence.
    """
    groups: dict[int, list[int]] = {}
    for m, w in zip(masks, weights):
        if w:
            groups.setdefault(w, []).append(m)
    total: list[int] = []
    for w, group in groups.items():
        shifts = mask_points(w)
        for k, layer in enumerate(_depth_layers(group)):
            for b in shifts:
                i, carry = k + b, layer
                while carry:
                    if i >= len(total):
                        total.extend([0] * (i + 1 - len(total)))
                    total[i], carry = total[i] ^ carry, total[i] & carry
                    i += 1
    # tied: the points whose total equals D on every bit read so far
    over, tied = 0, -1
    for i in reversed(range(max(len(total), D.bit_length()))):
        bit = total[i] if i < len(total) else 0
        if D >> i & 1:
            tied &= bit
        else:
            over |= tied & bit
            tied &= ~bit
    return over


# ---------------------------------------------------------------------------
# integral solvers
# ---------------------------------------------------------------------------

def _search(ctx: _SolveContext, r: int) -> None:
    """Find tau and then nu exactly, each search bounded by the other's incumbent.

    `r` is the instance's depth, copies counted.  The matching starts as the
    larger of the first-fit and the min-degree-first matchings, and the
    cover as the greedy one.  tau descends first: while the cover is larger
    than the matching, `_cover_at_most` looks for a cover of one point
    fewer, and its None proves the cover optimal.  Then nu ascends: while
    the matching is smaller than that cover, `_packing_search` looks for a
    matching of one edge more, and its None proves the matching optimal.
    Where uniform weights certify tau* (`ctx.uniform`), its ceiling and
    floor bound the two searches too.  Each node count is 1 for the root
    plus every node of its search's asks.
    """
    low, high = 0, len(ctx.masks)
    if ctx.uniform is not None:
        sol = ctx.uniform[1]
        low, high = -(-sol.value // sol.den), sol.value // sol.den
    matching, cover = ctx.plain_matching, ctx.plain_cover
    if len(matching) < min(len(cover), high):
        min_degree = _min_degree_matching(ctx)
        if len(min_degree) > len(matching):
            matching = min_degree
    nodes = [1]
    while len(cover) > max(len(matching), low):
        found = _cover_at_most(ctx.masks, len(cover) - 1, r, nodes)
        if found is None:
            break
        cover = mask_points(found)
    ctx.cover, ctx.tau_nodes = cover, nodes[0]
    nodes = [1]
    while len(matching) < min(len(cover), high):
        found = _packing_search(ctx.masks, len(matching) + 1, 2, nodes)
        if found is None:
            break
        matching = found
    ctx.matching, ctx.nu_nodes = matching, nodes[0]


def _optima(instance: HypergraphInstance) -> _SolveContext:
    """The instance's solve context with nu and tau found, by one `_search`.

    What `covering_number`, `matching_number` and `_root_lp` read.  The
    search is offered uniform weights first (`ctx.uniform`), and bounded by
    them where they certify tau*; nothing else of the root LP is built
    here, so reading nu or tau alone neither builds nor certifies the
    sandwich pair and never runs the simplex.
    """
    ctx = _context(instance)
    if ctx.masks and ctx.cover is None:
        _search(ctx, instance.max_depth[0])
    return ctx


def covering_number(instance: HypergraphInstance) -> SolveResult:
    """Minimum point set meeting every edge, exactly.

    A descent from the plain greedy cover (`_SolveContext.plain_cover`) by
    the hitting-set search `pq_check` runs for its pigeonhole cover on an
    unsolved instance, one point fewer per step, down to the size of a
    matching (`_search`).  The node count is 1 for the root plus every node
    of that search.
    """
    ctx = _optima(instance)
    if not ctx.masks:
        return SolveResult(0, frozenset(), 0)
    witness = frozenset(ctx.cover)
    if len(witness) != len(ctx.cover) or not verify_cover(instance, witness):
        raise RuntimeError("covering_number produced an infeasible witness")
    return SolveResult(len(ctx.cover), witness, ctx.tau_nodes)


def matching_number(instance: HypergraphInstance) -> SolveResult:
    """Maximum set of pairwise disjoint distinct edges, exactly.

    An ascent from the larger of the first-fit and the min-degree-first
    matchings by the packing search `pq_check` runs for its counterexample,
    one edge more per step, up to the size of the optimal cover
    (`_search`).  The node count is 1 for the root plus every node of that
    search.
    """
    ctx = _optima(instance)
    if not ctx.masks:
        return SolveResult(0, frozenset(), 0)
    witness = frozenset(ctx.firsts[j] for j in ctx.matching)
    if len(witness) != len(ctx.matching) or not verify_matching(instance, witness):
        raise RuntimeError("matching_number produced an infeasible witness")
    return SolveResult(len(ctx.matching), witness, ctx.nu_nodes)


def _min_degree_matching(ctx: _SolveContext) -> list[int]:
    """Distinct edges taken one at a time, each meeting the fewest available edges.

    Only available edges are taken, ties go to the lowest index, and an
    edge taken makes every edge it meets unavailable, itself included.  The
    edges meeting each edge are found by pairwise ANDs of the masks, which
    costs less than the point->edge masks on interval families, whose
    edges hold many points.
    """
    masks = ctx.masks
    bits = [1 << j for j in range(len(masks))]
    # conflicts[j]: the bits of the distinct edges meeting edge j, j included
    conflicts = [sum([b for b, m in zip(bits, masks) if m & mj]) for mj in masks]
    free = (1 << len(masks)) - 1
    chosen: list[int] = []
    while free:
        # min keeps the first of equal keys, so the lowest index
        j = min(mask_points(free), key=lambda j: (conflicts[j] & free).bit_count())
        chosen.append(j)
        free &= ~conflicts[j]
    return chosen


# ---------------------------------------------------------------------------
# fractional optimum (both LP sides, mutually certified)
# ---------------------------------------------------------------------------

def fractional_pair(instance: HypergraphInstance) -> tuple[FractionalSolution, FractionalSolution]:
    """Exact optimal fractional cover and fractional matching.

    Both come from `_root_lp`: the matching side as the primal and the cover
    side as the dual, as integer numerators over one positive denominator
    D, from uniform weights, the sandwich of the optimal matching and cover
    or a simplex run on the kernel LP, whichever comes first to pass the
    certificate on the whole instance.  So the weights are one optimal
    pair, not always a vertex of the kernel LP: uniform cover weights sit on
    every point, and sandwich ones on an optimal cover.  Only the value and
    the nonzero weights returned become Fractions; a caller that needs the
    value alone reads `fractional_value`, which builds no weight.
    """
    ctx = _context(instance)
    value = fractional_value(instance)
    if not ctx.masks:
        return FractionalSolution(value, {}), FractionalSolution(value, {})
    points, sol = _root_lp(instance)
    D = sol.den
    return (
        FractionalSolution(
            value, {points[i]: Fraction(w, D) for i, w in enumerate(sol.dual) if w}
        ),
        FractionalSolution(
            value, {ctx.firsts[j]: Fraction(w, D) for j, w in enumerate(sol.primal) if w}
        ),
    )


def fractional_value(instance: HypergraphInstance) -> Fraction:
    """tau*, the value over D of `_root_lp`'s certified pair; 0 for an edgeless instance.

    The one reader of tau* alone, for `solve`, `fractional_pair` and the
    sharpness probe: no weight becomes a Fraction.
    """
    if not _context(instance).masks:
        return Fraction(0)
    sol = _root_lp(instance)[1]
    return Fraction(sol.value, sol.den)


# ---------------------------------------------------------------------------
# one solve per instance, for every bound kind
# ---------------------------------------------------------------------------

def solve(instance: HypergraphInstance) -> Measures:
    """nu, tau, tau* and the depth r of `instance`, from one shared solve.

    tau* is read first, by `fractional_value` from `_root_lp`, which finds
    nu and tau exactly on the way unless uniform weights settle it; then the
    searches' results are read.  The simplex runs at most once, on the root
    LP, and not at all where uniform weights or nu = tau certify tau*.  An
    edgeless instance has tau* = 0.
    """
    tau_star = fractional_value(instance)
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
    Whether such t points exist is tau <= t.  After a solve of the instance
    it is read from the optimal cover `_search` left in the context, once
    that cover is re-checked on every distinct edge (`_solved_cover_fits`);
    before one, `_cover_at_most` decides it exactly, from the edges' masks
    alone, and re-validates the cover it finds.  When they do not exist,
    `_packing_search` decides: the property fails exactly when some p
    distinct edges form a (q-1)-packing, no point lying in q of them, and
    the first one that search finds, the lexicographically first failing
    p-subset, is the counterexample.  A failing family has no such cover,
    so its verdict always comes from that search.
    """
    r, _ = max_depth(instance)
    ctx = _context(instance)
    masks = ctx.masks
    if len(masks) < params.p:
        return PQVerdict(True, None, r, vacuous=True)
    t = params.pigeonhole_points
    if ctx.cover is not None:
        fits = _solved_cover_fits(ctx, t)
    else:
        fits = _cover_at_most(masks, t, r, [0]) is not None
    if fits:
        return PQVerdict(True, None, r)
    chosen = _packing_search(masks, params.p, params.q, [0])
    if chosen is None:
        return PQVerdict(True, None, r)
    return PQVerdict(False, frozenset(ctx.firsts[k] for k in chosen), r)


def _solved_cover_fits(ctx: _SolveContext, t: int) -> bool:
    """Whether tau <= t, read from the optimal cover `_search` left in `ctx.cover`.

    The cover is first re-checked on every distinct mask, as
    `_cover_at_most` checks its own: distinct points, and every mask met.
    A cover that fails raises, so it can never certify the pigeonhole case,
    and one that passes certifies tau <= t by itself when it has at most t
    points.  With more, tau > t by its optimality, and no search is needed
    to say so.
    """
    cover = 0
    for pt in ctx.cover:
        cover |= 1 << pt
    if cover.bit_count() != len(ctx.cover) or not all(m & cover for m in ctx.masks):
        raise RuntimeError("the solve's optimal cover failed its re-check")
    return len(ctx.cover) <= t


def _cover_at_most(masks: list[int], t: int, r: int, nodes: list[int]) -> int | None:
    """The point mask of at most t >= 1 points meeting every mask of `masks`, or None.

    The one hitting-set search, shared by `covering_number` and by
    `pq_check` on an instance not yet solved.
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
    if len(_first_fit(live, 0, 0, k + 1)) > k or len(live) > k * _deepest_point(live)[0]:
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


def _packing_search(masks: list[int], p: int, q: int, nodes: list[int]) -> list[int] | None:
    """Positions in `masks` of the first p of them forming a (q-1)-packing, or None.

    The one packing search, shared by `matching_number` (q = 2: p pairwise
    disjoint masks) and `pq_check`.  An include-first depth-first search in
    index order.  The loads are q-1 bitmask layers, layer k holding the
    points loaded at least k+1 times by the masks chosen.  A mask may join
    only if it misses the top layer, and a prefix is dropped once fewer
    masks are left than it still needs.  Include-first order meets
    p-subsets lexicographically, so the packing returned is the
    lexicographically first; None means there is none.  The root and every
    mask joined are nodes, added to `nodes[0]`.

    At q = 2 a prefix that still needs k >= 2 masks is looked at once more,
    the first time the search backtracks to it.  If a first fit from there
    takes k masks, those are the ones the search would take next, and they
    are returned.  Otherwise the prefix is dropped when `_meeting_classes`
    of the masks left that miss it are fewer than k: a packing takes at
    most one mask of a class.  Both steps keep the packing returned the
    lexicographically first, and a check whose include-first path never
    backtracks takes neither.
    """
    n = len(masks)
    # layers[k] holds the points loaded at least k+1 times by the chosen masks
    layers = [0] * (q - 1)
    chosen: list[int] = []
    saved: list[list[int]] = []  # the layers before each chosen mask
    need = p  # p - len(chosen)
    looked = [False] * (p + 1)  # looked[need]: the prefix of that need was looked at
    j = 0
    nodes[0] += 1
    while need:
        if n - j < need:
            if not chosen:
                return None
            j = chosen.pop() + 1
            layers = saved.pop()
            need += 1
            if q == 2 and need > 1 and not looked[need]:
                looked[need] = True
                rest = _first_fit(masks, j, layers[0], need)
                if len(rest) == need:
                    nodes[0] += need
                    return chosen + rest
                if _meeting_classes(masks, j, layers[0], need) < need:
                    j = n
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
            nodes[0] += 1
            looked[need] = False
        j += 1
    return chosen


def _first_fit(masks: list[int], start: int, taken: int, need: int) -> list[int]:
    """Positions from `start` on of masks missing `taken` and each other, taken in order.

    A mask is taken when it misses `taken` and every mask taken before it;
    the scan stops once `need` are taken.
    """
    chosen: list[int] = []
    for i in range(start, len(masks)):
        if not masks[i] & taken:
            taken |= masks[i]
            chosen.append(i)
            if len(chosen) == need:
                break
    return chosen


def _meeting_classes(masks: list[int], start: int, taken: int, need: int) -> int:
    """Greedy classes of pairwise-meeting masks among `masks[start:]` missing `taken`.

    Each mask, in index order, joins the first class whose every member it
    meets, or opens a class; the count stops at `need`.  This is the
    colouring bound of maximum-clique search (Tomita and Seki 2003) on the
    graph of disjoint masks: the lines of PG(2,q) meet pairwise, so they
    are one class, where every point bound is about q.
    """
    groups: list[list[int]] = []
    for m in itertools.islice(masks, start, None):
        if m & taken:
            continue
        for group in groups:
            if all(map(m.__and__, group)):
                group.append(m)
                break
        else:
            if len(groups) + 1 == need:
                return need
            groups.append([m])
    return len(groups)


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
