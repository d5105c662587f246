"""Shared builders and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's solver paths: continuous
quantities are computed straight from interval containment, discrete ones
by plain subset enumeration, and LPs by a plain `Fraction` tableau and a
plain `Fraction` certificate check, so solver bugs cannot hide behind
themselves.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from dpierce import (
    DInterval,
    DIntervalFamily,
    HypergraphInstance,
    Interval,
    InvalidDecomposition,
    make_family,
)
from dpierce.model import connected_components
from dpierce.simplex import SimplexError


def iv(lo, hi) -> Interval:
    return Interval(Fraction(lo), Fraction(hi))


def fam(d: int, *edges) -> DIntervalFamily:
    """fam(2, [(0,1)], [(2,3),(5,6)]) builds a d=2 family of two edges."""
    return make_family(d, edges)


def endpoints(family: DIntervalFamily) -> list[Fraction]:
    """The distinct endpoint values of the family's parts, in increasing order."""
    return sorted({x for e in family.edges for p in e.parts for x in (p.lo, p.hi)})


def brute_tau_continuous(family: DIntervalFamily) -> int:
    """Minimum piercing set size, brute force over the endpoints.

    Works directly on interval containment; optimal covers can always be
    slid onto endpoint values, so this search space is exact.
    """
    points = endpoints(family)
    edges = family.edges
    if not edges:
        return 0
    for k in range(len(points) + 1):
        for combo in itertools.combinations(points, k):
            if all(any(e.contains(x) for x in combo) for e in edges):
                return k
    raise AssertionError("unreachable")


def reference_interval_incidence(family: DIntervalFamily) -> tuple[int, tuple[frozenset[int], ...]]:
    """(ground size, edges) of an interval family, point by point.

    Tests every endpoint against every edge by plain containment;
    `to_incidence` must produce the same ground size and edges.
    """
    points = endpoints(family)
    edges = tuple(
        frozenset(i for i, x in enumerate(points) if edge.contains(x))
        for edge in family.edges
    )
    return max(1, len(points)), edges


def reference_projective_incidence(dimension: int, q: int) -> tuple[int, tuple[int, ...], int]:
    """(ground size, edge masks, d) of PG(dimension, q), by its definition.

    Points and hyperplanes are the normalized vectors of F_q^(dimension+1) (first
    nonzero entry 1) in lex order; a point lies on a hyperplane when their
    dot product is 0 mod q, tested pair by pair.  d is the common edge size.
    """
    pts = [
        v
        for v in itertools.product(range(q), repeat=dimension + 1)
        if next((x for x in v if x), 0) == 1
    ]
    masks = tuple(
        sum(1 << i for i, p in enumerate(pts) if sum(a * b for a, b in zip(p, dual)) % q == 0)
        for dual in pts
    )
    sizes = {bin(m).count("1") for m in masks}
    assert len(sizes) == 1, f"PG({dimension},{q}) is not uniform: sizes {sizes}"
    return len(pts), masks, sizes.pop()


def brute_nu_continuous(family: DIntervalFamily) -> int:
    """Maximum number of pairwise disjoint edges, brute force.

    Continuous disjointness of two d-intervals is decided by part overlap.
    """

    def meets(e1: DInterval, e2: DInterval) -> bool:
        return any(
            p1.lo <= p2.hi and p2.lo <= p1.hi for p1 in e1.parts for p2 in e2.parts
        )

    n = len(family.edges)
    best = 0
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            if all(
                not meets(family.edges[a], family.edges[b])
                for a, b in itertools.combinations(combo, 2)
            ):
                best = max(best, size)
    return best


def random_abstract_instance(seed: int, max_points: int = 12, max_edges: int = 9) -> HypergraphInstance:
    """Small random hypergraph within the naive-oracle guard."""
    rng = random.Random(seed)
    ground = rng.randint(2, max_points)
    n_edges = rng.randint(1, max_edges)
    edges = []
    for _ in range(n_edges):
        size = rng.randint(1, max(1, ground // 2))
        edges.append(frozenset(rng.sample(range(ground), size)))
    return HypergraphInstance(ground_size=ground, edges=tuple(edges), provenance="abstract")


def crowded_family(rng: random.Random, d: int, n_edges: int, grid=None) -> DIntervalFamily:
    """Parts on a coarse grid: shared endpoints, touching and point parts.

    The grid defaults to the half-integers 0..6.
    """
    if grid is None:
        grid = [Fraction(i, 2) for i in range(13)]
    edges = []
    while len(edges) < n_edges:
        values = sorted(rng.choices(grid, k=2 * rng.randint(1, d)))
        if all(values[i] < values[i + 1] for i in range(1, len(values) - 1, 2)):
            edges.append(list(zip(values[::2], values[1::2])))
    return fam(d, *edges)


def reference_kernel(edge_sets) -> list[int]:
    """Sorted points of the incidence LP's dominance kernel, pair by pair.

    A point is dropped when the set of edges through it is a strict subset
    of another point's, or equals another point's with a lower id.
    """
    points = sorted(set().union(*edge_sets))
    through = {
        pt: frozenset(j for j, e in enumerate(edge_sets) if pt in e) for pt in points
    }
    return [
        a
        for a in points
        if not any(
            through[a] < through[b] or (through[a] == through[b] and b < a)
            for b in points
        )
    ]


def reference_solve_lp_max(A, b, c, stall_limit: int = 64):
    """(value, primal, dual, pivots) of max{c.x : Ax <= b, x >= 0}, b >= 0.

    A textbook `Fraction` tableau with the library's pivot rule: Dantzig's
    rule, switching for good to Bland's after `stall_limit` consecutive
    pivots that leave the objective unchanged, and ratio-test ties to the
    lowest basic index.  The library's condensed integer tableau, which
    keeps only the nonbasic columns, must reproduce it pivot for pivot.
    """
    m, n = len(A), len(c)
    rows = [
        [Fraction(v) for v in A[i]]
        + [Fraction(int(j == i)) for j in range(m)]
        + [Fraction(b[i])]
        for i in range(m)
    ]
    obj = [-Fraction(v) for v in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    pivots = stall = 0
    bland = False
    while True:
        negative = [j for j in range(n + m) if obj[j] < 0]
        if not negative:
            break
        col = negative[0] if bland else min(negative, key=lambda j: (obj[j], j))
        candidates = [i for i in range(m) if rows[i][col] > 0]
        if not candidates:
            raise ArithmeticError("LP is unbounded")
        row_idx = min(candidates, key=lambda i: (rows[i][-1] / rows[i][col], basis[i]))
        old_value = obj[-1]
        piv_row = rows[row_idx] = [v / rows[row_idx][col] for v in rows[row_idx]]
        for i in range(m):
            if i != row_idx and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], piv_row)]
        f = obj[col]
        obj = [x - f * y for x, y in zip(obj, piv_row)]
        basis[row_idx] = col
        pivots += 1
        if obj[-1] == old_value:
            stall += 1
            bland = bland or stall > stall_limit
        else:
            stall = 0
    primal = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            primal[var] = rows[i][-1]
    return obj[-1], tuple(primal), tuple(obj[n:n + m]), pivots


def reference_verify(A, b, c, primal, dual, value) -> None:
    """Raise SimplexError unless (primal, dual, value) certify optimality.

    Checks x, y >= 0, Ax <= b, yA >= c and c.x == y.b == value in plain
    `Fraction` arithmetic on the input data; the library's integer check
    must accept and reject exactly the same solutions.
    """
    m, n = len(A), len(primal)
    if any(x < 0 for x in primal) or any(y < 0 for y in dual):
        raise SimplexError("negative component in returned solution")
    for i in range(m):
        lhs = sum(Fraction(A[i][j]) * primal[j] for j in range(n))
        if lhs > Fraction(b[i]):
            raise SimplexError(f"primal violates constraint {i}")
    for j in range(n):
        lhs = sum(dual[i] * Fraction(A[i][j]) for i in range(m))
        if lhs < Fraction(c[j]):
            raise SimplexError(f"dual violates constraint {j}")
    cx = sum(Fraction(c[j]) * primal[j] for j in range(n))
    yb = sum(dual[i] * Fraction(b[i]) for i in range(m))
    if not (cx == yb == value):
        raise SimplexError(f"duality gap: c.x={cx}, y.b={yb}, value={value}")


def reference_certificate_problem(edge_sets, points, sol) -> str | None:
    """Why `sol` is not an optimal tau* pair on `edge_sets`, or None, over dicts.

    `edge_sets` are the distinct edges' point collections in the order of
    `sol.primal`, and `sol.dual` weighs `points`, all as integer numerators
    over `sol.den`.  Each check is made point by point on dicts of the
    nonzero weights: D > 0, one weight per edge and per point, no negative
    weight, every edge covered, no point overloaded, and equal values; the
    solvers' mask-based certificate must find the same problem, in the same
    order.
    """
    D = sol.den
    if D <= 0:
        return f"LP denominator {D} is not positive"
    if len(sol.primal) != len(edge_sets) or len(sol.dual) != len(points):
        return "fractional solution weighs a wrong number of edges or points"
    packing = {j: w for j, w in enumerate(sol.primal) if w}
    cover = {points[i]: w for i, w in enumerate(sol.dual) if w}
    if any(w < 0 for w in cover.values()) or any(w < 0 for w in packing.values()):
        return "fractional solution has a negative weight"
    for edge in edge_sets:
        if sum(cover.get(pt, 0) for pt in edge) < D:
            return "fractional cover misses an edge constraint"
    load: dict[int, int] = {}
    for j, w in packing.items():
        for pt in edge_sets[j]:
            load[pt] = load.get(pt, 0) + w
    if any(v > D for v in load.values()):
        return "fractional matching overloads a point"
    if not (sum(cover.values()) == sum(packing.values()) == sol.value):
        return "LP duality certificate failed"
    return None


def reference_greedy_cover(instance: HypergraphInstance) -> list[int]:
    """The zero-weight greedy cover of the distinct edges, over plain sets.

    Each step takes the point on the most uncovered distinct edges, then
    the lowest id, until every edge is met; `_SolveContext.plain_cover`
    must take the same points in the same order.
    """
    uncovered = list(dict.fromkeys(instance.edges))
    cover: list[int] = []
    while uncovered:
        load = Counter(pt for e in uncovered for pt in e)
        pt = min(load, key=lambda p: (-load[p], p))
        cover.append(pt)
        uncovered = [e for e in uncovered if pt not in e]
    return cover


def reference_max_depth(instance: HypergraphInstance) -> tuple[int, int | None]:
    """(r, point) of `max_depth`, by counting every incidence of every edge.

    r is the largest number of edges, copies counted, through one point, and
    the point is the lowest one that deep; (0, None) without edges.
    """
    load = Counter(pt for e in instance.edges for pt in e)
    if not load:
        return 0, None
    best = max(load.values())
    return best, min(pt for pt, v in load.items() if v == best)


def reference_pq_check(
    instance: HypergraphInstance, p: int, q: int
) -> tuple[bool, frozenset[int] | None]:
    """(holds, counterexample) of the (p,q) property, by unpruned enumeration.

    Edges are the first occurrences of the distinct edge sets.  Every p-subset
    of them is tried in lexicographic order, and the first one in which no q
    edges share a point is the counterexample.
    """
    firsts: dict[frozenset[int], int] = {}
    for i, e in enumerate(instance.edges):
        firsts.setdefault(e, i)
    ids = sorted(firsts.values())
    for combo in itertools.combinations(ids, p):
        if not any(
            frozenset.intersection(*(instance.edges[i] for i in sub))
            for sub in itertools.combinations(combo, q)
        ):
            return False, frozenset(combo)
    return True, None


def reference_matching_number(
    instance: HypergraphInstance, incumbent
) -> tuple[int, frozenset[int], int]:
    """(nu, witness, node count) of `matching_number`'s search, over plain sets.

    The same documented search without bitmasks, started from the matching
    `incumbent` (positions j of the distinct edges below): at each node,
    prune by the number of live edges and by the floor of the unreduced
    incidence LP; branch on the lowest point of highest degree among the
    live edges, taking each of its live edges in index order and then none
    of them.  Edges are the first occurrences of the distinct edge sets.
    """
    firsts: dict[frozenset[int], int] = {}
    for i, e in enumerate(instance.edges):
        firsts.setdefault(e, i)
    ids = sorted(firsts.values())
    edges = [instance.edges[i] for i in ids]
    best = list(incumbent)
    assert all(not edges[a] & edges[b] for a, b in itertools.combinations(best, 2))
    nodes = 0

    def lp_floor(live: list[int]) -> int:
        points = sorted(set().union(*(edges[j] for j in live)))
        A = [[1 if pt in edges[j] else 0 for j in live] for pt in points]
        value = reference_solve_lp_max(A, [1] * len(points), [1] * len(live))[0]
        return value.numerator // value.denominator

    def search(live: list[int], chosen: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if not live:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        if len(chosen) + len(live) <= len(best) or len(chosen) + lp_floor(live) <= len(best):
            return
        degree: dict[int, int] = {}
        for j in live:
            for pt in edges[j]:
                degree[pt] = degree.get(pt, 0) + 1
        top = max(degree.values())
        pt = min(p for p, v in degree.items() if v == top)
        through = [j for j in live if pt in edges[j]]
        for j in through:
            search([k for k in live if not edges[k] & edges[j]], chosen + [j])
        search([k for k in live if k not in through], chosen)

    search(list(range(len(edges))), [])
    return len(best), frozenset(ids[j] for j in best), nodes


def reference_min_degree_matching(instance: HypergraphInstance) -> list[int]:
    """The min-degree-first matching, over plain sets.

    Positions j of the distinct edges (first occurrences, in index order):
    each step takes the available edge meeting the fewest available edges,
    itself included, the lowest position on ties, and makes every edge it
    meets unavailable.
    """
    edges = list(dict.fromkeys(instance.edges))
    free = list(range(len(edges)))
    chosen = []
    while free:
        j = min(free, key=lambda j: sum(bool(edges[j] & edges[i]) for i in free))
        chosen.append(j)
        free = [i for i in free if not edges[i] & edges[j]]
    return chosen


def reference_validate_decomposition(graph, dec) -> list[str]:
    """`validate_decomposition`'s messages, one breadth-first walk per vertex.

    Vertices in no bag, then unknown vertices the bags mention, then each
    vertex (increasing) whose holding bags form more than one component of
    the tree, found by `connected_components`, then each edge that no
    single bag holds both ends of.
    """
    problems = []
    covered = set().union(*dec.bags) if dec.bags else set()
    for v in range(graph.n):
        if v not in covered:
            problems.append(f"vertex {v} appears in no bag")
    for v in covered:
        if not (0 <= v < graph.n):
            problems.append(f"bags mention unknown vertex {v}")
    adj = dec.tree.adjacency()
    for v in sorted(covered):
        holding = [i for i, bag in enumerate(dec.bags) if v in bag]
        comps = connected_components(adj, holding)
        if len(comps) > 1:
            a = min(comps[0])
            b = min(comps[1])
            problems.append(
                f"bags containing vertex {v} are disconnected: "
                f"no path of v-bags joins bag {a} and bag {b}"
            )
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in dec.bags):
            problems.append(f"edge ({u},{v}) is inside no bag")
    return problems


def reference_lift_edges(graph, dec, subgraphs, d: int) -> list[frozenset[int]]:
    """The edges `lift_family` lifts `subgraphs` to, by bag intersections and walks.

    Each subgraph h lifts to the bags meeting it; the components of h and of
    its lift are found by `connected_components`.  It raises as
    `lift_family` does, with the same messages, on an int-vertex input.
    """
    if d < 1:
        raise ValueError(f"d: must be positive, got {d}")
    problems = reference_validate_decomposition(graph, dec)
    if problems:
        raise InvalidDecomposition(problems[0])
    graph_adj, tree_adj = graph.adjacency(), dec.tree.adjacency()
    vertices = frozenset(range(graph.n))
    edges = []
    for idx, given in enumerate(subgraphs):
        h = frozenset(given)
        lifted = frozenset(i for i, bag in enumerate(dec.bags) if bag & h)
        if not lifted:
            raise InvalidDecomposition(
                f"subgraph {idx} meets no bag (vertices outside the graph?)"
            )
        if not h <= vertices:
            j, v = next((j, v) for j, v in enumerate(given) if v not in vertices)
            raise ValueError(f"subgraphs[{idx}][{j}]: vertex {v} outside graph 0..{graph.n - 1}")
        ncomp = len(connected_components(tree_adj, lifted))
        source = len(connected_components(graph_adj, h))
        if ncomp > source:
            raise AssertionError(
                f"lift of subgraph {idx} has {ncomp} components, source has {source}"
            )
        if ncomp > d:
            raise ValueError(f"subgraphs[{idx}]: induces {ncomp} components > d={d}")
        edges.append(lifted)
    return edges
