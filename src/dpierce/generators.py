"""Seeded instance generators.

Everything here is a pure function of its configuration: the same seed
reproduces the same instance byte for byte.  Planted (p,q) families obtain
the property structurally (anchor points plus pigeonhole over anchor
assignment), never by rejection sampling, and re-verify it via `pq_check`
before returning.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DInterval,
    DIntervalFamily,
    Graph,
    HostTree,
    HypergraphInstance,
    Interval,
    PQParameters,
    SubforestFamily,
    mask_points,
    to_incidence,
)
from .solvers import pq_check
from .treewidth import TreeDecomposition, TwInstance


class NotPrime(ValueError):
    """Field order of a projective construction must be prime."""


class PlantFailed(RuntimeError):
    """A planted family failed its own (p,q) post-verification."""


@dataclass(frozen=True)
class GenConfig:
    """Knobs shared by the random generators; generation is pure in these."""

    seed: int
    n_edges: int = 8
    d: int = 2
    coord_denominator: int = 4
    host_size: int = 10

    def __post_init__(self):
        for name in ("n_edges", "d", "coord_denominator", "host_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class ProjectiveParams:
    """PG(k,q): ints (a float or bool is a TypeError), k >= 2 and q prime."""

    dimension: int  # the construction's k
    field_order: int  # the construction's q, a prime

    def __post_init__(self):
        for name in ("dimension", "field_order"):
            value = getattr(self, name)
            if type(value) is not int:
                raise TypeError(f"{name}: expected an int, got {value!r}")
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        if not is_prime(self.field_order):
            raise NotPrime(f"field order {self.field_order} is not prime")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# ---------------------------------------------------------------------------
# interval families
# ---------------------------------------------------------------------------

def random_d_intervals(cfg: GenConfig) -> DIntervalFamily:
    """Random family in general position.

    Every endpoint is drawn without replacement from the grid
    {j / coord_denominator}, so no two parts share an endpoint value; each
    edge gets between 1 and d parts.
    """
    rng = random.Random(cfg.seed)
    pool = list(range(8 * cfg.d * cfg.n_edges + 8))
    edges = []
    for _ in range(cfg.n_edges):
        n_parts = rng.randint(1, cfg.d)
        units = sorted(_draw(rng, pool, 2 * n_parts))
        parts = tuple(
            Interval(
                Fraction(units[2 * i], cfg.coord_denominator),
                Fraction(units[2 * i + 1], cfg.coord_denominator),
            )
            for i in range(n_parts)
        )
        edges.append(DInterval(parts))
    return DIntervalFamily(d=cfg.d, edges=tuple(edges))


def _draw(rng: random.Random, pool: list[int], count: int) -> list[int]:
    """Remove and return `count` random elements of `pool`."""
    if count > len(pool):
        raise ValueError("value pool exhausted")
    out = []
    for _ in range(count):
        out.append(pool.pop(rng.randrange(len(pool))))
    return out


def planted_pq_family(cfg: GenConfig, params: PQParameters) -> DIntervalFamily:
    """Random family guaranteed to satisfy the (p,q) property.

    Anchors sit at well-separated coordinates; edge i receives one part
    straddling its round-robin anchor, so any p edges contain q sharing an
    anchor.  Remaining parts are random in a region right of all anchors.
    Every endpoint is drawn without replacement from a pool of its own
    anchor, 16n+32 units from the next, or from the region's pool, so the
    family is in general position.
    There are `params.pigeonhole_points` anchors, the most for which any p
    edges put q on one anchor.  The property is re-verified; failure raises
    PlantFailed (a bug, not an input condition).  The re-verification is
    independent of the plant: `pq_check` searches its pigeonhole cover in
    the edges' masks and never reads the anchors.
    """
    rng = random.Random(cfg.seed)
    n, d, cd = cfg.n_edges, cfg.d, cfg.coord_denominator
    anchors = params.pigeonhole_points
    span = 8 * n + 16  # grid units between anchor sites
    left_pools = [list(range(1, 2 * n + 5)) for _ in range(anchors)]
    right_pools = [list(range(1, 2 * n + 5)) for _ in range(anchors)]
    extra_base = (2 * anchors + 2) * span
    extra_pool = list(range(extra_base, extra_base + 8 * d * n + 8))

    edges = []
    for i in range(n):
        a = i % anchors
        site = (2 * a + 1) * span
        lo = site - _draw(rng, left_pools[a], 1)[0]
        hi = site + _draw(rng, right_pools[a], 1)[0]
        parts = [Interval(Fraction(lo, cd), Fraction(hi, cd))]
        n_extra = rng.randint(0, d - 1)
        if n_extra:
            units = sorted(_draw(rng, extra_pool, 2 * n_extra))
            parts.extend(
                Interval(Fraction(units[2 * j], cd), Fraction(units[2 * j + 1], cd))
                for j in range(n_extra)
            )
        parts.sort(key=lambda p: p.lo)
        edges.append(DInterval(tuple(parts)))
    family = DIntervalFamily(d=d, edges=tuple(edges))

    verdict = pq_check(to_incidence(family), params)
    if not verdict.holds:
        raise PlantFailed(f"planted family fails ({params.p},{params.q}): {verdict.counterexample}")
    return family


# ---------------------------------------------------------------------------
# projective spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectiveFamily:
    """Hyperplane incidence of P^k(F_q) plus its point-interval realization."""

    instance: HypergraphInstance
    realization: DIntervalFamily
    d: int  # uniform edge size (q^k - 1) / (q - 1)


def projective_points(dimension: int, q: int) -> list[tuple[int, ...]]:
    """Normalized homogeneous coordinates, first nonzero entry 1, lex order.

    Built directly: the vectors whose first nonzero entry is at position j
    are (0,)*j + (1,) + any tail, and more leading zeros sort first.
    """
    return [
        (0,) * j + (1,) + tail
        for j in reversed(range(dimension + 1))
        for tail in itertools.product(range(q), repeat=dimension - j)
    ]


def projective_incidence(params: ProjectiveParams) -> tuple[HypergraphInstance, int]:
    """(points vs hyperplanes of P^k(F_q), d) with d the uniform edge size.

    Ground ids follow lex order of normalized coordinates, and edge j is the
    hyperplane of the j-th normalized dual vector a: the points x with
    a.x = 0 mod q.  Each hyperplane's point mask comes from a residue sweep
    over coordinate masks, with no loop over point pairs.  col[i][v] is the
    mask of the points whose coordinate i is v.  Over the nonzero coordinates
    of a, res[s] holds the points whose partial sum of a_t*x_t is s mod q:
    the first (a_i = 1) sets res = col[i], each later one combines res with
    col[i] in q^2 AND/OR steps, and the last builds only residue 0, which is
    the edge.  The masks go to `HypergraphInstance._from_masks` as they are.
    """
    k, q = params.dimension, params.field_order
    pts = projective_points(k, q)
    col = [[0] * q for _ in range(k + 1)]
    for pid, vec in enumerate(pts):
        bit = 1 << pid
        for i, v in enumerate(vec):
            col[i][v] |= bit
    masks = []
    for dual in pts:
        nonzero = [(i, a) for i, a in enumerate(dual) if a]
        res = col[nonzero[0][0]]
        for i, a in nonzero[1:-1]:
            new = [0] * q
            for v, cv in enumerate(col[i]):
                shift = a * v
                for s, r in enumerate(res):
                    new[(s + shift) % q] |= r & cv
            res = new
        mask = res[0]
        if len(nonzero) > 1:
            i, a = nonzero[-1]
            mask = 0
            for v, cv in enumerate(col[i]):
                mask |= res[-a * v % q] & cv
        masks.append(mask)
    instance = HypergraphInstance._from_masks(len(pts), masks, "abstract")
    return instance, (q**k - 1) // (q - 1)


def projective_instance(params: ProjectiveParams) -> ProjectiveFamily:
    """`projective_incidence` with its d-interval realization.

    The realization places ground point i at integer coordinate i and turns
    every edge into a union of point-intervals, one per incident point in
    increasing order; distinct points get distinct coordinates, so it is in
    general position.  Each point's interval [i, i] is built once and shared
    by every hyperplane through the point (intervals are frozen values).
    """
    instance, d = projective_incidence(params)
    points = [Interval(x, x) for x in map(Fraction, range(instance.ground_size))]
    realization = DIntervalFamily(
        d=d,
        edges=tuple(
            DInterval(tuple(points[i] for i in mask_points(m)))
            for m in instance.edge_masks
        ),
    )
    return ProjectiveFamily(instance=instance, realization=realization, d=d)


# ---------------------------------------------------------------------------
# trees and subforests
# ---------------------------------------------------------------------------

def random_tree(cfg: GenConfig) -> HostTree:
    """Random attachment tree on host_size vertices."""
    return _attachment_tree(random.Random(cfg.seed), cfg.host_size)


def _attachment_tree(rng: random.Random, n: int) -> HostTree:
    """Tree on 0..n-1 where each vertex i >= 1 hangs from a random earlier vertex."""
    return HostTree(n=n, edges=tuple((rng.randrange(i), i) for i in range(1, n)))


def _grow_patch(rng: random.Random, adj: list[list[int]], start: int, size: int) -> set[int]:
    """Random connected vertex set containing `start`."""
    patch = {start}
    while len(patch) < size:
        frontier = sorted(
            {w for v in patch for w in adj[v] if w not in patch}
        )
        if not frontier:
            break
        patch.add(rng.choice(frontier))
    return patch


def _random_patches(rng: random.Random, adj: list[list[int]], count: int, max_patch: int) -> set[int]:
    """Union of `count` connected patches, each grown from a random start vertex."""
    vertices: set[int] = set()
    for _ in range(count):
        start = rng.randrange(len(adj))
        vertices |= _grow_patch(rng, adj, start, rng.randint(1, max_patch))
    return vertices


def random_subforests(host: HostTree, cfg: GenConfig) -> SubforestFamily:
    """Each edge is a union of at most d random connected patches of the host."""
    rng = random.Random(cfg.seed)
    adj = host.adjacency()
    max_patch = max(1, host.n // 2)
    edges = [
        frozenset(_random_patches(rng, adj, rng.randint(1, cfg.d), max_patch))
        for _ in range(cfg.n_edges)
    ]
    return SubforestFamily(host=host, d=cfg.d, edges=tuple(edges))


def planted_pq_subforests(cfg: GenConfig, params: PQParameters) -> SubforestFamily:
    """d-tree family over a random host tree satisfying (p,q) by anchors.

    Same pigeonhole as `planted_pq_family`: edge i grows one patch from its
    round-robin anchor vertex, plus up to d-1 free patches.  It is
    re-verified the same way, with no reading of the anchors.
    """
    rng = random.Random(cfg.seed)
    host = _attachment_tree(rng, cfg.host_size)
    adj = host.adjacency()
    anchors = params.pigeonhole_points
    if anchors > host.n:
        raise ValueError(f"host too small for {anchors} anchors")
    anchor_vertices = sorted(rng.sample(range(host.n), anchors))
    max_patch = max(1, host.n // 3)
    edges = []
    for i in range(cfg.n_edges):
        a = anchor_vertices[i % anchors]
        vertices = _grow_patch(rng, adj, a, rng.randint(1, max_patch))
        vertices |= _random_patches(rng, adj, rng.randint(0, cfg.d - 1), max_patch)
        edges.append(frozenset(vertices))
    family = SubforestFamily(host=host, d=cfg.d, edges=tuple(edges))
    verdict = pq_check(to_incidence(family), params)
    if not verdict.holds:
        raise PlantFailed(f"planted subforests fail ({params.p},{params.q}): {verdict.counterexample}")
    return family


# ---------------------------------------------------------------------------
# bounded tree-width instances
# ---------------------------------------------------------------------------

def random_tw_graph(cfg: GenConfig, width: int) -> TwInstance:
    """Random graph of tree-width <= width, built decomposition-first.

    Bags are grown along a random attachment tree, each child inheriting a
    nonempty subset of its parent (running intersection by construction);
    graph edges are random pairs inside bags.  The subgraph family samples
    at most d connected patches per edge.  `TwInstance` validates the
    decomposition.
    """
    if width < 0:
        raise ValueError(f"width must be >= 0, got {width}")
    rng = random.Random(cfg.seed)
    n_bags = cfg.host_size
    bags: list[set[int]] = []
    bag_edges = []
    next_vertex = 0
    for i in range(n_bags):
        if i == 0:
            fresh = rng.randint(1, width + 1)
            bag = set(range(next_vertex, next_vertex + fresh))
            next_vertex += fresh
        else:
            parent = rng.randrange(i)
            bag_edges.append((parent, i))
            inherit = rng.randint(1, len(bags[parent]))
            bag = set(rng.sample(sorted(bags[parent]), inherit))
            fresh = rng.randint(0, width + 1 - len(bag))
            bag |= set(range(next_vertex, next_vertex + fresh))
            next_vertex += fresh
        bags.append(bag)

    n_vertices = next_vertex
    graph_edges: set[tuple[int, int]] = set()
    for bag in bags:
        for u, v in itertools.combinations(sorted(bag), 2):
            if rng.random() < 0.6:
                graph_edges.add((u, v))
    graph = Graph(n=n_vertices, edges=tuple(sorted(graph_edges)))
    decomposition = TreeDecomposition(
        tree=HostTree(n=n_bags, edges=tuple(bag_edges)),
        bags=tuple(frozenset(b) for b in bags),
    )

    adj = graph.adjacency()
    max_patch = max(1, n_vertices // 3)
    subgraphs = tuple(
        frozenset(_random_patches(rng, adj, rng.randint(1, cfg.d), max_patch))
        for _ in range(cfg.n_edges)
    )
    return TwInstance(
        graph=graph,
        decomposition=decomposition,
        subgraphs=subgraphs,
        d=cfg.d,
    )
