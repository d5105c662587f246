"""Geometric and tree-based set families and their finite incidence form.

Two continuous/combinatorial families are supported:

* d-interval families: every edge is a union of at most d pairwise disjoint
  closed intervals with rational endpoints on one line.
* subforest families: every edge is a vertex subset of a fixed host tree
  inducing at most d connected components.

Both reduce, without changing any of the four optimization quantities
(matching number, piercing number and their fractional relaxations), to a
`HypergraphInstance`: ground points and edges as point sets, a repeated
member as a repeated edge.  All coordinates are exact rationals
(`fractions.Fraction`), and interval endpoints are ranked as integers;
nothing in this module touches floating point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from math import lcm


class EmptyIntersection(ValueError):
    """Raised when an interval list required to intersect does not."""


def rational(value) -> Fraction:
    """Coerce ints, strings like '3/4' or '-2', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coordinate")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


# ---------------------------------------------------------------------------
# intervals on a line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; lo == hi is a legal point-interval."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rational(self.lo))
        object.__setattr__(self, "hi", rational(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval has lo > hi: [{self.lo}, {self.hi}]")

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class DInterval:
    """A union of at most `d` pairwise disjoint closed intervals.

    Parts are kept sorted by left endpoint; disjointness of closed intervals
    means strictly positive gaps between consecutive parts.
    """

    parts: tuple[Interval, ...]
    d: int

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if self.d < 1:
            raise ValueError(f"capacity d must be positive, got {self.d}")
        if not self.parts:
            raise ValueError("edge needs at least one interval part")
        if len(self.parts) > self.d:
            raise ValueError(f"edge has {len(self.parts)} parts, capacity d={self.d}")
        for i in range(len(self.parts) - 1):
            a, b = self.parts[i], self.parts[i + 1]
            if a.lo > b.lo:
                raise ValueError(f"parts not sorted by lo at index {i}")
            if a.hi >= b.lo:
                raise ValueError(
                    f"parts {i} and {i + 1} are not disjoint: "
                    f"[{a.lo},{a.hi}] vs [{b.lo},{b.hi}]"
                )

    def contains(self, x: Fraction) -> bool:
        return any(p.contains(x) for p in self.parts)

    def endpoints(self) -> list[Fraction]:
        out = []
        for p in self.parts:
            out.append(p.lo)
            out.append(p.hi)
        return out


@dataclass(frozen=True)
class DIntervalFamily:
    """A finite family of d-intervals, the edges of an interval hypergraph.

    `general_position` asserts that no endpoint value is shared by two
    non-identical interval parts anywhere in the family (a part may be a
    point, and one interval may recur in several edges).  Setting the flag
    validates it.
    """

    d: int
    edges: tuple[DInterval, ...]
    general_position: bool = False

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
        for i, e in enumerate(self.edges):
            if len(e.parts) > self.d:
                raise ValueError(f"edges[{i}] has {len(e.parts)} parts > d={self.d}")
        if self.general_position:
            bad = general_position_violations(self)
            if bad:
                x, where = bad[0]
                raise ValueError(
                    f"general position violated: value {x} is an endpoint of "
                    f"distinct intervals {where}"
                )

    def __len__(self) -> int:
        return len(self.edges)


def make_family(d: int, edges, general_position: bool = False) -> DIntervalFamily:
    """Build a family from bare endpoint pairs.

    `edges` is an iterable of edges, each an iterable of (lo, hi) pairs in
    any `rational`-coercible form.
    """
    built = []
    for edge in edges:
        parts = sorted(
            (Interval(rational(lo), rational(hi)) for lo, hi in edge),
            key=lambda p: (p.lo, p.hi),
        )
        built.append(DInterval(tuple(parts), d))
    return DIntervalFamily(d=d, edges=tuple(built), general_position=general_position)


def general_position_violations(
    family: DIntervalFamily,
) -> list[tuple[Fraction, tuple[tuple[int, int], tuple[int, int]]]]:
    """Endpoint values shared by two distinct interval parts.

    Distinct means distinct as intervals: repeated occurrences of one and
    the same interval (e.g. the same point-interval appearing in several
    edges) do not violate general position, and a point-interval sharing
    its own two endpoints never does.  Returns
    [(value, ((edge_i, part_i), (edge_j, part_j))), ...].
    """
    seen: dict[Fraction, tuple[tuple[Fraction, Fraction], tuple[int, int]]] = {}
    out = []
    for ei, edge in enumerate(family.edges):
        for pi, part in enumerate(edge.parts):
            shape = (part.lo, part.hi)
            for x in {part.lo, part.hi}:
                prev = seen.get(x)
                if prev is None:
                    seen[x] = (shape, (ei, pi))
                elif prev[0] != shape:
                    out.append((x, (prev[1], (ei, pi))))
    return out


def repair_general_position(family: DIntervalFamily) -> DIntervalFamily:
    """Separate coinciding endpoints by shifting each part i by i*eps.

    eps = 1 / (lcm of all endpoint denominators * 1000 * (#parts + 1)), so
    all originally distinct values keep their order and within-edge gaps
    survive.  This is an explicit, order-changing repair: closed intervals
    that merely touched may stop intersecting.  Never applied silently.
    """
    denoms = [1]
    total_parts = 0
    for edge in family.edges:
        for part in edge.parts:
            denoms.append(part.lo.denominator)
            denoms.append(part.hi.denominator)
            total_parts += 1
    eps = Fraction(1, lcm(*denoms) * 1000 * (total_parts + 1))

    new_edges = []
    index = 0
    for edge in family.edges:
        parts = []
        for part in edge.parts:
            shift = index * eps
            parts.append(Interval(part.lo + shift, part.hi + shift))
            index += 1
        new_edges.append(DInterval(tuple(parts), edge.d))
    return DIntervalFamily(d=family.d, edges=tuple(new_edges), general_position=True)


# ---------------------------------------------------------------------------
# host trees and subforests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HostTree:
    """A tree on vertices 0..n-1 given by its n-1 undirected edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((min(u, v), max(u, v)) for u, v in self.edges)
        )
        if self.n < 1:
            raise ValueError(f"tree needs at least one vertex, got n={self.n}")
        if len(self.edges) != self.n - 1:
            raise ValueError(f"tree on {self.n} vertices needs {self.n - 1} edges, got {len(self.edges)}")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of vertex range 0..{self.n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
        if len(connected_components(self.adjacency(), range(self.n))) != 1:
            raise ValueError("edge list is not connected")

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def depths_from(self, root: int) -> list[int]:
        """BFS distance from `root` to every vertex."""
        adj = self.adjacency()
        dist = [-1] * self.n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist


def connected_components(adj: list[list[int]], vertices) -> list[frozenset[int]]:
    """Components of the subgraph induced on `vertices`, each sorted-min first."""
    vset = set(vertices)
    seen: set[int] = set()
    comps = []
    for start in sorted(vset):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w in vset and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return comps


def induced_components(host: HostTree, vertices) -> list[frozenset[int]]:
    """Maximal connected pieces of the subgraph of `host` induced on `vertices`."""
    vset = set(vertices)
    for v in vset:
        if not (0 <= v < host.n):
            raise ValueError(f"vertex {v} not in host tree 0..{host.n - 1}")
    return connected_components(host.adjacency(), vset)


@dataclass(frozen=True)
class Subforest:
    """An edge of a tree family: a nonempty vertex subset of the host."""

    vertices: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        if not self.vertices:
            raise ValueError("subforest must be nonempty")


@dataclass(frozen=True)
class SubforestFamily:
    """Subgraphs of a host tree, each inducing at most d components."""

    host: HostTree
    d: int
    edges: tuple[Subforest, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
        for i, e in enumerate(self.edges):
            for v in e.vertices:
                if not (0 <= v < self.host.n):
                    raise ValueError(f"edges[{i}]: vertex {v} outside host 0..{self.host.n - 1}")
            ncomp = len(induced_components(self.host, e.vertices))
            if ncomp > self.d:
                raise ValueError(f"edges[{i}] induces {ncomp} components > d={self.d}")

    def __len__(self) -> int:
        return len(self.edges)


# ---------------------------------------------------------------------------
# (p,q) parameters and the unified finite incidence form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PQParameters:
    """Parameters of the intersection property: among any p edges, q meet.

    p and q are ints (a float or bool is a TypeError) with p >= q >= 2.
    """

    p: int
    q: int

    def __post_init__(self):
        for name in ("p", "q"):
            value = getattr(self, name)
            if type(value) is not int:
                raise TypeError(f"{name}: expected an int, got {value!r}")
        if not (self.p >= self.q >= 2):
            raise ValueError(f"need p >= q >= 2, got p={self.p}, q={self.q}")


@dataclass(frozen=True)
class HypergraphInstance:
    """Finite incidence form consumed by every solver.

    Edges are point-id sets over ground 0..ground_size-1, one per member of
    the family: a family is a multiset, and a repeated member is a repeated
    edge.  Point ids are ints (bool is rejected).  `provenance` names the
    family class the instance was built from, which decides the bound kinds
    that apply to it.  `edge_masks`, one point bitmask per edge, and
    `max_depth`, counted on those masks, are computed the first time they
    are read and kept on the instance, and so is the solvers' context (their
    distinct edges, point->edge masks and solved LPs); none is a field, so
    equality, hashing, repr and pickling see only the three fields.
    """

    ground_size: int
    edges: tuple[frozenset[int], ...]
    provenance: str = "abstract"

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(frozenset(e) for e in self.edges))
        if self.ground_size < 1:
            raise ValueError(f"ground_size must be positive, got {self.ground_size}")
        if self.provenance not in ("interval", "tree", "abstract"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        # checked on the distinct points, which keep the first of equal points:
        # a later equal float or Fraction turns the sum of all points into one,
        # and a bool can only equal 0 or 1.  The loop names the first bad point
        points = frozenset().union(*self.edges)
        if (
            all(self.edges)
            and set(map(type, points)) <= {int}
            and type(sum(map(sum, self.edges))) is int
            and not any(type(pt) is bool for e in self.edges if 0 in e or 1 in e for pt in e)
            and (not points or (min(points) >= 0 and max(points) < self.ground_size))
        ):
            return
        for i, e in enumerate(self.edges):
            if not e:
                raise ValueError(f"edges[{i}] is empty")
            for pt in e:
                if type(pt) is not int:
                    raise ValueError(f"edges[{i}]: point {pt!r} is not an int")
                if not (0 <= pt < self.ground_size):
                    raise ValueError(f"edges[{i}]: point {pt} outside ground 0..{self.ground_size - 1}")

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """The point bitmask of each edge, in edge order: bit pt for point pt."""
        masks = []
        for e in self.edges:
            m = 0
            for pt in e:
                m |= 1 << pt
            masks.append(m)
        return tuple(masks)

    @cached_property
    def max_depth(self) -> tuple[int, int | None]:
        """(r, point): r the most edges, copies counted, through one point; the lowest such point."""
        return _deepest_point(self.edge_masks)

    def __getstate__(self):
        # the fields only: cached masks, depth and solve context are rebuilt after unpickling
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _deepest_point(masks) -> tuple[int, int | None]:
    """(r, point) of `HypergraphInstance.max_depth`, from the edges' point bitmasks.

    A bit-sliced counter: layer k holds bit k of every point's load, and
    each mask is added to it with a ripple carry.  r is read from the top
    layer down, keeping the points that reach each bit of the maximum; the
    lowest of the points left is the deepest point.
    """
    layers: list[int] = []
    for carry in masks:
        k = 0
        while carry:
            if k == len(layers):
                layers.append(carry)
                break
            layers[k], carry = layers[k] ^ carry, layers[k] & carry
            k += 1
    if not layers:
        return 0, None
    r, deepest = 0, -1
    for k in reversed(range(len(layers))):
        if deepest & layers[k]:
            deepest &= layers[k]
            r |= 1 << k
    return r, (deepest & -deepest).bit_length() - 1


# ---------------------------------------------------------------------------
# operations on interval families
# ---------------------------------------------------------------------------

def candidate_points(family: DIntervalFamily, mode: str = "all_endpoints") -> list[Fraction]:
    """Deduplicated sorted endpoint values of the family's interval parts.

    mode='all_endpoints' lists every lo and hi; mode='right_endpoints' lists
    only hi values.  Any point x of the line can be slid right, inside every
    interval currently containing it, to the nearest right endpoint among
    those intervals (each closed part containing x extends to its own hi).
    Hence covers restricted to right endpoints are still optimal, and common
    points of any edge subset are witnessed at endpoints; `all_endpoints` is
    a superset that also supports depth maximization.
    """
    if mode not in ("all_endpoints", "right_endpoints"):
        raise ValueError(f"unknown mode {mode!r}")
    values: set[Fraction] = set()
    for edge in family.edges:
        for part in edge.parts:
            if mode == "all_endpoints":
                values.add(part.lo)
            values.add(part.hi)
    return sorted(values)


def depth(family: DIntervalFamily, x) -> int:
    """Number of edges whose union of parts contains x."""
    x = rational(x)
    return sum(1 for edge in family.edges if edge.contains(x))


def common_intersection(intervals) -> Interval | None:
    """[max lo, min hi] of the list, or None when that is empty."""
    intervals = list(intervals)
    if not intervals:
        return None
    lo = max(p.lo for p in intervals)
    hi = min(p.hi for p in intervals)
    if lo > hi:
        return None
    return Interval(lo, hi)


@dataclass(frozen=True)
class EndpointWitness:
    """A point x, the interval whose endpoint x is, and the other intervals.

    x lies in every interval of the family the witness was produced from.
    """

    point: Fraction
    owner: int
    others: frozenset[int]


def endpoint_witnesses(intervals) -> tuple[EndpointWitness, EndpointWitness]:
    """The two endpoint witnesses of an intersecting interval list.

    The common part of an intersecting list is [x1, x2] with x1 the largest
    left endpoint and x2 the smallest right endpoint; each is an endpoint of
    an achieving interval and lies in all of them.  Owners are the lowest
    achieving index.  When all endpoint values across distinct intervals
    differ and no point-interval achieves both extremes, the two returned
    pairs differ (distinct points or distinct owners); a point-interval that
    is the whole common part makes the two pairs coincide.
    """
    intervals = list(intervals)
    if not intervals:
        raise EmptyIntersection("no intervals given")
    common = common_intersection(intervals)
    if common is None:
        raise EmptyIntersection("intervals have no common point")
    i1 = min(i for i, p in enumerate(intervals) if p.lo == common.lo)
    i2 = min(i for i, p in enumerate(intervals) if p.hi == common.hi)
    everyone = frozenset(range(len(intervals)))
    return (
        EndpointWitness(common.lo, i1, everyone - {i1}),
        EndpointWitness(common.hi, i2, everyone - {i2}),
    )


def subset_intersection_point(family: DIntervalFamily, subset) -> Fraction | None:
    """A point contained in every edge of `subset`, or None.

    Searching the edges' endpoint values suffices: a common point slides
    right to the smallest right endpoint among the parts containing it.
    """
    subset = sorted(set(subset))
    for i in subset:
        if not (0 <= i < len(family.edges)):
            raise ValueError(f"edge index {i} out of range")
    if not subset:
        return None
    values: set[Fraction] = set()
    for i in subset:
        for part in family.edges[i].parts:
            values.add(part.lo)
            values.add(part.hi)
    for x in sorted(values):
        if all(family.edges[i].contains(x) for i in subset):
            return x
    return None


# ---------------------------------------------------------------------------
# discretization bridge
# ---------------------------------------------------------------------------

def to_incidence(family) -> HypergraphInstance:
    """Reduce a family to its finite incidence instance.

    This is the one conversion from a family to the instance every solver
    consumes.  Intervals: ground points are the sorted all-endpoint
    candidates, and each edge becomes the ids of the candidates its parts
    contain.  The endpoints are ranked once, exactly, in integers: each x
    is scaled to x * L, L the lcm of all endpoint denominators, a strictly
    increasing map, so the sorted distinct integers give the ids of
    `candidate_points(family, "all_endpoints")`.  A part [lo, hi] then holds
    exactly the ids rank(lo)..rank(hi), and an edge is the union of its
    parts' id ranges; its `edge_masks` entry is built from the same ranges,
    one run of bits per part, and kept on the instance.  Subforests: ground
    points are the host vertices.
    Either way nu, tau, nu* and tau* of the instance equal those of the
    family: intersections are witnessed at endpoints, and optimal covers may
    be slid onto right endpoints.  A `TwInstance` becomes the "abstract"
    instance of its subgraphs over the graph's vertices.
    """
    if isinstance(family, DIntervalFamily):
        denominators = {
            x.denominator for edge in family.edges for part in edge.parts for x in (part.lo, part.hi)
        }
        scale = lcm(*denominators)
        factor = {den: scale // den for den in denominators}
        spans = [
            [
                (
                    part.lo.numerator * factor[part.lo.denominator],
                    part.hi.numerator * factor[part.hi.denominator],
                )
                for part in edge.parts
            ]
            for edge in family.edges
        ]
        values = sorted({v for span in spans for pair in span for v in pair})
        rank = {v: i for i, v in enumerate(values)}
        ranges = [[(rank[lo], rank[hi]) for lo, hi in span] for span in spans]
        edges = tuple(
            frozenset().union(*[range(lo, hi + 1) for lo, hi in parts]) for parts in ranges
        )
        instance = HypergraphInstance(ground_size=max(1, len(rank)), edges=edges, provenance="interval")
        # a part's ids are one run of bits, and the parts of an edge are disjoint
        masks = tuple(sum((1 << hi + 1) - (1 << lo) for lo, hi in parts) for parts in ranges)
        object.__setattr__(instance, "edge_masks", masks)
        return instance
    if isinstance(family, SubforestFamily):
        edges = tuple(frozenset(e.vertices) for e in family.edges)
        return HypergraphInstance(ground_size=family.host.n, edges=edges, provenance="tree")
    from .treewidth import TwInstance  # treewidth imports this module

    if isinstance(family, TwInstance):
        return HypergraphInstance(ground_size=family.graph.n, edges=family.subgraphs)
    raise TypeError(f"cannot discretize {type(family).__name__}")

