"""Geometric and tree-based set families and their finite incidence form.

Two continuous/combinatorial families are supported:

* d-interval families: every edge is a union of at most d pairwise disjoint
  closed intervals with rational endpoints on one line.
* subforest (d-tree) families: every edge is a frozenset of vertices of a
  fixed host tree inducing at most d connected components.  The members of
  a tree-width family (`treewidth.TwInstance`) are the same objects over a
  graph, and `_checked_subgraphs` checks both.  The hosts are one class
  too: a `HostTree` is a `Graph` that is a tree, so the host of a d-tree
  family, the graph of a tree-width family and its decomposition tree share
  one edge rule and one set of checks.

Both reduce, without changing any of the four optimization quantities
(matching number, piercing number and their fractional relaxations), to a
`HypergraphInstance`: ground points and edges as point bitmasks, a
repeated member as a repeated edge.  All coordinates are exact rationals
(`fractions.Fraction`); a coordinate given as a string must read "num/den"
or a bare integer.  Nothing in this module touches floating point.  The
interval checks (lo <= hi, sorted and disjoint parts) compare the stored
Fractions by integer cross-multiplication of numerators and denominators.

An interval family is discretized in one integer pass: every endpoint is
read once, scaled by the lcm of the denominators and ranked, and the same
loop over parts builds each edge's mask and a difference list of point
loads, so the instance gets its depth r from that pass.  Every other
instance (tree, tree-width, PG, and any built by the constructor) counts
its depth on its masks with the bit-sliced `_deepest_point`, the first time
it is read.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm


# the one string form of a rational: an optional minus, digits, then optionally "/" and digits
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def rational(value) -> Fraction:
    """Coerce ints, strings like '3/4' or '-2', and Fractions to Fraction.

    A string must match `_RATIONAL` as a whole, so no sign but a minus, no
    decimal point, exponent, underscore or surrounding space; anything else
    is a ValueError, raised before `Fraction` reads the string.
    """
    if type(value) is Fraction or isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coordinate")
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        raise ValueError(f'{value!r} is not "num/den" or an integer')
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


# ---------------------------------------------------------------------------
# intervals on a line
# ---------------------------------------------------------------------------

def _before(x: Fraction, y: Fraction) -> bool:
    """x < y, by cross-multiplying with the positive denominators."""
    return x.numerator * y.denominator < y.numerator * x.denominator


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; lo == hi is a legal point-interval.

    Both endpoints are stored as Fractions (other `rational` inputs are
    coerced) and lo <= hi is checked by integer cross-multiplication.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction:
            lo = rational(lo)
            object.__setattr__(self, "lo", lo)
        if type(hi) is not Fraction:
            hi = rational(hi)
            object.__setattr__(self, "hi", hi)
        if _before(hi, lo):
            raise ValueError(f"interval has lo > hi: [{lo}, {hi}]")

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class DInterval:
    """A union of one or more pairwise disjoint closed intervals.

    Parts are kept sorted by left endpoint; disjointness of closed intervals
    means strictly positive gaps between consecutive parts.  Both are checked
    by one integer cross-multiplication per gap, a.hi < b.lo, which implies
    a.lo < b.lo; only a failing gap is tested for order, then disjointness.
    How many parts an edge may have is the family's d, checked by
    `DIntervalFamily`.
    """

    parts: tuple[Interval, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("edge needs at least one interval part")
        for i, (a, b) in enumerate(zip(parts, parts[1:])):
            if _before(a.hi, b.lo):
                continue
            if _before(b.lo, a.lo):
                raise ValueError(f"parts not sorted by lo at index {i}")
            raise ValueError(
                f"parts {i} and {i + 1} are not disjoint: "
                f"[{a.lo},{a.hi}] vs [{b.lo},{b.hi}]"
            )

    def contains(self, x: Fraction) -> bool:
        return any(p.contains(x) for p in self.parts)


def _require_int_d(d) -> None:
    """Refuse a d that is not an int, bool included, as `loads_instance` refuses it.

    So every family that is built writes a `"d"` its file can read back.
    """
    if type(d) is not int:
        raise ValueError(f"d: expected an integer, got {d!r}")


@dataclass(frozen=True)
class DIntervalFamily:
    """A finite family of d-intervals, the edges of an interval hypergraph.

    Every edge has at most d parts, d an int (bool is rejected).  General
    position (no endpoint value shared by two non-identical parts) is not
    recorded: it is a property of the edges, computed by
    `general_position_violations`.
    """

    d: int
    edges: tuple[DInterval, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        _require_int_d(self.d)
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
        for i, e in enumerate(self.edges):
            if len(e.parts) > self.d:
                raise ValueError(f"edges[{i}] has {len(e.parts)} parts > d={self.d}")

    def __len__(self) -> int:
        return len(self.edges)


def make_family(d: int, edges) -> DIntervalFamily:
    """Build a family from bare endpoint pairs.

    `edges` is an iterable of edges, each an iterable of (lo, hi) pairs in
    any `rational`-coercible form.
    """
    built = []
    for edge in edges:
        parts = sorted(
            (Interval(lo, hi) for lo, hi in edge),
            key=lambda p: (p.lo, p.hi),
        )
        built.append(DInterval(tuple(parts)))
    return DIntervalFamily(d=d, edges=tuple(built))


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


# ---------------------------------------------------------------------------
# host graphs, host trees and subforests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1 (not necessarily connected).

    Each edge is stored as (min, max), in the order given: a graph read
    from a file writes its edges back in the file's order.  n and the
    vertices are ints (bool is rejected).
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((min(u, v), max(u, v)) for u, v in self.edges)
        )
        if type(self.n) is not int:
            raise ValueError(f"n must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={self.n}")
        for i, (u, v) in enumerate(self.edges):
            for w in (u, v):
                if type(w) is not int:
                    raise ValueError(f"edges[{i}]: vertex {w!r} is not an int")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range 0..{self.n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def neighbour_masks(self) -> list[int]:
        """Entry v is the bitmask of v's neighbours, the input of `_component_count`."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks


@dataclass(frozen=True)
class HostTree(Graph):
    """A `Graph` that is a tree: n-1 edges, connected."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.edges) != self.n - 1:
            raise ValueError(f"tree on {self.n} vertices needs {self.n - 1} edges, got {len(self.edges)}")
        if _component_count(self.neighbour_masks(), (1 << self.n) - 1) != 1:
            raise ValueError("edge list is not connected")

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
    """Components of the subgraph induced on `vertices`, each sorted-min first.

    The components themselves, for a message that names them; a count
    alone is `_component_count`'s.
    """
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


def _component_count(neighbours: list[int], mask: int) -> int:
    """The number of components of the subgraph induced on the vertices of `mask`.

    `neighbours[v]` is the bitmask of v's neighbours (`Graph.neighbour_masks`).
    Each component is flooded from the lowest vertex left, a frontier at a
    time, and every vertex reached is taken out of `mask`, so each is
    expanded once.  This is the package's one component counter.
    """
    count = 0
    while mask:
        frontier = mask & -mask
        mask ^= frontier
        while frontier:
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= neighbours[low.bit_length() - 1]
                frontier ^= low
            frontier = reached & mask
            mask ^= frontier
        count += 1
    return count


def _checked_subgraphs(graph, subgraphs, d: int) -> tuple[frozenset[int], ...]:
    """The members of a d-tree or tree-width family, checked and frozen.

    `graph` is the host, a `Graph` (a `HostTree` for a d-tree family), and
    each member is any collection of its vertices: it must be nonempty, its
    vertices ints (bool is rejected) in 0..n-1, and it must induce at most
    d >= 1 components, d an int (bool is rejected).  A bad vertex is named
    by its position in the member as given.  Components are counted on the
    member's vertex mask.
    """
    _require_int_d(d)
    if d < 1:
        raise ValueError(f"d: must be positive, got {d}")
    n = graph.n
    neighbours = graph.neighbour_masks()
    members = []
    for i, h in enumerate(subgraphs):
        mask = 0
        for j, v in enumerate(h):
            if type(v) is not int:
                raise ValueError(f"subgraphs[{i}][{j}]: vertex {v!r} is not an int")
            if not (0 <= v < n):
                raise ValueError(f"subgraphs[{i}][{j}]: vertex {v} outside graph 0..{n - 1}")
            mask |= 1 << v
        h = frozenset(h)
        if not h:
            raise ValueError(f"subgraphs[{i}]: subgraph must be nonempty")
        ncomp = _component_count(neighbours, mask)
        if ncomp > d:
            raise ValueError(f"subgraphs[{i}]: induces {ncomp} components > d={d}")
        members.append(h)
    return tuple(members)


@dataclass(frozen=True)
class SubforestFamily:
    """Subgraphs of a host tree, each inducing at most d components.

    A member is a nonempty set of host vertices; it may be given as any
    collection (a list, a set) and is stored frozen.
    """

    host: HostTree
    d: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", _checked_subgraphs(self.host, self.edges, self.d))

    @classmethod
    def _unchecked(
        cls, host: HostTree, d: int, edges: tuple[frozenset[int], ...]
    ) -> SubforestFamily:
        """The family of `edges`, frozensets whose caller has already checked them.

        `treewidth.lift_family` builds its lifted family here: it counts each
        lifted edge's components itself.
        """
        family = object.__new__(cls)
        vars(family).update(host=host, d=d, edges=edges)
        return family

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

    @property
    def pigeonhole_points(self) -> int:
        """The most points t whose meeting every edge forces the property: (p-1)//(q-1).

        Any p edges then put ceil(p/t) >= q of themselves on one of the t
        points, and ceil(p/t) >= q holds exactly when t*(q-1) < p.  It is
        at least 1, since p >= q.
        """
        return (self.p - 1) // (self.q - 1)


def _check_ground_and_provenance(ground_size, provenance) -> None:
    """The checks both `HypergraphInstance` entries share."""
    if type(ground_size) is not int:
        raise ValueError(f"ground_size must be an int, got {ground_size!r}")
    if ground_size < 1:
        raise ValueError(f"ground_size must be positive, got {ground_size}")
    if provenance not in ("interval", "tree", "abstract"):
        raise ValueError(f"unknown provenance {provenance!r}")


@dataclass(frozen=True, init=False, repr=False)
class HypergraphInstance:
    """Finite incidence form consumed by every solver.

    Edges are point-id sets over ground 0..ground_size-1, one per member of
    the family: a family is a multiset, and a repeated member is a repeated
    edge.  Point ids are ints (bool is rejected).  `provenance` names the
    family class the instance was built from, which decides the bound kinds
    that apply to it.  Each edge is stored only as its point bitmask in
    `edge_masks` (bit pt for point pt).  `edges`, the masks' points as
    frozensets, `max_depth` and the solvers' context are built the first
    time they are read and kept on the instance, except that an interval
    instance gets `max_depth` from `to_incidence`'s pass; equality and
    hashing see only the three fields, and an instance pickles through its
    constructor (which counts the depth again, on the masks, when read).

    Every instance the package builds itself (`to_incidence` for interval,
    tree and tree-width families, `projective_incidence` for PG(k,q)) comes
    from its edge masks through `_from_masks`, which checks each mask with
    0 < mask < 2**ground_size: that holds exactly when the mask is a
    nonempty set of points in the ground.  The constructor takes edges as
    point collections, checks every incidence (ints only, inside the
    ground, no empty edge) and builds the masks in the same pass; it is
    the entry for tests, API callers and unpickling.  Both check the
    ground size (an int, bool rejected, at least 1) and the provenance
    alike.
    """

    ground_size: int
    edge_masks: tuple[int, ...]
    provenance: str

    def __init__(self, ground_size: int, edges, provenance: str = "abstract"):
        _check_ground_and_provenance(ground_size, provenance)
        # one pass checks every incidence and builds the masks; the first bad point is named
        masks = []
        for i, e in enumerate(edges):
            m = 0
            for pt in e:
                if type(pt) is not int:
                    raise ValueError(f"edges[{i}]: point {pt!r} is not an int")
                if not (0 <= pt < ground_size):
                    raise ValueError(f"edges[{i}]: point {pt} outside ground 0..{ground_size - 1}")
                m |= 1 << pt
            if not m:
                raise ValueError(f"edges[{i}] is empty")
            masks.append(m)
        vars(self).update(ground_size=ground_size, edge_masks=tuple(masks), provenance=provenance)

    @cached_property
    def edges(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(mask_points(m)) for m in self.edge_masks)

    @cached_property
    def max_depth(self) -> tuple[int, int | None]:
        """(r, point): r the most edges, copies counted, through one point; the lowest such point."""
        return _deepest_point(self.edge_masks)

    @classmethod
    def _from_masks(
        cls, ground_size: int, masks, provenance: str, max_depth: tuple[int, int | None] | None = None
    ) -> HypergraphInstance:
        """The instance whose edge i is the point bitmask masks[i].

        A `max_depth` the caller has already counted on these masks is kept
        as the instance's, and then never recounted.
        """
        _check_ground_and_provenance(ground_size, provenance)
        masks = tuple(masks)
        full = 1 << ground_size
        for i, m in enumerate(masks):
            if not 0 < m < full:
                raise ValueError(
                    f"edges[{i}]: mask {m:#x} is not a nonempty set of points in ground "
                    f"0..{ground_size - 1}"
                )
        instance = object.__new__(cls)
        vars(instance).update(ground_size=ground_size, edge_masks=masks, provenance=provenance)
        if max_depth is not None:
            vars(instance)["max_depth"] = max_depth
        return instance

    def __repr__(self):
        fields = f"ground_size={self.ground_size!r}, edges={self.edges!r}, provenance={self.provenance!r}"
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # through the constructor: it validates again and rebuilds the masks,
        # and the cached depth and solve context never travel
        return type(self), (self.ground_size, self.edges, self.provenance)


_BYTE_BITS = [tuple(i for i in range(8) if v >> i & 1) for v in range(256)]


def mask_points(mask: int) -> list[int]:
    """The set bits of `mask`, lowest first, read a byte at a time."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * k + i for k, byte in enumerate(data) for i in _BYTE_BITS[byte]]


def _depth_layers(masks) -> list[int]:
    """Every point's load by `masks` as a bit-sliced counter, lowest bit first.

    Layer k holds bit k of each point's load, the number of masks through
    it, and each mask is added to the layers with a ripple carry.  The top
    layer is nonzero, and no masks give no layers.
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
    return layers


def _deepest_point(masks) -> tuple[int, int | None]:
    """(r, point) of `HypergraphInstance.max_depth`, from the edges' point bitmasks.

    r is read from the `_depth_layers` of the masks, top layer down,
    keeping the points that reach each bit of the maximum; the lowest of
    the points left is the deepest point.
    """
    layers = _depth_layers(masks)
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
    consumes, and every branch hands the edges' point bitmasks to
    `HypergraphInstance._from_masks`, with no point sets.  Intervals:
    ground points are the distinct endpoint values (every lo and hi) in
    increasing order, and each edge becomes the ids of the endpoints its
    parts contain.  The endpoints are ranked once, exactly, in integers:
    each x is scaled to x * L, L the lcm of all endpoint denominators, a
    strictly increasing map, so the sorted distinct integers give the ids
    of the sorted endpoints.  A part [lo, hi] then holds exactly the ids
    rank(lo)..rank(hi), and an edge's mask is the OR of its parts' runs of
    bits, (2 << hi) - (1 << lo).  Each endpoint is read once, through
    `Fraction.as_integer_ratio`, into one flat list.  In the same loop over
    the parts, each run adds +1 at rank(lo) and -1 at rank(hi) + 1 to a
    difference list; the parts of one edge are disjoint, so its running
    sum is every point's load, copies counted, and the instance's
    `max_depth` is its maximum r and the lowest point reaching r, with no
    recount from the masks.  Subforests: ground points are the host
    vertices, and an edge's mask is the OR of its member's vertices; a
    `TwInstance` becomes, the same way, the "abstract" instance of its
    subgraphs over the graph's vertices.  These two count their depth on
    their masks when it is first read, through `_deepest_point`.
    Either way nu, tau, nu* and tau* of the instance equal those of the
    family: a point slides right, inside every part containing it, to the
    nearest right endpoint among those parts, so intersections are witnessed
    at endpoints, optimal covers may be slid onto right endpoints, and the
    depth r is attained at an endpoint.
    """
    if isinstance(family, DIntervalFamily):
        # every endpoint read once, as numerator, denominator, lo then hi
        ends = []
        for edge in family.edges:
            for part in edge.parts:
                ends += part.lo.as_integer_ratio()
                ends += part.hi.as_integer_ratio()
        denominators = set(ends[1::2])
        scale = lcm(*denominators)
        factor = {den: scale // den for den in denominators}
        scaled = [num * factor[den] for num, den in zip(ends[0::2], ends[1::2])]
        values = sorted(set(scaled))
        ranks = list(map(dict(zip(values, range(len(values)))).__getitem__, scaled))
        # a part's run lo..hi adds 1 to the load of each of its points; parts of one edge are disjoint
        steps = [0] * (len(values) + 1)
        masks = []
        at = 0
        for edge in family.edges:
            mask = 0
            for _ in edge.parts:
                lo, hi = ranks[at], ranks[at + 1]
                at += 2
                mask |= (2 << hi) - (1 << lo)
                steps[lo] += 1
                steps[hi + 1] -= 1
            masks.append(mask)
        depth = (0, None)
        if masks:
            loads = list(accumulate(steps))
            r = max(loads)
            depth = (r, loads.index(r))
        return HypergraphInstance._from_masks(max(1, len(values)), masks, "interval", depth)
    # tested before the import, which would otherwise run on every tree family
    if isinstance(family, SubforestFamily):
        ground_size, members, provenance = family.host.n, family.edges, "tree"
    else:
        from .treewidth import TwInstance  # treewidth imports this module

        if not isinstance(family, TwInstance):
            raise TypeError(f"cannot discretize {type(family).__name__}")
        ground_size, members, provenance = family.graph.n, family.subgraphs, "abstract"
    masks = []
    for member in members:
        mask = 0
        for v in member:
            mask |= 1 << v
        masks.append(mask)
    return HypergraphInstance._from_masks(ground_size, masks, provenance)
