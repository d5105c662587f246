"""Tree decompositions: validation and the lifting argument.

A subgraph family over a graph of tree-width k transports to a subforest
family over the decomposition tree (each edge becomes the set of bags it
meets), covers of the lifted family pull back to vertex covers of the
source by taking the union of the chosen bags, and the blow-up is at most
the bag size k+1.

A `TwInstance` validates its decomposition when it is built, so no
`TW_TAU` check runs over an invalid one, and checks its subgraphs with the
function that checks a `SubforestFamily`'s members: both are frozensets of
host vertices inducing at most d components.  The graph and the
decomposition tree are both `model.Graph`s (the tree a `HostTree`); this
module defines no graph class of its own.  `lift_family` takes a bare
graph and decomposition and validates them itself.

Validation and the lift work on bag masks: holding[v], the bitmask of the
bags that hold vertex v, decides whether an edge is inside a bag, and a
subgraph lifts to the OR of its vertices' masks.  Running intersection is
one count over the bags and the tree edges; only a decomposition that
fails it is walked vertex by vertex, to name the disconnected vertices.
Components are counted on neighbour masks by `model._component_count`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Graph,
    HostTree,
    SubforestFamily,
    _checked_subgraphs,
    _component_count,
    _require_int_d,
    connected_components,
    mask_points,
)


class InvalidDecomposition(ValueError):
    """A tree decomposition fails validation for its graph."""


class NotACover(ValueError):
    """The supplied bag set does not cover the lifted family."""


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree whose node i carries bag i, a nonempty set of graph vertices.

    The vertices are ints (bool is rejected); their range is checked against
    a graph by `validate_decomposition`.
    """

    tree: HostTree
    bags: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "bags", tuple(frozenset(b) for b in self.bags))
        if len(self.bags) != self.tree.n:
            raise ValueError(
                f"{len(self.bags)} bags for a tree on {self.tree.n} nodes"
            )
        for i, bag in enumerate(self.bags):
            if not bag:
                raise ValueError(f"bag {i} is empty")
            for v in bag:
                if type(v) is not int:
                    raise ValueError(f"bags[{i}]: vertex {v!r} is not an int")

    @property
    def width(self) -> int:
        """The largest bag size minus 1."""
        return max(len(b) for b in self.bags) - 1


@dataclass(frozen=True)
class LiftedFamily:
    """d-tree family over the decomposition tree; edge j lifts subgraph j."""

    family: SubforestFamily


@dataclass(frozen=True)
class TwInstance:
    """A graph with a valid decomposition and a subgraph family.

    A decomposition that fails `validate_decomposition` raises
    InvalidDecomposition with its first problem; its width is the instance's
    k.  Each subgraph is a nonempty set of graph vertices inducing at most
    d >= 1 components; it may be given as any collection and is stored frozen.
    """

    graph: Graph
    decomposition: TreeDecomposition
    subgraphs: tuple[frozenset[int], ...]
    d: int

    def __post_init__(self):
        problems = validate_decomposition(self.graph, self.decomposition)
        if problems:
            raise InvalidDecomposition(problems[0])
        object.__setattr__(
            self, "subgraphs", _checked_subgraphs(self.graph, self.subgraphs, self.d)
        )


def validate_decomposition(graph: Graph, dec: TreeDecomposition) -> list[str]:
    """All violations of the three decomposition properties.

    Returns human-readable messages naming the offending vertex, edge, or
    disconnected bag pair; an empty list means the decomposition is valid.
    The messages come in this order: vertices in no bag (increasing),
    unknown vertices the bags mention, vertices whose bags are
    disconnected (increasing), edges inside no bag (in the graph's order).

    Running intersection is checked by one count.  The bags B_v holding a
    vertex v span a forest of the tree with |B_v| - e_v >= 1 components,
    e_v the tree edges both of whose bags hold v; summed over the vertices
    of the bags, sum |bag| - sum over tree edges (i, j) of |bag_i & bag_j|
    equals the number of those vertices exactly when every B_v is
    connected.  Only when it does not is each vertex walked, by
    `connected_components`, to name the disconnected ones.  An edge is
    inside a bag when the masks of the bags holding its two ends meet.
    """
    return _validated(graph, dec)[1]


def _validated(graph: Graph, dec: TreeDecomposition) -> tuple[list[int], list[str]]:
    """(holding, problems): `validate_decomposition`'s problems, and the bag masks it reads.

    holding[v] is the bitmask of the bags that hold vertex v, for v in
    0..n-1; a vertex outside the graph has none.
    """
    n, bags = graph.n, dec.bags
    holding = [0] * n
    for i, bag in enumerate(bags):
        bit = 1 << i
        for v in bag:
            if 0 <= v < n:
                holding[v] |= bit
    problems = []
    covered = set().union(*bags)
    missing = holding.count(0)
    if missing:
        problems += [f"vertex {v} appears in no bag" for v in range(n) if not holding[v]]
    if len(covered) != n - missing:
        problems += [f"bags mention unknown vertex {v}" for v in covered if not 0 <= v < n]

    shared = sum(len(bags[i] & bags[j]) for i, j in dec.tree.edges)
    if sum(map(len, bags)) - shared != len(covered):
        adj = dec.tree.adjacency()
        for v in sorted(covered):
            comps = connected_components(adj, [i for i, bag in enumerate(bags) if v in bag])
            if len(comps) > 1:
                a = min(comps[0])
                b = min(comps[1])
                problems.append(
                    f"bags containing vertex {v} are disconnected: "
                    f"no path of v-bags joins bag {a} and bag {b}"
                )

    for u, v in graph.edges:
        if not holding[u] & holding[v]:
            problems.append(f"edge ({u},{v}) is inside no bag")
    return holding, problems


def lift_family(
    graph: Graph,
    dec: TreeDecomposition,
    subgraphs,
    d: int,
) -> LiftedFamily:
    """Transport subgraphs of the host graph to subforests of the bag tree.

    The lift of h is the set of bags meeting h, and the lifted family has
    the given d >= 1.  Component counts never grow (each connected piece of
    h meets a connected set of bags), which is asserted per edge;
    intersections are preserved, since q subgraphs sharing a vertex v lift
    to subforests sharing every bag containing v.  A vertex that is not an
    int (bool included), or a subgraph that meets a bag but holds a vertex
    outside the graph, is a `ValueError` worded as `_checked_subgraphs`
    words it.

    The lift works on masks: the lifted edge is the OR of the masks of the
    bags holding each of h's vertices, which `validate_decomposition`
    builds on the way, and both h's and its lift's components are counted
    by `model._component_count`, on the graph's and the tree's neighbour
    masks.  Each lifted edge's components are counted once, for that
    assertion and for the d-tree limit (`ValueError` as `SubforestFamily`
    raises it), so the family is built without its member check.  A d
    that is not an int, bool included, is refused as `_checked_subgraphs`
    refuses it.
    """
    _require_int_d(d)
    if d < 1:
        raise ValueError(f"d: must be positive, got {d}")
    holding, problems = _validated(graph, dec)
    if problems:
        raise InvalidDecomposition(problems[0])
    n = graph.n
    graph_neighbours = graph.neighbour_masks()
    tree_neighbours = dec.tree.neighbour_masks()
    edges = []
    for idx, given in enumerate(subgraphs):
        source = lifted = 0
        outside = None
        for j, v in enumerate(given):
            if type(v) is not int:
                raise ValueError(f"subgraphs[{idx}][{j}]: vertex {v!r} is not an int")
            if 0 <= v < n:
                source |= 1 << v
                lifted |= holding[v]
            elif outside is None:
                outside = f"subgraphs[{idx}][{j}]: vertex {v} outside graph 0..{n - 1}"
        if not lifted:
            raise InvalidDecomposition(
                f"subgraph {idx} meets no bag (vertices outside the graph?)"
            )
        if outside is not None:
            raise ValueError(outside)
        ncomp = _component_count(tree_neighbours, lifted)
        nsource = _component_count(graph_neighbours, source)
        if ncomp > nsource:
            raise AssertionError(
                f"lift of subgraph {idx} has {ncomp} components, source has {nsource}"
            )
        if ncomp > d:
            raise ValueError(f"subgraphs[{idx}]: induces {ncomp} components > d={d}")
        edges.append(frozenset(mask_points(lifted)))
    return LiftedFamily(family=SubforestFamily._unchecked(dec.tree, d, tuple(edges)))


def lift_cover(dec: TreeDecomposition, cover, subgraphs) -> frozenset[int]:
    """Pull a bag cover of the lifted family back to a vertex set.

    Re-checks the precondition (every subgraph meets some chosen bag) and
    independently re-verifies that the returned union meets every source
    subgraph; the size is at most (width+1) * |cover| by construction.  A
    bag id that is not an int (bool included) or not a node of the tree is
    a `ValueError` naming it.
    """
    given = list(cover)
    for i in given:
        if type(i) is not int:
            raise ValueError(f"bag id {i!r} is not an int")
    cover = sorted(set(given))
    for i in cover:
        if not (0 <= i < len(dec.bags)):
            raise ValueError(f"bag id {i} out of range")
    union: set[int] = set()
    for i in cover:
        union |= dec.bags[i]
    for idx, h in enumerate(subgraphs):
        h = frozenset(h)
        if not any(dec.bags[i] & h for i in cover):
            raise NotACover(f"no chosen bag meets subgraph {idx}")
        if not (union & h):
            raise NotACover(f"bag union misses subgraph {idx}")
    return frozenset(union)
