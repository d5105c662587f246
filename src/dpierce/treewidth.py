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
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Graph, HostTree, SubforestFamily, _checked_subgraphs, connected_components


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
    to subforests sharing every bag containing v.  A subgraph that meets a
    bag but holds a vertex outside the graph is a `ValueError` worded as
    `_checked_subgraphs` words it.  Each lifted edge's
    components are counted once, for that assertion and for the d-tree
    limit (`ValueError` as `SubforestFamily` raises it), so the family is
    built without its member check.
    """
    if d < 1:
        raise ValueError(f"d: must be positive, got {d}")
    problems = validate_decomposition(graph, dec)
    if problems:
        raise InvalidDecomposition(problems[0])
    graph_adj = graph.adjacency()
    tree_adj = dec.tree.adjacency()
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
    return LiftedFamily(family=SubforestFamily._unchecked(dec.tree, d, tuple(edges)))


def lift_cover(dec: TreeDecomposition, cover, subgraphs) -> frozenset[int]:
    """Pull a bag cover of the lifted family back to a vertex set.

    Re-checks the precondition (every subgraph meets some chosen bag) and
    independently re-verifies that the returned union meets every source
    subgraph; the size is at most (width+1) * |cover| by construction.
    """
    cover = sorted(set(cover))
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
