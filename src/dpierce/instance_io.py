"""JSON instance files: the single on-disk format every module shares.

Three document types are accepted (discriminated by "type"):

* ``d_intervals``    {"type":"d_intervals","d":2,"edges":[[["0","3/2"],["2","4"]],...]}
* ``tree_subgraphs`` {"type":"tree_subgraphs","d":2,"tree":{"n":4,"edges":[[0,1],...]},"subgraphs":[[0,1],...]}
* ``tw_graph``       {"type":"tw_graph","d":2,"k":2,"graph":{"n":5,"edges":[[0,1],...]},
                      "bags":[[0,1,2],...],"bag_tree":[[0,1],...],"subgraphs":[[1,3],...]}

Rationals travel as strings, "num/den" or a bare integer string.  Any
malformed field or violated model invariant is rejected with an
InstanceFormatError naming the exact JSON path.  The ``subgraphs`` of a
``tree_subgraphs`` and of a ``tw_graph`` document are read as the same
objects, frozensets of host vertices, and checked by the same function, so
their errors read alike: ``subgraphs[1][0]: vertex 5 outside graph 0..2``.
Likewise the ``tree`` of a ``tree_subgraphs`` document and the ``graph`` of
a ``tw_graph`` document are one ``{n, edges}`` object, read by one reader
into one class (a ``HostTree`` is a ``Graph`` that is a tree), so their
errors differ only in the prefix: ``tree: edge (0,5) out of range 0..2``.
Every edge list (``tree.edges``, ``graph.edges``, ``bag_tree``) keeps the
order of the file, each pair written (min, max), so a file written by
`dumps_instance` reads back and writes out byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .model import (
    DInterval,
    DIntervalFamily,
    Graph,
    HostTree,
    Interval,
    SubforestFamily,
)
from .treewidth import InvalidDecomposition, TreeDecomposition, TwInstance


class InstanceFormatError(ValueError):
    """Malformed or invariant-violating instance document."""


def _want(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise InstanceFormatError(f"{path}: {message}")


def _int(value, path: str) -> int:
    _want(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    return value


def _list(value, path: str) -> list:
    _want(isinstance(value, list), path, "expected an array")
    return value


def _rational(value, path: str) -> Fraction:
    _want(isinstance(value, str), path, 'expected a rational string like "3/4" or "-2"')
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"{path}: not a rational: {exc}") from None


def _vertex_pairs(value, path: str) -> list[tuple[int, int]]:
    pairs = []
    for i, item in enumerate(_list(value, path)):
        pair = _list(item, f"{path}[{i}]")
        _want(len(pair) == 2, f"{path}[{i}]", "expected a pair [u, v]")
        pairs.append((_int(pair[0], f"{path}[{i}][0]"), _int(pair[1], f"{path}[{i}][1]")))
    return pairs


def _vertex_sets(value, path: str) -> list[list[int]]:
    out = []
    for i, item in enumerate(_list(value, path)):
        vs = _list(item, f"{path}[{i}]")
        out.append([_int(v, f"{path}[{i}][{j}]") for j, v in enumerate(vs)])
    return out


def _graph(doc, key: str, cls: type[Graph]) -> Graph:
    """The `{n, edges}` object `doc[key]` as a `cls` (a `Graph` or a `HostTree`)."""
    raw = doc.get(key)
    _want(isinstance(raw, dict), key, "expected an object {n, edges}")
    n = _int(raw.get("n"), f"{key}.n")
    edges = _vertex_pairs(raw.get("edges"), f"{key}.edges")
    try:
        return cls(n=n, edges=tuple(edges))
    except ValueError as exc:
        raise InstanceFormatError(f"{key}: {exc}") from None


def loads_instance(text: str) -> DIntervalFamily | SubforestFamily | TwInstance:
    """Parse and fully validate one instance document from a JSON string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return from_json_dict(doc)


def load_instance(path) -> DIntervalFamily | SubforestFamily | TwInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())


def from_json_dict(doc) -> DIntervalFamily | SubforestFamily | TwInstance:
    _want(isinstance(doc, dict), "$", "expected a JSON object")
    kind = doc.get("type")
    if kind == "d_intervals":
        return _load_intervals(doc)
    if kind == "tree_subgraphs":
        return _load_subforests(doc)
    if kind == "tw_graph":
        return _load_tw(doc)
    raise InstanceFormatError(
        f'type: expected "d_intervals", "tree_subgraphs" or "tw_graph", got {kind!r}'
    )


def _load_intervals(doc) -> DIntervalFamily:
    d = _int(doc.get("d"), "d")
    _want(d >= 1, "d", f"must be positive, got {d}")
    edges = []
    for i, raw_edge in enumerate(_list(doc.get("edges"), "edges")):
        parts = []
        for j, raw_part in enumerate(_list(raw_edge, f"edges[{i}]")):
            pair = _list(raw_part, f"edges[{i}][{j}]")
            _want(len(pair) == 2, f"edges[{i}][{j}]", 'expected ["lo","hi"]')
            lo = _rational(pair[0], f"edges[{i}][{j}][0]")
            hi = _rational(pair[1], f"edges[{i}][{j}][1]")
            _want(lo <= hi, f"edges[{i}][{j}]", f"lo {lo} exceeds hi {hi}")
            parts.append(Interval(lo, hi))
        parts.sort(key=lambda p: (p.lo, p.hi))
        try:
            edges.append(DInterval(tuple(parts)))
        except ValueError as exc:
            raise InstanceFormatError(f"edges[{i}]: {exc}") from None
    try:
        return DIntervalFamily(d=d, edges=tuple(edges))
    except ValueError as exc:
        raise InstanceFormatError(f"edges: {exc}") from None


def _load_subforests(doc) -> SubforestFamily:
    d = _int(doc.get("d"), "d")
    host = _graph(doc, "tree", HostTree)
    subgraphs = _vertex_sets(doc.get("subgraphs"), "subgraphs")
    try:
        # the raw vertex lists, so that an error names a vertex's position
        return SubforestFamily(host=host, d=d, edges=tuple(subgraphs))
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def _load_tw(doc) -> TwInstance:
    d = _int(doc.get("d"), "d")
    k = _int(doc.get("k"), "k")
    _want(k >= 0, "k", f"must be nonnegative, got {k}")
    graph = _graph(doc, "graph", Graph)

    bags = _vertex_sets(doc.get("bags"), "bags")
    bag_tree_edges = _vertex_pairs(doc.get("bag_tree"), "bag_tree")
    try:
        tree = HostTree(n=len(bags), edges=tuple(bag_tree_edges))
    except ValueError as exc:
        raise InstanceFormatError(f"bag_tree: {exc}") from None
    try:
        dec = TreeDecomposition(tree=tree, bags=tuple(bags))
    except ValueError as exc:
        raise InstanceFormatError(f"bags: {exc}") from None
    _want(dec.width <= k, "bags", f"max bag size - 1 = {dec.width} exceeds k = {k}")

    subgraphs = _vertex_sets(doc.get("subgraphs"), "subgraphs")
    try:
        # the raw vertex lists, so that an error names a vertex's position
        return TwInstance(graph=graph, decomposition=dec, subgraphs=tuple(subgraphs), d=d)
    except InvalidDecomposition as exc:
        raise InstanceFormatError(f"bags: {exc}") from None
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_json_dict(obj) -> dict:
    if isinstance(obj, DIntervalFamily):
        return {
            "type": "d_intervals",
            "d": obj.d,
            "edges": [
                [[str(p.lo), str(p.hi)] for p in e.parts]
                for e in obj.edges
            ],
        }
    if isinstance(obj, SubforestFamily):
        return {
            "type": "tree_subgraphs",
            "d": obj.d,
            "tree": {"n": obj.host.n, "edges": [list(e) for e in obj.host.edges]},
            "subgraphs": [sorted(e) for e in obj.edges],
        }
    if isinstance(obj, TwInstance):
        return {
            "type": "tw_graph",
            "d": obj.d,
            "k": obj.decomposition.width,
            "graph": {"n": obj.graph.n, "edges": [list(e) for e in obj.graph.edges]},
            "bags": [sorted(b) for b in obj.decomposition.bags],
            "bag_tree": [list(e) for e in obj.decomposition.tree.edges],
            "subgraphs": [sorted(h) for h in obj.subgraphs],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_instance(obj) -> str:
    return json.dumps(to_json_dict(obj), sort_keys=True, separators=(",", ":")) + "\n"


def dump_instance(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(obj))
