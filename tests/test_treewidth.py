from collections import Counter

import pytest

from dpierce import (
    GenConfig,
    Graph,
    HostTree,
    InvalidDecomposition,
    NotACover,
    SubforestFamily,
    TreeDecomposition,
    TwInstance,
    covering_number,
    dumps_instance,
    lift_cover,
    lift_family,
    loads_instance,
    random_tw_graph,
    to_incidence,
    validate_decomposition,
)
from dpierce.model import HypergraphInstance, connected_components
from helpers import reference_lift_edges, reference_validate_decomposition


def path3():
    return Graph(n=3, edges=((0, 1), (1, 2)))


def square():
    return Graph(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)))


def square_dec():
    return TreeDecomposition(
        tree=HostTree(n=2, edges=((0, 1),)),
        bags=(frozenset({0, 1, 2}), frozenset({0, 2, 3})),
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_valid_path_decomposition():
    dec = TreeDecomposition(
        tree=HostTree(n=2, edges=((0, 1),)),
        bags=(frozenset({0, 1}), frozenset({1, 2})),
    )
    assert validate_decomposition(path3(), dec) == []
    assert dec.width == 1  # the largest bag size minus 1


def test_missing_edge_reported():
    dec = TreeDecomposition(
        tree=HostTree(n=2, edges=((0, 1),)),
        bags=(frozenset({0, 1}), frozenset({2})),
    )
    problems = validate_decomposition(path3(), dec)
    assert any("edge (1,2)" in p for p in problems)


def test_square_decomposition_valid():
    assert validate_decomposition(square(), square_dec()) == []


def test_running_intersection_violation():
    # vertex 0 in bags 0 and 2, absent from the middle bag on the path
    dec = TreeDecomposition(
        tree=HostTree(n=3, edges=((0, 1), (1, 2))),
        bags=(frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
    )
    problems = validate_decomposition(path3(), dec)
    assert any("disconnected" in p for p in problems)


def test_bags_of_a_vertex_disconnected_on_a_path():
    # vertex 1 of the path 0-1-2 sits in bags 0 and 2 but not in the middle
    # bag 1: every vertex is in a bag and every edge inside one, so only the
    # count of running intersection is off
    dec = TreeDecomposition(
        tree=HostTree(n=3, edges=((0, 1), (1, 2))),
        bags=(frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})),
    )
    assert validate_decomposition(path3(), dec) == [
        "bags containing vertex 1 are disconnected: no path of v-bags joins bag 0 and bag 2"
    ]


def test_missing_vertex_reported():
    dec = TreeDecomposition(
        tree=HostTree(n=1, edges=()),
        bags=(frozenset({0, 1}),),
    )
    problems = validate_decomposition(path3(), dec)
    assert any("vertex 2" in p for p in problems)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_two_component_subgraph_becomes_connected():
    lifted = lift_family(square(), square_dec(), [{1, 3}], d=2)
    assert lifted.family.edges[0] == frozenset({0, 1})
    comps = connected_components(lifted.family.host.adjacency(), lifted.family.edges[0])
    assert len(comps) == 1


def test_lift_full_bag_and_everything():
    lifted = lift_family(square(), square_dec(), [{0, 1, 2}, {0, 1, 2, 3}], d=1)
    assert lifted.family.edges[0] >= frozenset({0})
    assert lifted.family.edges[1] == frozenset({0, 1})


def test_lift_rejects_invalid_decomposition():
    bad = TreeDecomposition(
        tree=HostTree(n=1, edges=()),
        bags=(frozenset({0}),),
    )
    with pytest.raises(InvalidDecomposition):
        lift_family(square(), bad, [{0}], d=1)


def path5_dec():
    """The path 0-1-2-3-4 with bags {0,1}, {1,2}, {2,3}, {3,4} along a path."""
    graph = Graph(n=5, edges=((0, 1), (1, 2), (2, 3), (3, 4)))
    tree = HostTree(n=4, edges=((0, 1), (1, 2), (2, 3)))
    return graph, TreeDecomposition(tree=tree, bags=tuple(frozenset({i, i + 1}) for i in range(4)))


@pytest.mark.parametrize(
    "subgraphs, d, error, message",
    [
        # the ends of the path lift to bags 0 and 3: two components
        ([{1, 2}, {0, 4}], 1, ValueError, r"subgraphs\[1\]: induces 2 components > d=1"),
        ([{1, 2}], 0, ValueError, "d: must be positive, got 0"),
        ([{1}, {9}], 2, InvalidDecomposition, "subgraph 1 meets no bag"),
    ],
)
def test_lift_rejects_a_bad_subgraph(subgraphs, d, error, message):
    graph, dec = path5_dec()
    with pytest.raises(error, match=message):
        lift_family(graph, dec, subgraphs, d=d)
    # the lifted family's own check gives the same message for too many components
    if error is ValueError and d > 0:
        lifted = [{i for i, bag in enumerate(dec.bags) if bag & h} for h in subgraphs]
        with pytest.raises(ValueError, match=message):
            SubforestFamily(host=dec.tree, d=d, edges=lifted)


def test_lift_names_a_vertex_outside_the_graph():
    # [0, 9] meets bag 0 through vertex 0, but vertex 9 is not in the graph
    graph, dec = path5_dec()
    message = r"^subgraphs\[1\]\[1\]: vertex 9 outside graph 0\.\.4$"
    with pytest.raises(ValueError, match=message):
        lift_family(graph, dec, [{1}, [0, 9]], d=2)
    # the tree-width family's member check words it the same way
    with pytest.raises(ValueError, match=message):
        TwInstance(graph=graph, decomposition=dec, subgraphs=({1}, [0, 9]), d=2)


def test_lifted_family_equals_the_checked_one():
    for seed in range(10):
        tw = random_tw_graph(GenConfig(seed=seed, host_size=7, n_edges=6, d=2), 2)
        family = lift_family(tw.graph, tw.decomposition, tw.subgraphs, d=tw.d).family
        checked = SubforestFamily(host=family.host, d=family.d, edges=family.edges)
        assert family == checked and hash(family) == hash(checked)
        assert type(family.edges) is tuple and all(type(e) is frozenset for e in family.edges)


def test_lift_preserves_intersections():
    # if q subgraphs share vertex v, their lifts share every bag holding v
    for seed in range(10):
        tw = random_tw_graph(GenConfig(seed=seed, host_size=7, n_edges=6, d=2), 2)
        lifted = lift_family(tw.graph, tw.decomposition, tw.subgraphs, d=tw.d)
        bags = tw.decomposition.bags
        for a in range(len(tw.subgraphs)):
            for b in range(a + 1, len(tw.subgraphs)):
                shared = tw.subgraphs[a] & tw.subgraphs[b]
                for v in shared:
                    holding = {i for i, bag in enumerate(bags) if v in bag}
                    assert holding <= lifted.family.edges[a]
                    assert holding <= lifted.family.edges[b]


def test_lift_component_counts_never_grow():
    for seed in range(10):
        tw = random_tw_graph(GenConfig(seed=seed + 30, host_size=8, n_edges=6, d=3), 2)
        lifted = lift_family(tw.graph, tw.decomposition, tw.subgraphs, d=tw.d)
        g_adj = tw.graph.adjacency()
        t_adj = tw.decomposition.tree.adjacency()
        for src, edge in zip(tw.subgraphs, lifted.family.edges):
            src_c = len(connected_components(g_adj, src))
            lift_c = len(connected_components(t_adj, edge))
            assert lift_c <= src_c <= tw.d


# ---------------------------------------------------------------------------
# cover lifting
# ---------------------------------------------------------------------------

def test_lift_cover_square_example():
    dec = square_dec()
    out = lift_cover(dec, [0], [{1, 3}])
    assert out == frozenset({0, 1, 2})
    assert len(out) <= dec.width + 1


def test_lift_cover_empty():
    assert lift_cover(square_dec(), [], []) == frozenset()


def test_lift_cover_rejects_non_cover():
    with pytest.raises(NotACover):
        lift_cover(square_dec(), [0], [{3}])  # bag 0 misses vertex 3


def test_lift_chain_end_to_end():
    for seed in range(10):
        tw = random_tw_graph(GenConfig(seed=seed + 60, host_size=8, n_edges=6, d=2), 2)
        lifted = lift_family(tw.graph, tw.decomposition, tw.subgraphs, d=tw.d)
        lifted_inst = to_incidence(lifted.family)
        tau_lifted = covering_number(lifted_inst)
        cover = lift_cover(tw.decomposition, tau_lifted.witness, tw.subgraphs)
        assert len(cover) <= (tw.decomposition.width + 1) * tau_lifted.optimum
        # the pulled-back cover really pierces the source family
        for h in tw.subgraphs:
            assert cover & h
        # and tau of the source cannot exceed the pulled-back cover size
        source_inst = HypergraphInstance(
            ground_size=tw.graph.n, edges=tw.subgraphs, provenance="abstract"
        )
        assert to_incidence(tw) == source_inst
        assert covering_number(source_inst).optimum <= len(cover)


def test_tw_instance_validates_in_memory():
    # what the file loader rejects cannot be built in memory either
    graph, dec = path3(), TreeDecomposition(
        tree=HostTree(n=2, edges=((0, 1),)),
        bags=(frozenset({0, 1}), frozenset({1, 2})),
    )
    with pytest.raises(ValueError, match=r"^subgraphs\[0\]: induces 2 components > d=1"):
        TwInstance(graph, dec, (frozenset({0, 2}),), d=1)
    with pytest.raises(ValueError, match="^d: must be positive, got 0"):
        TwInstance(graph, dec, (frozenset({0}),), d=0)
    with pytest.raises(ValueError, match=r"^subgraphs\[1\]\[1\]: vertex 3 outside graph 0..2"):
        TwInstance(graph, dec, ([0], [1, 3]), d=1)
    with pytest.raises(ValueError, match=r"^subgraphs\[1\]: subgraph must be nonempty"):
        TwInstance(graph, dec, ([0], []), d=1)
    # vertex 2 is in no bag and edge (1,2) in none: no TW_TAU check may
    # run over this decomposition
    bad = TreeDecomposition(tree=HostTree(n=2, edges=((0, 1),)), bags=({0, 1}, {0}))
    with pytest.raises(InvalidDecomposition, match="^vertex 2 appears in no bag$"):
        TwInstance(graph, bad, ({0, 1}, {1, 2}), d=1)
    with pytest.raises(ValueError, match="^bag 1 is empty$"):
        TreeDecomposition(tree=HostTree(n=2, edges=((0, 1),)), bags=({0, 1, 2}, ()))
    # equal to vertices 1 and 2, these bags would otherwise pass validation
    with pytest.raises(ValueError, match=r"^bags\[0\]: vertex True is not an int$"):
        TreeDecomposition(tree=HostTree(n=2, edges=((0, 1),)), bags=({0, True}, {1, 2.0}))
    tw = TwInstance(graph, dec, ([0, 2], [1]), d=2)
    assert tw.subgraphs == (frozenset({0, 2}), frozenset({1}))
    assert loads_instance(dumps_instance(tw)) == tw


# ---------------------------------------------------------------------------
# the counting identity and the mask lift against the per-vertex walks
# ---------------------------------------------------------------------------

def _tw_cases():
    for width in (1, 2, 3):
        for seed in range(12):
            yield random_tw_graph(GenConfig(seed=seed, host_size=7, n_edges=5, d=2), width)


def _with_bags(dec, bags):
    return TreeDecomposition(tree=dec.tree, bags=tuple(bags))


def _without_leaf(dec, leaf):
    """`dec` with the leaf `leaf` of its tree and its bag removed, later nodes renumbered."""
    def rename(i):
        return i - (i > leaf)

    edges = tuple((rename(a), rename(b)) for a, b in dec.tree.edges if leaf not in (a, b))
    return TreeDecomposition(
        tree=HostTree(n=dec.tree.n - 1, edges=edges), bags=dec.bags[:leaf] + dec.bags[leaf + 1:]
    )


def _mutations(graph, dec):
    """Broken copies of a valid decomposition of `graph`."""
    bags = list(dec.bags)
    degree = Counter(i for edge in dec.tree.edges for i in edge)
    # a vertex dropped from a bag: from a middle bag it splits the vertex's bags
    for i, bag in enumerate(bags):
        if len(bag) > 1:
            for v in sorted(bag):
                yield _with_bags(dec, bags[:i] + [bag - {v}] + bags[i + 1:])
    # unknown vertices: one past the graph, and -1 in the first and last bags
    yield _with_bags(dec, [bags[0] | {graph.n}] + bags[1:])
    if len(bags) > 1:
        yield _with_bags(dec, [bags[0] | {-1}] + bags[1:-1] + [bags[-1] | {-1}])
    # a leaf's bag removed: the edges and vertices only it held are lost
    leaves = [i for i in range(dec.tree.n) if degree[i] == 1]
    for leaf in leaves:
        yield _without_leaf(dec, leaf)
    # several failures at once: the lowest vertex dropped from every middle
    # bag, unknown vertices in two bags, and a leaf removed
    middle = [i for i in range(len(bags)) if degree[i] > 1]
    several = [bag - {min(bag)} if i in middle and len(bag) > 1 else bag for i, bag in enumerate(bags)]
    several[0] |= {graph.n + 3, -2}
    several[-1] |= {graph.n + 3}
    broken = _with_bags(dec, several)
    yield broken
    if leaves:
        yield _without_leaf(broken, leaves[-1])


def test_validation_messages_equal_the_per_vertex_walk():
    seen = Counter()
    for tw in _tw_cases():
        assert validate_decomposition(tw.graph, tw.decomposition) == []
        for dec in _mutations(tw.graph, tw.decomposition):
            problems = validate_decomposition(tw.graph, dec)
            assert problems == reference_validate_decomposition(tw.graph, dec)
            kinds = {
                kind for kind in ("appears in no bag", "unknown", "disconnected", "inside no bag")
                if any(kind in p for p in problems)
            }
            seen.update(kinds)
            seen["several"] += len(kinds) >= 3
    # every kind of failure is met, and often several kinds in one list
    assert min(seen.values()) >= 10, seen


def test_lift_equals_the_per_vertex_lift():
    # edges, or the exception and its message, equal those of the walk on
    # valid and broken decompositions, bad subgraphs and every d
    compared = Counter()
    for tw in _tw_cases():
        graph, n = tw.graph, tw.graph.n
        families = [
            tw.subgraphs,
            [*tw.subgraphs, {n}],  # meets no bag
            [*tw.subgraphs, [0, n + 1]],  # meets a bag, holds a vertex outside the graph
            [*tw.subgraphs, [-1, 0]],
            [set(range(n))],
        ]
        decs = [tw.decomposition, *_mutations(graph, tw.decomposition)]
        for dec in decs:
            for subgraphs in families:
                for d in (0, 1, 2, 3):
                    got = _outcome(lambda: list(lift_family(graph, dec, subgraphs, d).family.edges))
                    want = _outcome(lambda: reference_lift_edges(graph, dec, subgraphs, d))
                    assert got == want
                    compared[got[0] if isinstance(got, tuple) else "lifted"] += 1
    assert compared["lifted"] > 50 and len(compared) == 3, compared


def _outcome(run):
    try:
        return run()
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("given", [[2, True], [True, 2], [0, 1.0], [0, "1"], {True, 2}])
def test_lift_refuses_a_vertex_that_is_not_an_int(given):
    # True would lift as vertex 1; the tree-width family refuses it alike
    with pytest.raises(ValueError, match=r"^subgraphs\[0\]\[\d\]: vertex .* is not an int$") as lifted:
        lift_family(path3(), _path3_dec(), [given], d=1)
    with pytest.raises(ValueError) as checked:
        TwInstance(path3(), _path3_dec(), (given,), d=1)
    assert str(lifted.value) == str(checked.value)


def _path3_dec():
    return TreeDecomposition(
        tree=HostTree(n=2, edges=((0, 1),)),
        bags=(frozenset({0, 1}), frozenset({1, 2})),
    )


@pytest.mark.parametrize(
    "cover, message",
    [
        ([0.0], r"^bag id 0\.0 is not an int$"),
        (["a"], r"^bag id 'a' is not an int$"),
        ([0, "a"], r"^bag id 'a' is not an int$"),
        ([True], r"^bag id True is not an int$"),
        ([0, 2], r"^bag id 2 out of range$"),
        ([-1], r"^bag id -1 out of range$"),
    ],
)
def test_lift_cover_refuses_a_bad_bag_id(cover, message):
    with pytest.raises(ValueError, match=message):
        lift_cover(square_dec(), cover, [{1, 3}])
