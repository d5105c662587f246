import itertools
import pickle
import random
import re
from fractions import Fraction

import pytest

from dpierce import (
    DInterval,
    DIntervalFamily,
    Graph,
    HostTree,
    HypergraphInstance,
    Interval,
    PQParameters,
    ProjectiveParams,
    SubforestFamily,
    TreeDecomposition,
    TwInstance,
    general_position_violations,
    projective_incidence,
    projective_instance,
    subset_intersection_point,
    to_incidence,
)
from dpierce.generators import GenConfig, planted_pq_subforests, random_d_intervals, random_tw_graph
from dpierce.model import connected_components

from helpers import (
    brute_nu_continuous,
    brute_tau_continuous,
    crowded_family,
    endpoints,
    fam,
    iv,
    reference_interval_incidence,
)


# ---------------------------------------------------------------------------
# (p,q) parameters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "p, q, field",
    [(3.5, 2, "p"), (3.0, 2, "p"), (3, 2.0, "q"), (True, True, "p"), (3, True, "q"), ("3", 2, "p")],
)
def test_pq_parameters_reject_non_int(p, q, field):
    with pytest.raises(TypeError, match=f"^{field}: expected an int"):
        PQParameters(p, q)


# ---------------------------------------------------------------------------
# depth
# ---------------------------------------------------------------------------

def test_interval_instance_depth_is_the_family_maximum_depth():
    # r of the interval instance is the family's deepest point on the line:
    # count containment at the endpoints, the midpoints between consecutive
    # endpoints and one point outside on each side
    for seed in range(20):
        f = random_d_intervals(GenConfig(seed=seed, n_edges=7, d=3))
        pts = endpoints(f)
        probes = pts + [(a + b) / 2 for a, b in zip(pts, pts[1:])] + [pts[0] - 1, pts[-1] + 1]
        deepest = max(sum(e.contains(x) for e in f.edges) for x in probes)
        assert to_incidence(f).max_depth[0] == deepest


# ---------------------------------------------------------------------------
# subset intersection points
# ---------------------------------------------------------------------------

def test_subset_intersection_point_basic():
    f = fam(1, [(0, 2)], [(1, 3)])
    x = subset_intersection_point(f, {0, 1})
    assert x is not None and 1 <= x <= 2
    assert subset_intersection_point(fam(1, [(0, 1)], [(2, 3)]), {0, 1}) is None


def test_subset_intersection_point_fano_pairs():
    # oracle: brute force over the 7 ground coordinates
    pf = projective_instance(ProjectiveParams(2, 2))
    f = pf.realization
    for a, b in itertools.combinations(range(7), 2):
        expected = {
            Fraction(x)
            for x in range(7)
            if f.edges[a].contains(Fraction(x)) and f.edges[b].contains(Fraction(x))
        }
        assert len(expected) == 1  # two projective lines meet in one point
        assert subset_intersection_point(f, {a, b}) == expected.pop()


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def path_tree(n: int) -> HostTree:
    return HostTree(n=n, edges=tuple((i, i + 1) for i in range(n - 1)))


def test_connected_components_examples():
    path = path_tree(4).adjacency()
    assert connected_components(path, {0, 1, 3}) == [frozenset({0, 1}), frozenset({3})]
    star = HostTree(n=3, edges=((0, 1), (0, 2))).adjacency()
    assert connected_components(star, {1, 2}) == [frozenset({1}), frozenset({2})]
    assert connected_components(path, set(range(4))) == [frozenset(range(4))]


def test_connected_components_partition_properties():
    import random

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 12)
        host = HostTree(n=n, edges=tuple((rng.randrange(i), i) for i in range(1, n)))
        adj = host.adjacency()
        vertices = set(rng.sample(range(n), rng.randint(1, n)))
        comps = connected_components(adj, vertices)
        assert set().union(*comps) == vertices
        for a, b in itertools.combinations(comps, 2):
            assert not (a & b)
        for comp in comps:  # each piece is internally connected
            seen = {min(comp)}
            frontier = [min(comp)]
            while frontier:
                u = frontier.pop()
                for w in adj[u]:
                    if w in comp and w not in seen:
                        seen.add(w)
                        frontier.append(w)
            assert seen == comp


def test_host_tree_validation():
    with pytest.raises(ValueError):
        HostTree(n=3, edges=((0, 1),))  # too few edges
    with pytest.raises(ValueError):
        HostTree(n=3, edges=((0, 1), (0, 1)))  # duplicate edge, disconnected
    with pytest.raises(ValueError):
        HostTree(n=2, edges=((0, 2),))  # out of range


@pytest.mark.parametrize(
    "n, edges, message, graph_too",
    [
        (0, (), "graph needs at least one vertex, got n=0", True),
        (2, ((0, 2),), "edge (0,2) out of range 0..1", True),
        (2, ((1, 1),), "self-loop at vertex 1", True),
        (3, ((0, 1),), "tree on 3 vertices needs 2 edges, got 1", False),
        (4, ((0, 1), (1, 0), (2, 3)), "edge list is not connected", False),
        (3, ((0, True), (1, 2)), "edges[0]: vertex True is not an int", True),
        (3, ((0, 1), (1.0, 2)), "edges[1]: vertex 1.0 is not an int", True),
        (2.5, ((0, 1),), "n must be an int, got 2.5", True),
        (True, (), "n must be an int, got True", True),
    ],
    ids=[
        "n=0", "out-of-range", "self-loop", "n-1-edges", "not-connected", "bool-vertex",
        "float-vertex", "float-n", "bool-n",
    ],
)
def test_graph_and_host_tree_fail_alike(n, edges, message, graph_too):
    # a host tree is a Graph that is a tree: the graph checks are shared, word
    # for word, and only the tree adds its edge count and connectivity
    with pytest.raises(ValueError) as tree_error:
        HostTree(n, edges)
    assert str(tree_error.value) == message
    if graph_too:
        with pytest.raises(ValueError) as graph_error:
            Graph(n, edges)
        assert str(graph_error.value) == message
    else:
        assert Graph(n, edges).n == n


def test_graph_edges_keep_their_order():
    # each edge is stored (min, max), in the order given, for a tree as for a graph
    for cls in (Graph, HostTree):
        assert cls(3, ((2, 1), (0, 1))).edges == ((1, 2), (0, 1))
    assert isinstance(HostTree(1, ()), Graph)
    # so the same edges in another order make another graph
    assert Graph(3, ((1, 2), (0, 1))) != Graph(3, ((0, 1), (1, 2)))


def test_subforest_family_validation():
    path = path_tree(4)
    with pytest.raises(ValueError):
        SubforestFamily(host=path, d=1, edges=(frozenset(),))
    with pytest.raises(ValueError):
        SubforestFamily(host=path, d=1, edges=(frozenset({0, 2}),))
    ok = SubforestFamily(host=path, d=2, edges=(frozenset({0, 2}),))
    assert len(ok) == 1
    # a member may be any collection of host vertices, and is stored frozen
    assert SubforestFamily(host=path, d=2, edges=([0, 2], {3})).edges == (
        frozenset({0, 2}),
        frozenset({3}),
    )


@pytest.mark.parametrize(
    "members, d, message",
    [
        (([0], [1, 3]), 1, "subgraphs[1][1]: vertex 3 outside graph 0..2"),
        (([0], []), 1, "subgraphs[1]: subgraph must be nonempty"),
        (({0, 2},), 1, "subgraphs[0]: induces 2 components > d=1"),
        (({0},), 0, "d: must be positive, got 0"),
        (([0], [1, True]), 1, "subgraphs[1][1]: vertex True is not an int"),
        (([1.0],), 1, "subgraphs[0][0]: vertex 1.0 is not an int"),
    ],
    ids=["out-of-range", "empty", "too-many-components", "d=0", "bool-vertex", "float-vertex"],
)
def test_tree_and_tree_width_members_fail_alike(members, d, message):
    # a d-tree member and a tree-width subgraph are one object, checked once:
    # the same bad members over the path 0-1-2 fail with the same message
    edges = ((0, 1), (1, 2))
    with pytest.raises(ValueError) as tree_error:
        SubforestFamily(host=HostTree(3, edges), d=d, edges=members)
    decomposition = TreeDecomposition(HostTree(2, ((0, 1),)), ({0, 1}, {1, 2}))
    with pytest.raises(ValueError) as tw_error:
        TwInstance(Graph(3, edges), decomposition, members, d=d)
    assert str(tree_error.value) == str(tw_error.value) == message


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_to_incidence_interval_example():
    inst = to_incidence(fam(1, [(0, 2)], [(1, 3)]))
    assert inst.ground_size == 4
    assert inst.edges == (frozenset({0, 1, 2}), frozenset({1, 2, 3}))
    assert inst.provenance == "interval"


def test_to_incidence_subforest_example():
    star = HostTree(n=3, edges=((0, 1), (0, 2)))
    family = SubforestFamily(
        host=star,
        d=1,
        edges=(frozenset({0, 1}), frozenset({0, 2})),
    )
    inst = to_incidence(family)
    assert inst.ground_size == 3
    assert inst.edges == (frozenset({0, 1}), frozenset({0, 2}))
    assert inst.provenance == "tree"


def test_to_incidence_fano_is_projective_incidence():
    # every PG(k,q) the sharpness probe solves, the Fano plane first
    for k, q in ((2, 2), (2, 3), (3, 2), (2, 5), (4, 2), (3, 3), (2, 7), (5, 2)):
        pf = projective_instance(ProjectiveParams(k, q))
        instance, d = projective_incidence(ProjectiveParams(k, q))
        assert pf.instance == instance and pf.d == d
        inst = to_incidence(pf.realization)
        assert inst.ground_size == instance.ground_size == (q ** (k + 1) - 1) // (q - 1)
        assert inst.edges == instance.edges
        assert pf.realization.d == d
        assert {len(e) for e in instance.edges} == {d}


def test_to_incidence_matches_pointwise_reference():
    rng = random.Random(11)
    tiny = Fraction(1, 10**30)
    grids = [
        [Fraction(i, 2) for i in range(13)],
        [Fraction(i, 2) for i in range(-12, 7)],  # negative coordinates
        sorted({Fraction(k, den) for den in (3, 7, 10) for k in range(-2 * den, 2 * den + 1)}),
        # endpoints closer together than float resolution
        [x + j * tiny for x in (Fraction(-5, 3), Fraction(1, 7), Fraction(10**6, 3)) for j in range(3)],
    ]
    assert len({float(x) for x in grids[-1]}) == 3
    families = [
        crowded_family(rng, rng.randint(1, 3), rng.randint(1, 9), grid)
        for grid in grids
        for _ in range(100)
    ]
    families += [random_d_intervals(GenConfig(seed=s, n_edges=8, d=3)) for s in range(50)]
    families += [
        random_d_intervals(GenConfig(seed=s, n_edges=8, d=2, coord_denominator=den))
        for den in (3, 7, 10)
        for s in range(10)
    ]
    # point parts and repeated identical members
    x = Fraction(1, 3)
    families.append(
        fam(2, [(x, x)], [(x, x + tiny)], [(x, x)], [(x + tiny, 1), (2, 2)], [(x + tiny, 1), (2, 2)])
    )
    families += [DIntervalFamily(f.d, f.edges + f.edges[::2]) for f in families[:50]]
    empty = DIntervalFamily(d=1, edges=())
    assert reference_interval_incidence(empty) == (1, ())
    families.append(empty)
    for f in families:
        inst = to_incidence(f)
        assert (inst.ground_size, inst.edges) == reference_interval_incidence(f)
        assert inst.provenance == "interval"


def test_interval_instances_equal_the_validated_build():
    x = Fraction(1, 3)
    families = [
        DIntervalFamily(d=1, edges=()),
        fam(2, [(x, x)], [(0, 0), (5, 5)], [(x, x)], [(0, x)]),  # point-intervals
        fam(3, [(-7, "-1/2"), ("1/3", "5/7")], [("-2/9", "1/11"), (2, "13/5")], [("-1/2", "-1/3")]),
        fam(2, [(-3, -1), (2, 5)], [(-2, 0)], [(-3, -1), (2, 5)], [(-3, -1), (2, 5)]),  # repeats
        random_d_intervals(GenConfig(seed=23, n_edges=200, d=4)),
    ]
    for family in families:
        built = to_incidence(family)
        assert (built.ground_size, built.edges) == reference_interval_incidence(family)
        # the same fields the validating constructor keeps, so the same instance
        fresh = HypergraphInstance(built.ground_size, built.edges, "interval")
        assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
        assert pickle.dumps(built) == pickle.dumps(fresh)
        assert built.edge_masks == fresh.edge_masks
        back = pickle.loads(pickle.dumps(built))
        assert back == built and back.edge_masks == built.edge_masks
    assert to_incidence(families[0]).edges == () and to_incidence(families[0]).ground_size == 1


def _given_and_built():
    """(given edge sets, instance built from them): tree, tree-width and PG masks, and points."""
    host = HostTree(6, ((0, 1), (1, 2), (1, 3), (3, 4), (4, 5)))
    trees = SubforestFamily(host, 2, ([5, 4], {0, 2}, (3,), [2, 1, 0], {5, 4}))
    yield trees.edges, to_incidence(trees)
    graph = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    bags = (frozenset({0, 1, 4}), frozenset({1, 2, 4}), frozenset({2, 3, 4}))
    tw = TwInstance(
        graph=graph,
        decomposition=TreeDecomposition(bags=bags, tree=HostTree(3, ((0, 1), (1, 2)))),
        subgraphs=(frozenset({4, 0}), frozenset({2}), frozenset({3, 1})),
        d=2,
    )
    yield tw.subgraphs, to_incidence(tw)
    for seed in range(10):
        trees = planted_pq_subforests(GenConfig(seed=seed, host_size=12), PQParameters(3, 2))
        yield trees.edges, to_incidence(trees)
        tw = random_tw_graph(GenConfig(seed=seed), 2)
        yield tw.subgraphs, to_incidence(tw)
    for k, q in ((2, 2), (2, 3), (3, 2), (2, 13), (3, 7)):
        instance = projective_incidence(ProjectiveParams(k, q))[0]
        yield instance.edges, instance
    # points given out of increasing order, as lists, with repeats
    given = (frozenset({9, 1}), frozenset({17, 8, 0}), frozenset({9, 1}), frozenset({12}))
    yield given, HypergraphInstance(18, ([9, 1], (17, 8, 0, 8), {1, 9}, [12, 12]))


def test_constructed_instances_equal_a_fresh_build():
    for given, built in _given_and_built():
        assert built.edges == tuple(given)
        fresh = HypergraphInstance(built.ground_size, given, built.provenance)
        assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
        assert pickle.dumps(built) == pickle.dumps(fresh)
        assert built.edge_masks == tuple(sum(1 << pt for pt in e) for e in given)
    assert repr(HypergraphInstance(3, [[1, 0], [2]], "tree")) == (
        "HypergraphInstance(ground_size=3, edges=(frozenset({0, 1}), frozenset({2})), provenance='tree')"
    )


@pytest.mark.parametrize(
    "ground_size, masks, message",
    [
        (4, [0b1, 0], "edges[1]: mask 0x0 is not a nonempty set of points in ground 0..3"),
        (4, [0b1111, 0b10000], "edges[1]: mask 0x10 is not a nonempty set of points in ground 0..3"),
        (4, [-1], "edges[0]: mask -0x1 is not a nonempty set of points in ground 0..3"),
        (0, [], "ground_size must be positive, got 0"),
        (2.5, [0b1], "ground_size must be an int, got 2.5"),
        (True, [0b1], "ground_size must be an int, got True"),
    ],
    ids=["empty", "bit-at-ground-size", "negative", "ground=0", "ground=2.5", "ground=True"],
)
def test_masks_are_checked(ground_size, masks, message):
    # 0 < mask < 2**ground_size is a nonempty set of points in the ground
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HypergraphInstance._from_masks(ground_size, masks, "interval")


def test_to_incidence_preserves_nu_and_tau():
    from dpierce import covering_number, matching_number

    for seed in range(30):
        f = random_d_intervals(GenConfig(seed=seed, n_edges=6, d=2))
        inst = to_incidence(f)
        assert covering_number(inst).optimum == brute_tau_continuous(f)
        assert matching_number(inst).optimum == brute_nu_continuous(f)


def test_cover_restricted_to_right_endpoints_is_optimal():
    # sliding right never leaves a containing interval, so right endpoints
    # alone support an optimal cover
    from dpierce import covering_number

    for seed in range(15):
        f = random_d_intervals(GenConfig(seed=seed, n_edges=6, d=2))
        inst = to_incidence(f)
        tau = covering_number(inst).optimum
        points = endpoints(f)
        rights = {points.index(p.hi) for e in f.edges for p in e.parts}
        best_restricted = None
        for k in range(len(rights) + 1):
            for combo in itertools.combinations(sorted(rights), k):
                if all(e & set(combo) for e in inst.edges):
                    best_restricted = k
                    break
            if best_restricted is not None:
                break
        assert best_restricted == tau


# ---------------------------------------------------------------------------
# general position
# ---------------------------------------------------------------------------

def test_general_position_validator_rejects_shared_value():
    f = fam(1, [(0, 2)], [(2, 5)])  # distinct intervals share endpoint 2
    violations = general_position_violations(f)
    assert violations and violations[0][0] == 2


def test_general_position_allows_point_intervals_and_repeats():
    f = fam(1, [(5, 5)], [(5, 5)])  # identical parts
    assert general_position_violations(f) == []


def _raises_exactly(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_dinterval_validation():
    # lo > hi, also with negative endpoints and unequal denominators
    for lo, hi in (
        (Fraction(2), Fraction(1)),
        (Fraction(-1, 3), Fraction(-1, 2)),
        (Fraction(1, 3), Fraction(-2, 7)),
        (Fraction(3, 4), Fraction(2, 3)),
        (Fraction(-4, 9), Fraction(-5, 6)),
    ):
        with _raises_exactly(f"interval has lo > hi: [{lo}, {hi}]"):
            Interval(lo, hi)
        Interval(hi, lo)  # the reverse order is a valid interval
    assert Interval(Fraction(-1, 2), Fraction(-1, 2)).lo == Fraction(-1, 2)
    # closed intervals touching, or overlapping, are not disjoint
    with _raises_exactly("parts 0 and 1 are not disjoint: [0,1] vs [1,2]"):
        DInterval((iv(0, 1), iv(1, 2)))
    with _raises_exactly("parts 1 and 2 are not disjoint: [-1/2,-1/3] vs [-1/3,1]"):
        DInterval((iv(-1, Fraction(-3, 4)), Interval(Fraction(-1, 2), Fraction(-1, 3)), iv(Fraction(-1, 3), 1)))
    with _raises_exactly("parts 0 and 1 are not disjoint: [0,2] vs [0,1]"):
        DInterval((iv(0, 2), iv(0, 1)))  # equal left ends are sorted
    with _raises_exactly("parts 0 and 1 are not disjoint: [1/3,3/4] vs [2/3,1]"):
        DInterval((iv(Fraction(1, 3), Fraction(3, 4)), iv(Fraction(2, 3), 1)))
    # unsorted parts; a pair both unsorted and overlapping is reported as unsorted
    with _raises_exactly("parts not sorted by lo at index 0"):
        DInterval((iv(2, 3), iv(0, 1)))
    with _raises_exactly("parts not sorted by lo at index 0"):
        DInterval((iv(1, 3), iv(0, 2)))
    with _raises_exactly("parts not sorted by lo at index 1"):
        DInterval((iv(-5, -4), iv(Fraction(-1, 3), 2), iv(Fraction(-1, 2), 0)))
    # the first failing gap is the one reported
    with _raises_exactly("parts 0 and 1 are not disjoint: [0,1] vs [1,2]"):
        DInterval((iv(0, 1), iv(1, 2), iv(0, 1)))
    with _raises_exactly("edge needs at least one interval part"):
        DInterval(())  # no parts
    # disjoint parts with negative endpoints and unequal denominators
    parts = (iv(Fraction(-3, 4), Fraction(-2, 3)), iv(Fraction(-1, 2), Fraction(-1, 3)), iv(Fraction(-2, 7), 0))
    assert DInterval(parts).parts == parts
    # the part count is the family's check: three parts fit d=3, not d=2
    three = DInterval((iv(0, 1), iv(2, 3), iv(4, 5)))
    assert DIntervalFamily(3, (three,)).edges == (three,)
    with pytest.raises(ValueError, match=r"edges\[1\] has 3 parts > d=2"):
        DIntervalFamily(2, (DInterval((iv(0, 1),)), three))


def test_interval_coordinates_are_coerced_to_fractions():
    class Half(Fraction):
        pass

    # ints, strings and Fraction subclasses are accepted; ints and strings become Fractions
    for lo, hi in ((-1, 2), ("-1/2", "3"), (Half(-1, 2), Half(1, 3)), (0, Fraction(1, 2))):
        part = Interval(lo, hi)
        assert (part.lo, part.hi) == (Fraction(lo), Fraction(hi))
        for given, stored in ((lo, part.lo), (hi, part.hi)):
            assert type(stored) is (type(given) if isinstance(given, Fraction) else Fraction)
    assert Interval("1/2", "1/2") == Interval(Fraction(1, 2), Fraction(1, 2))
    with _raises_exactly("interval has lo > hi: [1/3, -1/2]"):
        Interval(Half(1, 3), "-1/2")
    # bool is not a coordinate, on either end
    for lo, hi in ((True, 2), (0, False)):
        with pytest.raises(TypeError, match="^bool is not a rational coordinate$"):
            Interval(lo, hi)
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a rational"):
        Interval(0, 0.5)


def test_hypergraph_instance_validation():
    with pytest.raises(ValueError):
        HypergraphInstance(ground_size=2, edges=(frozenset(),))
    with pytest.raises(ValueError):
        HypergraphInstance(ground_size=2, edges=(frozenset({5}),))
    with pytest.raises(ValueError):
        HypergraphInstance(ground_size=2, edges=(frozenset({0}),), provenance="nope")
    # the ground size is an int of at least 1: not a float, not a bool
    for ground, message in (
        (0, "ground_size must be positive, got 0"),
        (2.5, "ground_size must be an int, got 2.5"),
        (True, "ground_size must be an int, got True"),
        (2.0, "ground_size must be an int, got 2.0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HypergraphInstance(ground, [[0]])
    # a repeated member is a repeated edge
    inst = HypergraphInstance(ground_size=2, edges=(frozenset({0}),) * 4)
    assert inst.edges == (frozenset({0}),) * 4


def test_hypergraph_instance_validation_names_the_first_bad_edge():
    def message(ground, *edges):
        with pytest.raises(ValueError) as info:
            HypergraphInstance(ground_size=ground, edges=tuple(frozenset(e) for e in edges))
        return str(info.value)

    assert message(3, {0, 1}, {-1, 2}) == "edges[1]: point -1 outside ground 0..2"
    assert message(3, {0, 1}, {1}, {1, 3}) == "edges[2]: point 3 outside ground 0..2"
    assert message(3, {0, 1}, set(), {5}) == "edges[1] is empty"
    assert message(3, {0, 1}, {7}, set()) == "edges[1]: point 7 outside ground 0..2"


@pytest.mark.parametrize(
    "edge, bad",
    [
        ({0, 1.5}, 1.5),
        ({0.0, 1}, 0.0),
        ({True, 2}, True),
        ({Fraction(1), 2}, Fraction(1)),
        ({False, 2}, False),
        ({2.0, 0}, 2.0),
    ],
)
def test_hypergraph_instance_rejects_points_that_are_not_ints(edge, bad):
    firsts = [{2}]
    if bad == int(bad):
        # the union of the points keeps this earlier int, not the equal bad point
        firsts.append({2, int(bad)})
    for first in firsts:
        with pytest.raises(ValueError) as info:
            HypergraphInstance(ground_size=3, edges=(frozenset(first), frozenset(edge)))
        assert str(info.value) == f"edges[1]: point {bad!r} is not an int"
