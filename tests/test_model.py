import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpierce import (
    DInterval,
    DIntervalFamily,
    EmptyIntersection,
    HostTree,
    HypergraphInstance,
    Interval,
    PQParameters,
    ProjectiveParams,
    Subforest,
    SubforestFamily,
    candidate_points,
    common_intersection,
    depth,
    endpoint_witnesses,
    general_position_violations,
    induced_components,
    projective_instance,
    repair_general_position,
    subset_intersection_point,
    to_incidence,
)
from dpierce.generators import GenConfig, random_d_intervals

from helpers import (
    brute_nu_continuous,
    brute_tau_continuous,
    crowded_family,
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
# candidate points and depth
# ---------------------------------------------------------------------------

def test_candidate_points_single_interval():
    f = fam(1, [(0, 2)])
    assert candidate_points(f, "all_endpoints") == [0, 2]


def test_candidate_points_right_endpoints():
    f = fam(2, [(0, 2), (5, 6)], [(1, 3)])
    assert candidate_points(f, "right_endpoints") == [2, 3, 6]


def test_candidate_points_fano_realization():
    pf = projective_instance(ProjectiveParams(2, 2))
    assert candidate_points(pf.realization) == [Fraction(i) for i in range(7)]


def test_candidate_points_bad_mode():
    with pytest.raises(ValueError):
        candidate_points(fam(1, [(0, 1)]), "midpoints")


def test_depth_examples():
    f = fam(1, [(0, 2)], [(1, 3)])
    assert depth(f, Fraction(3, 2)) == 2
    assert depth(f, 10) == 0


def test_depth_fano_every_point_is_three():
    pf = projective_instance(ProjectiveParams(2, 2))
    for i in range(7):
        assert depth(pf.realization, i) == 3


def test_depth_maximum_attained_on_candidates():
    # candidate endpoints realize the max depth: compare against a refined
    # grid of midpoints between consecutive endpoints plus outside points
    for seed in range(20):
        f = random_d_intervals(GenConfig(seed=seed, n_edges=7, d=3))
        pts = candidate_points(f)
        grid = list(pts)
        grid.append(pts[0] - 1)
        grid.append(pts[-1] + 1)
        for a, b in zip(pts, pts[1:]):
            grid.append((a + b) / 2)
        best_on_candidates = max(depth(f, x) for x in pts)
        best_on_grid = max(depth(f, x) for x in grid)
        assert best_on_candidates == best_on_grid


# ---------------------------------------------------------------------------
# common intersection and endpoint witnesses
# ---------------------------------------------------------------------------

def test_common_intersection_examples():
    assert common_intersection([iv(0, 2), iv(1, 3), iv(Fraction(3, 2), 4)]) == iv(Fraction(3, 2), 2)
    assert common_intersection([iv(0, 1), iv(2, 3)]) is None
    assert common_intersection([iv(5, 5)]) == iv(5, 5)


@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(0, 30)).map(lambda t: iv(t[0], t[0] + t[1])),
        min_size=1,
        max_size=8,
    ),
    st.tuples(st.integers(-50, 50), st.integers(0, 30)).map(lambda t: iv(t[0], t[0] + t[1])),
)
def test_common_intersection_monotone(intervals, extra):
    before = common_intersection(intervals)
    after = common_intersection(intervals + [extra])
    if after is None:
        return
    assert before is not None
    assert before.lo <= after.lo and after.hi <= before.hi


def test_endpoint_witnesses_forced_by_max_lo_min_hi():
    w1, w2 = endpoint_witnesses([iv(0, 2), iv(1, 3), iv(Fraction(3, 2), 4)])
    assert (w1.point, w1.owner, w1.others) == (Fraction(3, 2), 2, frozenset({0, 1}))
    assert (w2.point, w2.owner, w2.others) == (Fraction(2), 0, frozenset({1, 2}))


def test_endpoint_witnesses_single_interval():
    w1, w2 = endpoint_witnesses([iv(0, 10)])
    assert (w1.point, w1.owner, w1.others) == (0, 0, frozenset())
    assert (w2.point, w2.owner, w2.others) == (10, 0, frozenset())


def test_endpoint_witnesses_nested():
    w1, w2 = endpoint_witnesses([iv(0, 4), iv(1, 3)])
    assert (w1.point, w1.owner, w1.others) == (1, 1, frozenset({0}))
    assert (w2.point, w2.owner, w2.others) == (3, 1, frozenset({0}))


def test_endpoint_witnesses_empty_intersection_raises():
    with pytest.raises(EmptyIntersection):
        endpoint_witnesses([iv(0, 1), iv(2, 3)])
    with pytest.raises(EmptyIntersection):
        endpoint_witnesses([])


@given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=16, unique=True))
def test_endpoint_witnesses_property(values):
    # k intervals in strict general position, intersecting by construction:
    # left endpoints from the lower half, right endpoints from the upper half
    if len(values) % 2:
        values = values[:-1]
    values = sorted(Fraction(v) for v in values)
    k = len(values) // 2
    intervals = [iv(values[i], values[k + i]) for i in range(k)]
    w1, w2 = endpoint_witnesses(intervals)
    for w in (w1, w2):
        assert all(p.contains(w.point) for p in intervals)
        owner = intervals[w.owner]
        assert w.point in (owner.lo, owner.hi)
        assert w.others == frozenset(range(k)) - {w.owner}
    if k >= 2:
        assert (w1.point, w1.owner) != (w2.point, w2.owner)


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


def test_induced_components_examples():
    path = path_tree(4)
    assert induced_components(path, {0, 1, 3}) == [frozenset({0, 1}), frozenset({3})]
    star = HostTree(n=3, edges=((0, 1), (0, 2)))
    assert induced_components(star, {1, 2}) == [frozenset({1}), frozenset({2})]
    assert induced_components(path, set(range(4))) == [frozenset(range(4))]


def test_induced_components_partition_properties():
    import random

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 12)
        host = HostTree(n=n, edges=tuple((rng.randrange(i), i) for i in range(1, n)))
        adj = host.adjacency()
        vertices = set(rng.sample(range(n), rng.randint(1, n)))
        comps = induced_components(host, vertices)
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


def test_subforest_family_validation():
    path = path_tree(4)
    with pytest.raises(ValueError):
        Subforest(frozenset())
    with pytest.raises(ValueError):
        SubforestFamily(host=path, d=1, edges=(Subforest(frozenset({0, 2})),))
    ok = SubforestFamily(host=path, d=2, edges=(Subforest(frozenset({0, 2})),))
    assert len(ok) == 1


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
        edges=(Subforest(frozenset({0, 1})), Subforest(frozenset({0, 2}))),
    )
    inst = to_incidence(family)
    assert inst.ground_size == 3
    assert inst.edges == (frozenset({0, 1}), frozenset({0, 2}))
    assert inst.provenance == "tree"


def test_to_incidence_fano_is_projective_incidence():
    pf = projective_instance(ProjectiveParams(2, 2))
    inst = to_incidence(pf.realization)
    assert inst.ground_size == 7
    assert inst.edges == pf.instance.edges


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
        points = candidate_points(f, "all_endpoints")
        rights = {points.index(x) for x in candidate_points(f, "right_endpoints")}
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
# general position and repair
# ---------------------------------------------------------------------------

def test_general_position_validator_rejects_shared_value():
    f = fam(1, [(0, 2)], [(2, 5)])  # distinct intervals share endpoint 2
    violations = general_position_violations(f)
    assert violations and violations[0][0] == 2
    with pytest.raises(ValueError):
        fam(1, [(0, 2)], [(2, 5)], general_position=True)


def test_general_position_allows_point_intervals_and_repeats():
    f = fam(1, [(5, 5)], [(5, 5)], general_position=True)  # identical parts
    assert general_position_violations(f) == []


def test_repair_general_position():
    f = fam(2, [(0, 2)], [(2, 5)])  # distinct intervals sharing value 2
    assert general_position_violations(f)
    repaired = repair_general_position(f)
    assert repaired.general_position
    assert general_position_violations(repaired) == []
    # originally distinct values keep their order
    assert repaired.edges[0].parts[0].lo < repaired.edges[0].parts[0].hi
    assert repaired.edges[0].parts[0].hi < repaired.edges[1].parts[0].hi


def test_dinterval_validation():
    with pytest.raises(ValueError):
        Interval(Fraction(2), Fraction(1))
    with pytest.raises(ValueError):
        DInterval((iv(0, 1), iv(1, 2)), 2)  # closed intervals touching: not disjoint
    with pytest.raises(ValueError):
        DInterval((iv(0, 1), iv(2, 3), iv(4, 5)), 2)  # too many parts
    with pytest.raises(ValueError):
        DInterval((iv(2, 3), iv(0, 1)), 2)  # unsorted


def test_hypergraph_instance_validation():
    with pytest.raises(ValueError):
        HypergraphInstance(ground_size=2, edges=(frozenset(),))
    with pytest.raises(ValueError):
        HypergraphInstance(ground_size=2, edges=(frozenset({5}),))
    with pytest.raises(ValueError):
        HypergraphInstance(ground_size=2, edges=(frozenset({0}),), provenance="nope")
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
