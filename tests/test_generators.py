import itertools

import pytest

from dpierce import (
    GenConfig,
    HostTree,
    NotPrime,
    PQParameters,
    ProjectiveParams,
    pq_check,
    projective_instance,
    random_d_intervals,
    random_subforests,
    random_tree,
    random_tw_graph,
    to_incidence,
    validate_decomposition,
)
from dpierce.generators import anchor_count, planted_pq_family, planted_pq_subforests
from dpierce.instance_io import dumps_instance
from dpierce.model import connected_components, general_position_violations, induced_components

from helpers import reference_pq_check


# ---------------------------------------------------------------------------
# random interval families
# ---------------------------------------------------------------------------

def test_random_intervals_shape_and_validity():
    f = random_d_intervals(GenConfig(seed=1, n_edges=1, d=1))
    assert len(f) == 1 and len(f.edges[0].parts) == 1

    for seed in (2, 3, 4):
        f = random_d_intervals(GenConfig(seed=seed, n_edges=8, d=3))
        assert len(f) == 8
        assert all(1 <= len(e.parts) <= 3 for e in f.edges)
        assert f.general_position
        assert general_position_violations(f) == []


def test_random_intervals_deterministic():
    cfg = GenConfig(seed=7, n_edges=8, d=3)
    assert dumps_instance(random_d_intervals(cfg)) == dumps_instance(random_d_intervals(cfg))


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=1, n_edges=0)
    with pytest.raises(ValueError):
        GenConfig(seed=-1)


# ---------------------------------------------------------------------------
# planted families
# ---------------------------------------------------------------------------

def test_anchor_counts():
    assert anchor_count(PQParameters(2, 2)) == 1
    assert anchor_count(PQParameters(3, 2)) == 2
    assert anchor_count(PQParameters(3, 3)) == 1
    assert anchor_count(PQParameters(4, 3)) == 1
    assert anchor_count(PQParameters(5, 3)) == 2
    assert anchor_count(PQParameters(4, 2)) == 3


def test_planted_22_is_intersecting():
    f = planted_pq_family(GenConfig(seed=5, n_edges=9, d=2), PQParameters(2, 2))
    i = to_incidence(f)
    # one anchor: every pair of edges meets
    for a, b in itertools.combinations(range(len(i.edges)), 2):
        assert i.edges[a] & i.edges[b]


def test_planted_32_uses_two_anchors():
    f = planted_pq_family(GenConfig(seed=5, n_edges=9, d=2), PQParameters(3, 2))
    verdict = pq_check(to_incidence(f), PQParameters(3, 2))
    assert verdict.holds


def test_planted_families_always_pass_pq_check():
    for seed in range(12):
        for p, q in ((2, 2), (3, 2), (3, 3), (4, 3)):
            f = planted_pq_family(
                GenConfig(seed=seed + 1, n_edges=10, d=3), PQParameters(p, q)
            )
            assert pq_check(to_incidence(f), PQParameters(p, q)).holds
            assert f.general_position


def test_planted_53_and_63_families_with_30_edges_hold():
    for seed in range(3):
        for p, q in ((5, 3), (6, 3)):
            params = PQParameters(p, q)
            f = planted_pq_family(GenConfig(seed=seed + 40, n_edges=30, d=2), params)
            assert pq_check(to_incidence(f), params).holds


def test_planted_53_verdict_matches_unpruned_enumeration():
    f = planted_pq_family(GenConfig(seed=7, n_edges=22, d=2), PQParameters(5, 3))
    instance = to_incidence(f)
    verdict = pq_check(instance, PQParameters(5, 3))
    assert (verdict.holds, verdict.counterexample) == reference_pq_check(instance, 5, 3)
    assert verdict.holds


def test_planted_deterministic():
    cfg = GenConfig(seed=3, n_edges=10, d=2)
    a = planted_pq_family(cfg, PQParameters(3, 3))
    b = planted_pq_family(cfg, PQParameters(3, 3))
    assert dumps_instance(a) == dumps_instance(b)


def test_planted_subforests_pass_pq_check():
    for seed in range(8):
        for p, q in ((2, 2), (3, 2), (4, 3)):
            f = planted_pq_subforests(
                GenConfig(seed=seed + 1, n_edges=8, d=2, host_size=12),
                PQParameters(p, q),
            )
            assert pq_check(to_incidence(f), PQParameters(p, q)).holds


# ---------------------------------------------------------------------------
# projective construction
# ---------------------------------------------------------------------------

def test_fano_counts():
    pf = projective_instance(ProjectiveParams(2, 2))
    assert pf.instance.ground_size == 7
    assert len(pf.instance.edges) == 7
    assert all(len(e) == 3 for e in pf.instance.edges)
    degree = [0] * 7
    for e in pf.instance.edges:
        for pt in e:
            degree[pt] += 1
    assert degree == [3] * 7
    assert pf.d == 3


def test_pg_2_3_counts():
    # 13 points and 13 lines of size 4 over F_3
    pf = projective_instance(ProjectiveParams(2, 3))
    assert pf.instance.ground_size == 13
    assert len(pf.instance.edges) == 13
    assert all(len(e) == 4 for e in pf.instance.edges)


def test_pg_3_2_counts():
    pf = projective_instance(ProjectiveParams(3, 2))
    assert pf.instance.ground_size == 15
    assert len(pf.instance.edges) == 15
    assert all(len(e) == 7 for e in pf.instance.edges)
    assert pf.d == 7


def test_projective_uniformity_invariant():
    for k, q in ((2, 2), (2, 3), (2, 5), (3, 2)):
        pf = projective_instance(ProjectiveParams(k, q))
        size = (q**k - 1) // (q - 1)
        count = (q ** (k + 1) - 1) // (q - 1)
        assert pf.instance.ground_size == count
        assert len(pf.instance.edges) == count
        assert all(len(e) == size for e in pf.instance.edges)
        degree = [0] * count
        for e in pf.instance.edges:
            for pt in e:
                degree[pt] += 1
        assert set(degree) == {size}
        assert pq_check(pf.instance, PQParameters(k, k)).holds


def test_projective_kk_property():
    pf = projective_instance(ProjectiveParams(3, 2))
    assert pq_check(pf.instance, PQParameters(3, 3)).holds


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        ProjectiveParams(2, 4)
    with pytest.raises(NotPrime):
        ProjectiveParams(2, 1)
    with pytest.raises(ValueError):
        ProjectiveParams(1, 2)


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def test_single_vertex_host():
    host = random_tree(GenConfig(seed=1, host_size=1))
    assert host.n == 1
    f = random_subforests(host, GenConfig(seed=2, host_size=1, n_edges=3, d=2))
    assert all(e.vertices == frozenset({0}) for e in f.edges)


def test_path_host_d1_subforests_are_subpaths():
    path = HostTree(n=8, edges=tuple((i, i + 1) for i in range(7)))
    f = random_subforests(path, GenConfig(seed=4, host_size=8, n_edges=6, d=1))
    for e in f.edges:
        vs = sorted(e.vertices)
        assert vs == list(range(vs[0], vs[-1] + 1))


def test_subforest_component_bound():
    for seed in range(10):
        host = random_tree(GenConfig(seed=seed, host_size=11))
        f = random_subforests(host, GenConfig(seed=seed + 50, host_size=11, n_edges=7, d=3))
        for e in f.edges:
            assert len(induced_components(host, e.vertices)) <= 3


def test_tree_generators_deterministic():
    cfg = GenConfig(seed=9, host_size=9, n_edges=5, d=2)
    h1, h2 = random_tree(cfg), random_tree(cfg)
    assert h1 == h2
    assert dumps_instance(random_subforests(h1, cfg)) == dumps_instance(random_subforests(h2, cfg))


# ---------------------------------------------------------------------------
# bounded tree-width
# ---------------------------------------------------------------------------

def test_tw_width_one_is_forest():
    tw = random_tw_graph(GenConfig(seed=3, host_size=8, n_edges=4, d=2), 1)
    g = tw.graph
    comps = connected_components(g.adjacency(), range(g.n))
    # per-component edge counts: a forest has |V| - 1 edges per tree
    assert len(g.edges) == g.n - len(comps)


def test_tw_output_validates():
    for seed in range(8):
        tw = random_tw_graph(GenConfig(seed=seed, host_size=7, n_edges=5, d=2), 2)
        assert validate_decomposition(tw.graph, tw.decomposition) == []
        assert tw.decomposition.width <= 2


def test_tw_deterministic():
    cfg = GenConfig(seed=5, host_size=7, n_edges=5, d=2)
    a = random_tw_graph(cfg, 2)
    b = random_tw_graph(cfg, 2)
    assert dumps_instance(a) == dumps_instance(b)
