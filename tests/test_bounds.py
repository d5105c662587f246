import itertools
import json
import random
from fractions import Fraction
from math import e, factorial

import pytest
from mpmath import mp, mpf

from dpierce import (
    BadParams,
    BoundKind,
    EmptySubfamily,
    GenConfig,
    HostTree,
    NotPrime,
    PQParameters,
    ProjectiveParams,
    evaluate_bound,
    heavy_vertex,
    planted_pq_family,
    planted_pq_subforests,
    projective_instance,
    random_d_intervals,
    sharpness_probe,
    to_incidence,
    verify_bundle,
    verify_instance,
)
from dpierce import bounds
from dpierce.bounds import _fmt

from helpers import fam


# frozen from an independent float evaluation of the closed forms
FROZEN = {
    ("DPQ_TAU", 2, 2, 2): 120.22489758289039,
    ("DPQ_TAU", 3, 2, 3): 601.5135440133827,
    ("DPQ_STAR", 3, 2, 3): 200.50451467112757,
    ("TREE_PP_STAR", 3, 3, 2): 3.449489742783178,
    ("TREE_PP_TAU", 3, 3, 2): 6.898979485566357,
    ("TW_TAU", 2, 2, 2): 240.44979516578078,  # k = 1
}


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------

def test_dpp_star_exponent_one():
    assert evaluate_bound(BoundKind.DPP_STAR, p=2, d=3) == 7


def test_dpp_tau_p2():
    assert evaluate_bound(BoundKind.DPP_TAU, p=2, d=3) == 21


def test_max_form_values_match_frozen():
    for (kind, p, q, d), frozen in FROZEN.items():
        k = 1 if kind == "TW_TAU" else None
        got = evaluate_bound(BoundKind(kind), p=p, q=q, d=d, k=k)
        assert abs(got - mpf(frozen)) < 1e-9


def test_quadratic_branch_can_win():
    # large p, q=p makes 2p^2 dominate for small d in the star form
    value = evaluate_bound(BoundKind.DPQ_STAR, p=6, q=6, d=1)
    assert value == 72  # 2 * 36


def test_monotonicity_grid():
    for p, q in ((2, 2), (3, 2), (4, 3), (5, 4)):
        for d in range(1, 5):
            tau_d = evaluate_bound(BoundKind.DPQ_TAU, p=p, q=q, d=d)
            tau_d1 = evaluate_bound(BoundKind.DPQ_TAU, p=p, q=q, d=d + 1)
            assert tau_d <= tau_d1
            tau_p = evaluate_bound(BoundKind.DPQ_TAU, p=p + 1, q=q, d=d)
            assert tau_d <= tau_p
            if q > 2:
                tau_q = evaluate_bound(BoundKind.DPQ_TAU, p=p, q=q - 1, d=d)
                assert tau_d <= tau_q


def test_bad_params():
    with pytest.raises(BadParams):
        evaluate_bound(BoundKind.DPP_STAR, p=1, d=3)
    with pytest.raises(BadParams):
        evaluate_bound(BoundKind.DPQ_TAU, p=2, q=3, d=3)
    with pytest.raises(BadParams):
        evaluate_bound(BoundKind.DPQ_TAU, p=2, q=2, d=0)
    with pytest.raises(BadParams):
        evaluate_bound(BoundKind.TW_TAU, p=2, q=2, d=1, k=None)
    with pytest.raises(BadParams):
        evaluate_bound(BoundKind.ALON, d=2)
    with pytest.raises(BadParams):
        evaluate_bound(BoundKind.GALLAI, d=1)


def test_kaiser_p2_formula():
    assert evaluate_bound(BoundKind.KAISER_P2, p=4, d=3) == 3 * 7


def test_closed_form_ignores_the_callers_precision():
    # the memo must not keep a value evaluated at the caller's precision
    bounds._closed_form.cache_clear()
    with mp.workdps(15):
        low = evaluate_bound(BoundKind.DPQ_STAR, p=5, q=3, d=7)
    assert low == evaluate_bound(BoundKind.DPQ_STAR, p=5, q=3, d=7)
    assert _fmt(low) == "63.494168275108695"


def test_bad_call_raises_every_time():
    for _ in range(3):
        with pytest.raises(BadParams):
            evaluate_bound(BoundKind.TW_TAU, p=2, q=2, d=1, k=None)


# ---------------------------------------------------------------------------
# verify_instance
# ---------------------------------------------------------------------------

def test_fano_satisfies_pp_star_bound():
    pf = projective_instance(ProjectiveParams(2, 2))
    report = verify_instance(pf.realization, BoundKind.DPP_STAR, PQParameters(2, 2))
    assert report.applicable and report.satisfied
    assert report.tau_star == Fraction(7, 3)
    assert report.nu == 1 and report.tau == 3 and report.r == 3
    assert float(report.bound_value) == 7.0


def test_gallai_on_random_plain_intervals():
    for seed in range(10):
        f = random_d_intervals(GenConfig(seed=seed, n_edges=9, d=1))
        report = verify_instance(f, BoundKind.GALLAI)
        assert report.applicable and report.satisfied
        assert report.tau == report.nu


def test_gallai_inapplicable_for_d2():
    f = random_d_intervals(GenConfig(seed=1, n_edges=5, d=2))
    report = verify_instance(f, BoundKind.GALLAI)
    assert not report.applicable
    assert "d = 1" in report.reason


def test_disjoint_intervals_inapplicable_with_counterexample():
    f = fam(1, [(0, 1)], [(2, 3)], [(4, 5)])
    report = verify_instance(f, BoundKind.DPP_STAR, PQParameters(2, 2))
    assert not report.applicable
    assert report.counterexample is not None
    assert report.satisfied is None


def test_alon_exact_on_fano():
    pf = projective_instance(ProjectiveParams(2, 2))
    report = verify_instance(pf.realization, BoundKind.ALON)
    assert report.applicable and report.satisfied
    # tau = 3 <= d * tau* = 3 * 7/3 = 7


def test_tree_pp_kinds_on_planted_subforests():
    f = planted_pq_subforests(GenConfig(seed=3, n_edges=8, d=2, host_size=10), PQParameters(2, 2))
    for kind in (BoundKind.TREE_PP_STAR, BoundKind.TREE_PP_TAU):
        report = verify_instance(f, kind, PQParameters(2, 2))
        assert report.applicable and report.satisfied


def test_tree_kind_rejects_interval_family():
    f = fam(1, [(0, 1)])
    report = verify_instance(f, BoundKind.TREE_PP_TAU, PQParameters(2, 2))
    assert not report.applicable


def test_kaiser_on_planted_p2():
    f = planted_pq_family(GenConfig(seed=2, n_edges=9, d=2), PQParameters(3, 2))
    report = verify_instance(f, BoundKind.KAISER_P2, PQParameters(3, 2))
    assert report.applicable and report.satisfied


def test_active_branch_recorded():
    f = planted_pq_family(GenConfig(seed=4, n_edges=8, d=2), PQParameters(3, 2))
    report = verify_instance(f, BoundKind.DPQ_TAU, PQParameters(3, 2))
    assert report.active_branch in ("power", "quadratic")


def test_quadratic_branch_reported():
    f = planted_pq_family(GenConfig(seed=4, n_edges=8, d=1), PQParameters(6, 6))
    kinds = [BoundKind.DPQ_STAR, BoundKind.DPQ_TAU]
    for report in verify_bundle(f, kinds, params=PQParameters(6, 6)):
        assert report.applicable and report.satisfied
        assert report.active_branch == "quadratic"
        assert report.bound_value == "72.0"


def _float_branches(kind, p, q, d, k):
    """(power, quadratic) branch of a max-form bound, in floats."""
    c = 2 ** (1 / (q - 1)) * (e * p) ** (q / (q - 1)) / q
    if kind is BoundKind.DPQ_STAR:
        power, quad = c * d ** (1 / (q - 1)) + 1, 2 * p * p
    else:
        power, quad = c * d ** (q / (q - 1)) + d, 2 * p * p * d
    scale = k + 1 if kind is BoundKind.TW_TAU else 1
    return power * scale, quad * scale


def test_reports_carry_the_closed_form_and_its_larger_branch():
    max_form = {BoundKind.DPQ_STAR, BoundKind.DPQ_TAU, BoundKind.TREE_PQ_TAU, BoundKind.TW_TAU}
    seen = set()
    for (p, q), d, k in itertools.product(((2, 2), (3, 2), (4, 3), (6, 6)), (1, 2, 3), (0, 2)):
        params = PQParameters(p, q)
        cfg = GenConfig(seed=10 * p + d, n_edges=8, d=d, host_size=10)
        pp = [BoundKind.DPP_STAR, BoundKind.DPP_TAU] if p == q else []
        kaiser = [BoundKind.KAISER_P2] if q == 2 else []
        tree_pp = [BoundKind.TREE_PP_STAR, BoundKind.TREE_PP_TAU] if p == q else []
        bundles = (
            (planted_pq_family(cfg, params), pp + kaiser + [BoundKind.DPQ_STAR, BoundKind.DPQ_TAU]),
            (planted_pq_subforests(cfg, params), tree_pp + [BoundKind.TREE_PQ_TAU]),
        )
        for family, kinds in bundles:
            for report in verify_bundle(family, kinds + [BoundKind.TW_TAU], params=params, k=k):
                assert report.applicable and report.satisfied
                bound = evaluate_bound(report.kind, p=p, q=q, d=d, k=k)
                assert report.bound_value == _fmt(bound)
                if report.kind not in max_form:
                    assert report.active_branch is None
                    continue
                power, quad = _float_branches(report.kind, p, q, d, k)
                assert abs(power - quad) > 1e-6 * quad  # no near tie in the grid
                assert report.active_branch == ("power" if power > quad else "quadratic")
                seen.add((report.kind, report.active_branch))
    assert {branch for _, branch in seen} == {"power", "quadratic"}
    assert {kind for kind, _ in seen} == max_form


def test_verify_instance_deterministic_json():
    f = planted_pq_family(GenConfig(seed=6, n_edges=8, d=2), PQParameters(2, 2))
    r1 = verify_instance(f, BoundKind.DPP_STAR, PQParameters(2, 2), seed=6)
    r2 = verify_instance(f, BoundKind.DPP_STAR, PQParameters(2, 2), seed=6)
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )


def test_pp_kind_requires_p_equal_q():
    f = fam(1, [(0, 1)])
    with pytest.raises(BadParams):
        verify_instance(f, BoundKind.DPP_STAR, PQParameters(3, 2))


# ---------------------------------------------------------------------------
# heavy vertex
# ---------------------------------------------------------------------------

def star_host(leaves: int) -> HostTree:
    return HostTree(n=leaves + 1, edges=tuple((0, i) for i in range(1, leaves + 1)))


def all_intersecting_subsets(subtrees, p):
    return [
        combo
        for combo in itertools.combinations(range(len(subtrees)), p)
        if frozenset.intersection(*(frozenset(subtrees[i]) for i in combo))
    ]


def test_heavy_vertex_star():
    leaves = 6
    host = star_host(leaves)
    subtrees = [{0, i} for i in range(1, leaves + 1)]
    subsets = all_intersecting_subsets(subtrees, 2)
    assert len(subsets) == leaves * (leaves - 1) // 2  # all pairs meet at the hub
    vertex, degree = heavy_vertex(host, subtrees, 2, subsets)
    assert vertex == 0
    assert degree == leaves


def test_heavy_vertex_nested_subpaths():
    host = HostTree(n=6, edges=tuple((i, i + 1) for i in range(5)))
    subtrees = [set(range(i, 6)) for i in range(5)]  # nested suffixes
    subsets = all_intersecting_subsets(subtrees, 2)
    vertex, degree = heavy_vertex(host, subtrees, 2, subsets)
    # deepest closest-to-root vertex is the start of the innermost subpath
    assert vertex == 4
    assert degree == 5  # vertex 4 lies in every suffix {i..5}, i <= 4


def test_heavy_vertex_bound_on_randoms():
    rng = random.Random(9)
    for trial in range(30):
        n_vertices = rng.randint(3, 14)
        host = HostTree(
            n=n_vertices,
            edges=tuple((rng.randrange(i), i) for i in range(1, n_vertices)),
        )
        adj = host.adjacency()
        subtrees = []
        for _ in range(rng.randint(2, 10)):
            start = rng.randrange(n_vertices)
            patch = {start}
            for _ in range(rng.randint(0, n_vertices)):
                frontier = sorted({w for v in patch for w in adj[v]} - patch)
                if not frontier:
                    break
                patch.add(rng.choice(frontier))
            subtrees.append(patch)
        p = rng.choice((2, 3))
        subsets = all_intersecting_subsets(subtrees, p)
        if not subsets:
            continue
        vertex, degree = heavy_vertex(host, subtrees, p, subsets)
        n, k = len(subtrees), len(subsets)
        assert n * (degree - 1) ** (p - 1) >= factorial(p - 1) * k
        assert sum(1 for t in subtrees if vertex in t) == degree


def test_heavy_vertex_errors():
    host = star_host(3)
    subtrees = [{0, 1}, {0, 2}]
    with pytest.raises(EmptySubfamily):
        heavy_vertex(host, subtrees, 2, [])
    with pytest.raises(BadParams):
        heavy_vertex(host, subtrees, 1, [(0, 1)])
    with pytest.raises(ValueError):
        heavy_vertex(host, [{1, 2}], 2, [(0,)])  # disconnected subtree
    with pytest.raises(ValueError):
        heavy_vertex(host, subtrees, 2, [(0, 0)])  # not p distinct members
    with pytest.raises(ValueError):
        heavy_vertex(host, [{0, 1}, {2}], 2, [(0, 1)])  # subset does not intersect


# ---------------------------------------------------------------------------
# sharpness probe
# ---------------------------------------------------------------------------

def test_sharpness_fano_row():
    rows = sharpness_probe(2, [2])
    row = rows[0]
    assert row["d"] == 3
    assert row["tau_star"] == "7/3"
    assert abs(float(row["ratio"]) - 7 / 9) < 1e-12


def test_sharpness_k2_q5():
    rows = sharpness_probe(2, [5])
    assert rows[0]["tau_star"] == "31/6"
    assert rows[0]["d"] == 6


def test_sharpness_k3_q2():
    rows = sharpness_probe(3, [2])
    assert rows[0]["tau_star"] == "15/7"
    assert rows[0]["d"] == 7
    # tau* >= sqrt(d) - 1 held (checked inside); ratio = 15/(7*sqrt(7))
    assert abs(float(rows[0]["ratio"]) - 15 / (7 * 7**0.5)) < 1e-12


def test_sharpness_rejects_composite():
    with pytest.raises(NotPrime):
        sharpness_probe(2, [4])


def test_verify_instance_rejects_raw_incidence():
    # d belongs to the family; an incidence instance cannot tell it (its
    # largest edge here has 5 points while the family has d = 1)
    inst = to_incidence(fam(1, [(0, 2)], [(1, 3)], [(4, 5)], [(2, 6)]))
    for kind in (BoundKind.GALLAI, BoundKind.ALON):
        with pytest.raises(TypeError):
            verify_instance(inst, kind)
