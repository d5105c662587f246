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
    Graph,
    HostTree,
    NotPrime,
    PQParameters,
    ProjectiveParams,
    SubforestFamily,
    TreeDecomposition,
    TwInstance,
    evaluate_bound,
    heavy_vertex,
    planted_pq_family,
    planted_pq_subforests,
    projective_instance,
    random_d_intervals,
    random_tw_graph,
    sharpness_probe,
    to_incidence,
    verify_bundle,
    verify_instance,
)
from dpierce import bounds
from dpierce.bounds import _fmt
from dpierce.campaign import _instances

from helpers import fam
from test_golden import GOLDEN_CONFIG


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


def _paper_tau_bound(kind, p, q, d, k):
    """(value, active branch) of a tau kind, written out as the paper states it, at 50 digits."""
    with mp.workdps(50):
        if kind in (BoundKind.DPP_TAU, BoundKind.TREE_PP_TAU):
            return mpf(p) ** (mpf(1) / (p - 1)) * mpf(d) ** (mpf(p) / (p - 1)) + d, None
        c = mpf(2) ** (mpf(1) / (q - 1)) * (mp.e * p) ** (mpf(q) / (q - 1)) / q
        power = c * mpf(d) ** (mpf(q) / (q - 1)) + d
        quadratic = mpf(2 * p * p * d)
        if kind is BoundKind.TW_TAU:
            power, quadratic = (k + 1) * power, (k + 1) * quadratic
        return (power, "power") if power >= quadratic else (quadratic, "quadratic")


def test_tau_kinds_equal_the_papers_formulas():
    # each tau kind is built as d (or (k+1) d) times its tau* form; pin that
    # to the paper's own tau formulas, so the derivation cannot drift from them
    pp = (BoundKind.DPP_TAU, BoundKind.TREE_PP_TAU)
    pq = (BoundKind.DPQ_TAU, BoundKind.TREE_PQ_TAU, BoundKind.TW_TAU)
    branches = set()
    for kind in pp + pq:
        for p, d, k in itertools.product(range(2, 7), range(1, 13), range(3)):
            for q in (p,) if kind in pp else range(2, p + 1):
                expected, branch = _paper_tau_bound(kind, p, q, d, k)
                got, active, text = bounds._closed_form(kind, p, q, d, k)
                assert text == _fmt(got) == _fmt(expected), (kind, p, q, d, k)
                with mp.workdps(50):
                    assert abs(got - expected) < mpf("1e-40") * expected
                assert active == branch
                branches.add(branch)
    assert branches == {None, "power", "quadratic"}


def test_closed_form_ignores_the_callers_precision():
    # the memo must not keep a value evaluated at the caller's precision
    bounds._closed_form.cache_clear()
    with mp.workdps(15):
        low = evaluate_bound(BoundKind.DPQ_STAR, p=5, q=3, d=7)
    assert low == evaluate_bound(BoundKind.DPQ_STAR, p=5, q=3, d=7)
    assert _fmt(low) == "63.494168275108695"


def _clear_report_memos():
    bounds._closed_form.cache_clear()
    bounds._closed_outcome.cache_clear()
    bounds._measured_outcome.cache_clear()
    bounds._ratio.cache_clear()


def test_report_arithmetic_ignores_the_callers_precision():
    params = PQParameters(5, 3)
    family = planted_pq_family(GenConfig(seed=4, n_edges=8, d=7), params)
    kinds = [BoundKind.DPQ_STAR, BoundKind.ALON]

    def measured():
        reports = verify_bundle(family, kinds, params=params)
        summary = [(r.bound_value, r.satisfied, r.slack) for r in reports]
        return summary, bounds.max_measured_over_bound(reports), sharpness_probe(3, [2])

    # from cold memos, first at 15 digits: a memo that kept an outcome
    # evaluated at the caller's precision would return it from then on
    _clear_report_memos()
    with mp.workdps(15):
        expected = measured()
    star = expected[0][0]
    assert star[1] is True and star[2] == "61.494168275108695"
    assert expected[1] == {"ALON": "0.14285714285714286", "DPQ_STAR": "0.031498955799127305"}
    assert expected[2][0]["ratio"] == "0.80992387073405834"
    # computed at 15 digits, the slack would end in ...692, the ratios in
    # ...285, ...308 and ...825
    for dps in (15, 30, 60):
        with mp.workdps(dps):
            assert measured() == expected


def _memo_corpus():
    """(family, kinds, params) triples: every kind applicable, both max-form branches."""
    for camp in GOLDEN_CONFIG["campaigns"]:
        params = PQParameters(camp["p"], camp["q"]) if "p" in camp else None
        kinds = [BoundKind(name) for name in camp["kinds"]]
        for _, family in _instances(camp["source"], params, "source"):
            yield family, kinds, params
    planted = {
        (5, 3): [BoundKind.DPQ_STAR, BoundKind.DPQ_TAU, BoundKind.ALON],
        (2, 2): [BoundKind.DPP_STAR, BoundKind.DPP_TAU, BoundKind.KAISER_P2, BoundKind.ALON],
    }
    for (p, q), kinds in planted.items():
        params = PQParameters(p, q)
        for seed, d in itertools.product(range(3), (2, 7)):
            yield planted_pq_family(GenConfig(seed=seed, n_edges=8, d=d), params), kinds, params
    # tau* = 5/3 at d = 2: ALON's slack 4/3 is not exact at 15 digits
    yield random_d_intervals(GenConfig(seed=27, n_edges=10, d=2)), [BoundKind.ALON], None


def _memo_entry(report):
    """(memo, key) that gave an applicable report its outcome."""
    if report.kind is BoundKind.GALLAI:
        return bounds._measured_outcome, (report.kind, report.nu, report.tau)
    if report.kind is BoundKind.ALON:
        return bounds._measured_outcome, (report.kind, report.d * report.tau_star, report.tau)
    measured = report.tau_star if bounds._KINDS[report.kind].star else report.tau
    key = (report.kind, report.p, report.q, report.d, report.k, measured)
    return bounds._closed_outcome, key


def test_report_memo_never_changes_a_report():
    corpus = list(_memo_corpus())
    cold = []
    for family, kinds, params in corpus:
        _clear_report_memos()
        cold.append(verify_bundle(family, kinds, params=params))
    for family, kinds, params in corpus:
        verify_bundle(family, kinds, params=params)
    warm = [verify_bundle(family, kinds, params=params) for family, kinds, params in corpus]
    assert warm == cold
    assert bounds._closed_outcome.cache_info().hits > 0
    assert bounds._measured_outcome.cache_info().hits > 0

    applicable = [r for bundle in warm for r in bundle if r.applicable]
    assert {r.kind for r in applicable} == set(BoundKind)
    assert {r.active_branch for r in applicable} == {None, "power", "quadratic"}
    for report in applicable:
        memo, key = _memo_entry(report)
        outcome = (report.bound_value, report.satisfied, report.slack, report.active_branch)
        assert memo(*key) == outcome
        for dps in (15, 60):
            with mp.workdps(dps):
                assert memo.__wrapped__(*key) == outcome


def _reference_max_ratios(reports) -> dict[str, str]:
    """`max_measured_over_bound` with every report's ratio taken afresh, at 50 digits."""
    best = {}
    with mp.workdps(50):
        for report in reports:
            if report.applicable and mpf(report.bound_value) > 0:
                bound = mpf(report.bound_value)
                measured = report.tau_star if bounds._KINDS[report.kind].star else report.tau
                ratio = mpf(measured.numerator) / mpf(measured.denominator) / bound
                best[report.kind.value] = max(ratio, best.get(report.kind.value, ratio))
        return {k: _fmt(v) for k, v in sorted(best.items())}


def test_ratio_memo_never_changes_the_telemetry():
    reports = [
        report
        for family, kinds, params in _memo_corpus()
        for report in verify_bundle(family, kinds, params=params)
    ]
    expected = _reference_max_ratios(reports)
    # from a cold memo at 15 digits, then warm: a memo that kept a ratio
    # taken at the caller's precision would return it from then on
    _clear_report_memos()
    with mp.workdps(15):
        cold = bounds.max_measured_over_bound(reports)
        warm = bounds.max_measured_over_bound(reports)
    assert cold == warm == bounds.max_measured_over_bound(reports) == expected
    info = bounds._ratio.cache_info()
    assert info.hits > info.misses > 0


def test_measured_memo_keys_on_the_kind():
    # ALON (tau <= d tau*) and GALLAI (tau = nu) see the same pair here,
    # d tau* = nu = 3 and tau = 2, and give different verdicts
    rhs = {BoundKind.ALON: Fraction(3), BoundKind.GALLAI: 3}
    for first, second in ((BoundKind.ALON, BoundKind.GALLAI), (BoundKind.GALLAI, BoundKind.ALON)):
        _clear_report_memos()
        outcomes = {kind: bounds._measured_outcome(kind, rhs[kind], 2) for kind in (first, second)}
        assert outcomes[BoundKind.ALON] == ("3.0", True, "1.0", None)
        assert outcomes[BoundKind.GALLAI] == ("3.0", False, "1.0", None)


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


def _as_tw(family: SubforestFamily, k: int) -> TwInstance:
    """`family` over its host tree read as a graph, with a decomposition of width k >= 1.

    Bag v holds v and its parent towards vertex 0; bag 0 also holds k
    isolated extra vertices, which no member contains.
    """
    host, n = family.host, family.host.n
    depth, adj = host.depths_from(0), host.adjacency()
    bags = [{v} | {u for u in adj[v] if depth[u] < depth[v]} for v in range(n)]
    bags[0] |= set(range(n, n + k))
    decomposition = TreeDecomposition(host, tuple(bags))
    return TwInstance(Graph(n + k, host.edges), decomposition, family.edges, d=family.d)


def test_reports_carry_the_closed_form_and_its_larger_branch():
    max_form = {BoundKind.DPQ_STAR, BoundKind.DPQ_TAU, BoundKind.TREE_PQ_TAU, BoundKind.TW_TAU}
    seen = set()
    for (p, q), d in itertools.product(((2, 2), (3, 2), (4, 3), (6, 6)), (1, 2, 3)):
        params = PQParameters(p, q)
        cfg = GenConfig(seed=10 * p + d, n_edges=8, d=d, host_size=10)
        pp = [BoundKind.DPP_STAR, BoundKind.DPP_TAU] if p == q else []
        kaiser = [BoundKind.KAISER_P2] if q == 2 else []
        tree_pp = [BoundKind.TREE_PP_STAR, BoundKind.TREE_PP_TAU] if p == q else []
        trees = planted_pq_subforests(cfg, params)
        bundles = [
            (planted_pq_family(cfg, params), pp + kaiser + [BoundKind.DPQ_STAR, BoundKind.DPQ_TAU]),
            (trees, tree_pp + [BoundKind.TREE_PQ_TAU]),
        ]
        # TW_TAU at two widths, on the tree family read as a tree-width family
        bundles += [(_as_tw(trees, k), [BoundKind.TW_TAU]) for k in (1, 2)]
        for family, kinds in bundles:
            k = family.decomposition.width if isinstance(family, TwInstance) else None
            for report in verify_bundle(family, kinds, params=params):
                assert report.k == k
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


_INTERVALS = fam(1, [(0, 1)])
_TREES = SubforestFamily(HostTree(2, ((0, 1),)), 1, (frozenset({0}),))
_TW = _as_tw(_TREES, 1)


@pytest.mark.parametrize(
    "kind, params, k, family, other_class",
    [
        (BoundKind.DPP_TAU, PQParameters(3, 2), None, _INTERVALS, _TREES),
        (BoundKind.TREE_PP_STAR, PQParameters(3, 2), None, _TREES, _INTERVALS),
        (BoundKind.KAISER_P2, PQParameters(3, 3), None, _INTERVALS, _TREES),
        (BoundKind.TW_TAU, PQParameters(2, 2), None, _INTERVALS, None),
        (BoundKind.DPQ_STAR, None, None, _INTERVALS, _TREES),
        (BoundKind.TREE_PQ_TAU, None, None, _TREES, _INTERVALS),
        (BoundKind.TW_TAU, None, 1, _TW, None),
        (BoundKind.TW_TAU, PQParameters(2, 2), None, _TREES, None),
        (BoundKind.TW_TAU, None, None, _INTERVALS, None),
        (BoundKind.TW_TAU, None, None, _TREES, None),
    ],
)
def test_bad_params_are_checked_after_the_family_class(kind, params, k, family, other_class):
    # k is the width the family carries: a family with no decomposition has
    # none, and TW_TAU cannot be evaluated on it
    assert bounds._d_and_k(family) == (family.d, k)
    if kind is BoundKind.TW_TAU and k is None:
        # a family without a width is the wrong class for TW_TAU: it is
        # inapplicable, with or without parameters
        (report,) = verify_bundle(family, [kind], params=params)
        got = "tree" if family is _TREES else "interval"
        assert not report.applicable and report.satisfied is None and report.k is None
        assert report.reason == f"TW_TAU applies to tree-width families, got {got}"
        return
    # the right family class with bad or missing parameters is a caller error
    with pytest.raises(BadParams):
        verify_bundle(family, [kind], params=params)
    if other_class is None:
        return  # _TW is the only family with a width
    # the same call on the wrong family class is inapplicable, and raises nothing
    (report,) = verify_bundle(other_class, [kind], params=params)
    needed = "tree" if family is _TREES else "interval"
    got = "interval" if needed == "tree" else "tree"
    assert not report.applicable and report.satisfied is None
    assert report.reason == f"{kind.value} applies to {needed} families, got {got}"


def test_report_k_is_the_families_decomposition_width():
    # k is read off the family, never passed in: a TwInstance's width, else None
    params = PQParameters(2, 2)
    trees = planted_pq_subforests(GenConfig(seed=3, n_edges=6, d=2, host_size=8), params)
    intervals = planted_pq_family(GenConfig(seed=3, n_edges=6, d=2), params)
    for family in (trees, intervals):
        (report,) = verify_bundle(family, [BoundKind.ALON], params=params)
        assert report.k is None and report.to_json_dict()["k"] is None
    generated = random_tw_graph(GenConfig(seed=5, n_edges=5, d=2, host_size=6), 2)
    for tw in (_as_tw(trees, 1), _as_tw(trees, 3), generated):
        for report in verify_bundle(tw, [BoundKind.ALON, BoundKind.TW_TAU], params=params):
            assert report.k == tw.decomposition.width
    assert [_as_tw(trees, k).decomposition.width for k in (1, 3)] == [1, 3]
    with pytest.raises(TypeError):
        verify_bundle(intervals, [BoundKind.ALON], params=params, k=1)
    with pytest.raises(TypeError):
        verify_instance(intervals, BoundKind.ALON, params, k=1)


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


@pytest.mark.parametrize(
    "subtrees, message",
    [
        ([{0, 1}, set()], "subgraphs[1]: subgraph must be nonempty"),
        ([{0, 1}, [0, 7]], "subgraphs[1][1]: vertex 7 outside graph 0..3"),
        ([{0, 1}, {1, 2}], "subgraphs[1]: induces 2 components > d=1"),
    ],
    ids=["empty", "out-of-range", "disconnected"],
)
def test_heavy_vertex_checks_subtrees_like_a_family(subtrees, message):
    # the subtrees are the members of a 1-tree family over the host, and fail alike
    host = star_host(3)
    with pytest.raises(ValueError) as exc:
        heavy_vertex(host, subtrees, 2, [(0, 1)])
    assert str(exc.value) == message
    with pytest.raises(ValueError) as family_error:
        SubforestFamily(host, 1, subtrees)
    assert str(family_error.value) == message
    # p is checked first, and an empty family is its own error
    with pytest.raises(BadParams):
        heavy_vertex(host, subtrees, 1, [(0,)])
    with pytest.raises(EmptySubfamily):
        heavy_vertex(host, [], 2, [(0, 1)])


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
