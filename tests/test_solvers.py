import gc
import itertools
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest

from dpierce import (
    BoundKind,
    HypergraphInstance,
    LPSolution,
    PQParameters,
    ProjectiveParams,
    TooLarge,
    covering_number,
    fractional_pair,
    make_family,
    matching_number,
    max_depth,
    model,
    naive_oracle,
    pq_check,
    projective_instance,
    solve,
    solvers,
    to_incidence,
    verify_cover,
    verify_matching,
)
from dpierce.model import mask_points
from dpierce.bounds import sharpness_probe, verify_bundle
from dpierce.generators import (
    GenConfig,
    planted_pq_family,
    planted_pq_subforests,
    random_d_intervals,
    random_subforests,
    random_tree,
)

from helpers import (
    crowded_family,
    fam,
    random_abstract_instance,
    reference_certificate_problem,
    reference_greedy_cover,
    reference_kernel,
    reference_matching_number,
    reference_max_depth,
    reference_min_degree_matching,
    reference_pq_check,
    reference_solve_lp_max,
)


def inst(*edges, ground=None):
    pts = set().union(*edges) if edges else {0}
    g = ground if ground is not None else max(pts) + 1
    return HypergraphInstance(
        ground_size=g, edges=tuple(frozenset(e) for e in edges), provenance="abstract"
    )


FANO = projective_instance(ProjectiveParams(2, 2)).instance
PG32 = projective_instance(ProjectiveParams(3, 2)).instance


# ---------------------------------------------------------------------------
# integral solvers
# ---------------------------------------------------------------------------

def test_two_disjoint_edges():
    i = inst({0, 1}, {2, 3})
    assert covering_number(i).optimum == 2
    assert matching_number(i).optimum == 2


def test_fano_tau_matches_brute_force():
    # independent oracle: no subset of <= 2 points meets all 7 lines
    res = covering_number(FANO)
    assert res.optimum == naive_oracle(FANO, "tau") == 3
    assert verify_cover(FANO, res.witness)


def test_fano_nu():
    res = matching_number(FANO)
    assert res.optimum == naive_oracle(FANO, "nu") == 1


def test_disjoint_unit_intervals_matching():
    n = 7
    f = fam(1, *[[(2 * i, 2 * i + 1)] for i in range(n)])
    assert matching_number(to_incidence(f)).optimum == n


def test_gallai_p2_bound():
    # d=1 family with the (4,2) property: tau = nu <= 3
    f = fam(1, [(0, 10)], [(1, 11)], [(2, 12)], [(20, 21)], [(30, 31)])
    i = to_incidence(f)
    assert pq_check(i, PQParameters(4, 2)).holds
    tau = covering_number(i).optimum
    assert tau == matching_number(i).optimum
    assert tau <= 3


def test_solver_determinism():
    i = random_abstract_instance(99)
    a = covering_number(i)
    b = covering_number(i)
    assert a == b
    assert matching_number(i) == matching_number(i)


def _root_families():
    """Planted (3,2) and random 2-interval families, and random hypergraphs."""
    for seed in range(12):
        cfg = GenConfig(seed=seed, n_edges=9, d=2)
        yield to_incidence(planted_pq_family(cfg, PQParameters(3, 2)))
        yield to_incidence(random_d_intervals(cfg))
        yield random_abstract_instance(seed + 300)


def _root_lp(instance):
    """(A, b, c) of the kernel incidence LP of all distinct edges, by hand."""
    edge_sets = list(dict.fromkeys(instance.edges))
    points = reference_kernel(edge_sets)
    A = tuple(tuple(1 if pt in e else 0 for e in edge_sets) for pt in points)
    return A, (1,) * len(points), (1,) * len(edge_sets)


def _uniform_and_regular(instance):
    """Every distinct edge has one size and every point lies on one number of them."""
    edge_sets = list(dict.fromkeys(instance.edges))
    points = set().union(*edge_sets)
    sizes = {len(e) for e in edge_sets}
    degrees = {sum(pt in e for e in edge_sets) for pt in points}
    return len(sizes) == len(degrees) == 1


def _plain_tau(instance):
    """tau over plain sets, by subset enumeration of the kernel points.

    A point is worth no more than a kernel point through all of its edges,
    so some smallest cover uses kernel points only.
    """
    edge_sets = _distinct_edges(instance)
    points = reference_kernel(edge_sets)
    for k in itertools.count():
        for combo in itertools.combinations(points, k):
            if all(e & set(combo) for e in edge_sets):
                return k


def test_solve_solves_root_lp_once(monkeypatch):
    # at most once: never where uniform weights or the sandwich of nu = tau
    # settle tau*, once, on the whole kernel, where neither does
    real = solvers.solve_lp_max
    solved = []

    def recording(A, b, c):
        solved.append((tuple(map(tuple, A)), tuple(b), tuple(c)))
        return real(A, b, c)

    monkeypatch.setattr(solvers, "solve_lp_max", recording)
    settled = 0
    for instance in _root_families():
        solved.clear()
        solve(instance)
        nu = reference_matching_number(instance, [])[0]
        candidate = _uniform_and_regular(instance) or nu == _plain_tau(instance)
        assert solved == ([] if candidate else [_root_lp(instance)])
        settled += candidate
    assert 0 < settled < 36


def _fresh(instance):
    return HypergraphInstance(instance.ground_size, instance.edges, instance.provenance)


def test_solve_equals_the_separate_solvers():
    # each public solver on a fresh instance gives what the one record holds
    for instance in [*_root_families(), to_incidence(make_family(1, []))]:
        measures = solve(instance)
        assert measures == solvers.Measures(
            matching_number(_fresh(instance)),
            covering_number(_fresh(instance)),
            fractional_pair(_fresh(instance))[0].value,
            max_depth(_fresh(instance))[0],
        )


def test_warm_instance_gives_fresh_results():
    # same results, witnesses and node counts on an instance every solver has
    # already solved as on a fresh one
    params = PQParameters(3, 2)
    solves = (lambda i: pq_check(i, params), covering_number, matching_number, fractional_pair)
    for instance in _root_families():
        for solver in solves:
            warm = _fresh(instance)
            solve(warm)
            pq_check(warm, params)
            assert solver(warm) == solver(_fresh(instance))


def _matching_reference_cases():
    for seed in range(40):
        yield random_abstract_instance(seed + 2000)
        yield to_incidence(random_d_intervals(GenConfig(seed=seed, n_edges=10, d=2)))
        cfg = GenConfig(seed=seed, n_edges=9, d=2, host_size=12)
        yield to_incidence(random_subforests(random_tree(cfg), cfg))


def _start_matching(instance):
    """The larger of the first-fit and the min-degree-first matchings, over
    plain sets; first fit on a tie."""
    edge_sets = _distinct_edges(instance)
    first_fit, taken = [], set()
    for j, e in enumerate(edge_sets):
        if not e & taken:
            first_fit.append(j)
            taken |= e
    min_degree = reference_min_degree_matching(instance)
    return min_degree if len(min_degree) > len(first_fit) else first_fit


def test_matching_search_matches_plain_reference():
    # nu by ascent against the branch and bound over plain sets and the
    # unpruned oracle, on instances where the ascent asks for more
    ascended = 0
    for instance in itertools.chain(_matching_reference_cases(), _pq_corpus()):
        res = matching_number(instance)
        assert res.optimum == reference_matching_number(instance, [])[0]
        assert len(res.witness) == res.optimum and verify_matching(instance, res.witness)
        try:
            assert res.optimum == naive_oracle(instance, "nu")
        except TooLarge:
            pass
        ascended += res.node_count > 1
    assert ascended > 10


def test_matching_number_matches_plain_reference():
    # the witness is the start matching, or the lexicographically first
    # matching of the last size the ascent asked for and found; each ask is
    # for one edge more, up to tau
    # interval families whose start matching is one edge short of nu
    short = [GenConfig(seed=s, n_edges=12, d=2) for s in (184, 226, 270, 366, 459, 834)]
    short += [GenConfig(seed=s, n_edges=14, d=3) for s in (171, 341, 578, 796)]
    firsts_seen = 0
    for instance in itertools.chain(
        _matching_reference_cases(), (to_incidence(random_d_intervals(cfg)) for cfg in short)
    ):
        edge_ids = sorted({e: i for i, e in reversed(list(enumerate(instance.edges)))}.values())
        best = [edge_ids[j] for j in _start_matching(instance)]
        tau = covering_number(instance).optimum
        while len(best) < tau:
            holds, first = reference_pq_check(instance, len(best) + 1, 2)
            if holds:
                break
            best = sorted(first)
            firsts_seen += 1
        res = matching_number(instance)
        assert (res.optimum, res.witness) == (len(best), frozenset(best))
    assert firsts_seen >= len(short)


def _lp_calls(monkeypatch) -> list:
    """Record every simplex call from here on."""
    real, calls = solvers.solve_lp_max, []

    def recording(A, b, c):
        calls.append(A)
        return real(A, b, c)

    monkeypatch.setattr(solvers, "solve_lp_max", recording)
    return calls


def test_min_degree_matching_settles_tau_star_without_the_simplex(monkeypatch):
    # first fit takes 2 edges; the min-degree matching takes 4 = nu = tau
    calls = _lp_calls(monkeypatch)
    instance = to_incidence(random_d_intervals(GenConfig(seed=143021, n_edges=10, d=3)))
    ctx = solvers._context(instance)
    assert len(ctx.plain_matching) == 2 and len(solvers._min_degree_matching(ctx)) == 4
    measures = solve(instance)
    assert (measures.nu.optimum, measures.tau.optimum, measures.tau_star) == (4, 4, 4)
    assert calls == [] and ctx.root[1].den == 1


def test_a_gap_instance_solves_the_simplex_once(monkeypatch):
    calls = _lp_calls(monkeypatch)
    instance = to_incidence(random_d_intervals(GenConfig(seed=143023, n_edges=10, d=3)))
    measures = solve(instance)
    assert (measures.nu.optimum, measures.tau.optimum) == (2, 3)
    assert measures.tau_star == Fraction(5, 2)
    assert len(calls) == 1
    assert fractional_pair(instance)[0].value == Fraction(5, 2) and len(calls) == 1


def _incumbent_corpus():
    for n_edges, d in ((30, 2), (40, 3)):
        for seed in range(20):
            yield to_incidence(random_d_intervals(GenConfig(seed=seed, n_edges=n_edges, d=d)))
    for seed in range(2000, 2040):
        yield random_abstract_instance(seed)


def test_min_degree_matching_is_valid_and_matches_the_plain_reference():
    larger = 0
    for instance in _incumbent_corpus():
        ctx = solvers._context(instance)
        min_degree = solvers._min_degree_matching(ctx)
        assert min_degree == reference_min_degree_matching(instance)
        assert verify_matching(instance, [ctx.firsts[j] for j in min_degree])
        larger += len(min_degree) > len(ctx.plain_matching)
    assert larger > 10


def test_larger_start_matchings_never_add_nodes_and_keep_the_optimum(monkeypatch):
    # the ascent from first fit alone asks every question the ascent from
    # the larger start asks, and more
    plain = []
    for instance in _incumbent_corpus():
        nu = matching_number(_fresh(instance))
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_min_degree_matching", lambda ctx: [])
            plain_nu = matching_number(_fresh(instance))
        assert nu.node_count <= plain_nu.node_count
        assert nu.optimum == plain_nu.optimum
        plain.append(plain_nu.node_count > nu.node_count)
        try:
            assert covering_number(instance).optimum == naive_oracle(instance, "tau")
            assert nu.optimum == naive_oracle(instance, "nu")
        except TooLarge:
            pass
    assert sum(plain) > 10


def test_solvers_leave_no_reference_cycles():
    # a cycle would keep the instance's edge sets alive until the cyclic GC ran
    instance = to_incidence(random_d_intervals(GenConfig(seed=3, n_edges=20, d=2)))
    calls = (
        lambda: pq_check(instance, PQParameters(3, 2)),
        lambda: covering_number(instance),
        lambda: matching_number(instance),
    )
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# fractional optimum
# ---------------------------------------------------------------------------

def test_fano_fractional_cover():
    # the uniform weighting 1/3-per-point attains 7/3; the LP must match that
    # value exactly (though it may return a different optimal vertex)
    sol = fractional_pair(FANO)[0]
    assert sol.value == Fraction(7, 3)
    assert sum(sol.weights.values()) == Fraction(7, 3)
    for e in FANO.edges:
        assert sum(sol.weights.get(pt, Fraction(0)) for pt in e) >= 1


def test_single_edge_fractional():
    assert fractional_pair(inst({0, 1}))[0].value == 1


def test_pg32_fractional():
    assert fractional_pair(PG32)[0].value == Fraction(15, 7)


def test_fractional_sides_equal_and_feasible():
    for seed in range(25):
        i = random_abstract_instance(seed)
        cover, matching = fractional_pair(i)
        assert cover.value == matching.value
        for idx, e in enumerate(i.edges):
            assert sum(cover.weights.get(pt, Fraction(0)) for pt in e) >= 1
        used = set().union(*i.edges)
        for pt in used:
            load = sum(w for j, w in matching.weights.items() if pt in i.edges[j])
            assert load <= 1


def _kernel_families():
    """Interval families (d = 1-4, shared endpoints or general position),
    subforests and random hypergraphs: 320 instances in all."""
    rng = random.Random(5)
    for seed in range(80):
        d = seed % 4 + 1
        yield to_incidence(crowded_family(rng, d, rng.randint(1, 10)))
        yield to_incidence(random_d_intervals(GenConfig(seed=seed, n_edges=8, d=d)))
        cfg = GenConfig(seed=seed, n_edges=8, d=seed % 3 + 1)
        yield to_incidence(random_subforests(random_tree(cfg), cfg))
        yield random_abstract_instance(seed + 500)


def test_kernel_matches_pairwise_reference_and_keeps_lp_value(monkeypatch):
    real = solvers.solve_lp_max
    solved = []

    def recording(A, b, c):
        solved.append((A, b, c))
        return real(A, b, c)

    monkeypatch.setattr(solvers, "solve_lp_max", recording)
    rng = random.Random(6)
    lps = shrunk = 0
    for instance in _kernel_families():
        edge_sets = list(dict.fromkeys(instance.edges))
        n = len(edge_sets)
        masks = [(1 << n) - 1] + [rng.randrange(1, 1 << n) for _ in range(3)]
        for mask in masks:
            # the instance of the distinct edges whose bits are set in `mask`
            sub = [edge_sets[j] for j in range(n) if mask >> j & 1]
            solved.clear()
            points, sol = solvers._incidence_lp(solvers._context(inst(*sub)))
            assert points == reference_kernel(sub)
            # one LP: the kernel points by the edges in increasing index
            rows = [[1 if pt in e else 0 for e in sub] for pt in points]
            assert solved == [(rows, [1] * len(points), [1] * len(sub))]
            everything = sorted(set().union(*sub))
            A = [[1 if pt in e else 0 for e in sub] for pt in everything]
            value = reference_solve_lp_max(A, [1] * len(A), [1] * len(sub))[0]
            assert Fraction(sol.value, sol.den) == value
            lps += 1
            shrunk += len(points) < len(everything)
    assert lps == 4 * 320
    assert shrunk > lps // 2


def test_kernel_keeps_every_point_of_pg23():
    pg = projective_instance(ProjectiveParams(2, 3)).instance
    points, sol = solvers._incidence_lp(solvers._context(pg))
    assert points == list(range(pg.ground_size)) == list(range(13))
    assert Fraction(sol.value, sol.den) == Fraction(13, 4)


# edges {0,1}, {1,2}, {0,2}, {3}: a triangle and a lone point, nu = 2,
# tau = 3 and tau* = 5/2, every point in the kernel; the sizes differ and
# nu < tau, so neither uniform weights nor the sandwich settle it, and the
# simplex runs
GAP = ({0, 1}, {1, 2}, {0, 2}, {3})
GAP_POINTS = [0, 1, 2, 3]

# forged (value, primal, dual) over D = 1 on GAP, each caught by one check
FORGED = [
    # a negative matching weight, with every sum and value in order
    (3, (-1, 1, 1, 2), (1, 1, 0, 1), "negative weight"),
    (2, (1, 0, 0, 1), (1, 1, 0, 0), "misses an edge"),  # nothing on edge {3}
    # point 1 carries 2; the value is off too, but loads are checked first
    (2, (1, 1, 0, 1), (1, 1, 0, 1), "overloads a point"),
    (3, (1, 0, 0, 1), (1, 1, 0, 1), "duality"),  # the sides sum to 2 and 3
]
# weight 4 on a fifth edge GAP lacks: every other check passes, so only the
# count of weights refuses the claim tau* = 4 > 5/2
WRONG_LENGTH = (4, (0, 0, 0, 0, 4), (1, 1, 1, 1), "wrong number")


@pytest.mark.parametrize("value, primal, dual, reason", FORGED + [WRONG_LENGTH])
def test_fractional_pair_rejects_a_bad_certificate(monkeypatch, value, primal, dual, reason):
    def forged(A, b, c):
        return LPSolution(1, value, primal, dual, 0)

    monkeypatch.setattr(solvers, "solve_lp_max", forged)
    # a fresh instance per case, so that each case's forged solution is solved
    with pytest.raises(RuntimeError, match=reason):
        fractional_pair(inst(*GAP))


@pytest.mark.parametrize("den", [0, -1])
def test_fractional_pair_rejects_a_denominator_below_one(monkeypatch, den):
    # all-zero weights meet every check against a denominator D <= 0
    def forged(A, b, c):
        return LPSolution(den, 0, (0,) * 4, (0,) * 4, 0)

    monkeypatch.setattr(solvers, "solve_lp_max", forged)
    with pytest.raises(RuntimeError, match="denominator"):
        fractional_pair(inst(*GAP))


def _candidate_families():
    yield from _root_families()
    yield from _kernel_families()
    for k, q in ((2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3)):
        yield projective_instance(ProjectiveParams(k, q)).instance


def _offered(instance):
    """Each source's candidate pair on a fresh copy of `instance`, by name.

    The sandwich is offered after `_search` has found nu and tau, as
    `_root_lp` offers it.
    """
    fresh = _fresh(instance)
    ctx = solvers._context(fresh)
    uniform = solvers._uniform_pair(ctx)
    solvers._search(ctx, fresh.max_depth[0])
    return ctx, {"_uniform_pair": uniform, "_sandwich_pair": solvers._sandwich_pair(ctx)}


def test_candidates_agree_with_the_simplex():
    # every candidate a source offers passes the certificate and has the
    # value of the kernel LP, solved on a fresh context
    offered = {"_uniform_pair": 0, "_sandwich_pair": 0}
    for instance in _candidate_families():
        ctx, pairs = _offered(instance)
        for source, pair in pairs.items():
            if pair is None:
                continue
            offered[source] += 1
            assert solvers._certificate_problem(ctx, *pair) is None
            sol = pair[1]
            lp = solvers._incidence_lp(solvers._context(_fresh(instance)))[1]
            assert Fraction(sol.value, sol.den) == Fraction(lp.value, lp.den)
    assert min(offered.values()) > 5


@pytest.mark.parametrize("source", ["_uniform_pair", "_sandwich_pair"])
@pytest.mark.parametrize(
    "forged, reason",
    [(LPSolution(1, value, primal, dual, 0), reason) for value, primal, dual, reason in FORGED]
    + [(LPSolution(den, 0, (0,) * 4, (0,) * 4, 0), "denominator") for den in (0, -1)]
    + [(LPSolution(1, *WRONG_LENGTH[:3], 0), WRONG_LENGTH[3])],
)
def test_a_forged_candidate_falls_through_to_the_simplex(monkeypatch, source, forged, reason):
    real = solvers.solve_lp_max
    solved = []

    def recording(A, b, c):
        solved.append(A)
        return real(A, b, c)

    monkeypatch.setattr(solvers, "solve_lp_max", recording)
    offered = []

    def forging(ctx):
        offered.append(ctx)
        return GAP_POINTS, forged

    monkeypatch.setattr(solvers, source, forging)
    instance = inst(*GAP)
    ctx = solvers._context(instance)
    assert re.search(reason, solvers._certificate_problem(ctx, GAP_POINTS, forged))
    cover, matching = fractional_pair(instance)
    assert cover.value == matching.value == Fraction(5, 2)
    assert offered == [ctx] and len(solved) == 1
    assert ctx.root[1].pivots > 0  # the simplex's answer, not the forged one


def _distinct_edges(instance):
    return list(dict.fromkeys(instance.edges))


def _certified_pairs(instance):
    """Every pair a source offers on `instance`, and the kernel simplex's."""
    ctx, pairs = _offered(instance)
    yield from (pair for pair in pairs.values() if pair is not None)
    yield solvers._incidence_lp(ctx)


def test_certificate_agrees_with_the_dict_reference_on_candidates():
    for instance in _candidate_families():
        ctx = solvers._context(_fresh(instance))
        edge_sets = _distinct_edges(instance)
        for points, sol in _certified_pairs(instance):
            got = solvers._certificate_problem(ctx, points, sol)
            assert got == reference_certificate_problem(edge_sets, points, sol) is None
    # uniform pairs whose weights and loads have several bits: s = 57 and
    # D = 57 * 57 on PG(3,7), s = 40 on PG(4,3), s = 31 on PG(5,2)
    for k, q in ((3, 7), (4, 3), (5, 2)):
        instance = projective_instance(ProjectiveParams(k, q)).instance
        ctx = solvers._context(instance)
        points, sol = solvers._uniform_pair(ctx)
        got = solvers._certificate_problem(ctx, points, sol)
        assert got == reference_certificate_problem(_distinct_edges(instance), points, sol) is None


def _plain_overloaded(masks, weights, D):
    """The mask of the points whose load, summed point by point, exceeds D."""
    load = Counter()
    for m, w in zip(masks, weights):
        for pt in mask_points(m):
            load[pt] += w
    return sum(1 << pt for pt, v in load.items() if v > D)


def test_overloaded_points_match_a_per_point_sum():
    rng = random.Random(33)
    for trial in range(300):
        n_points = rng.randint(1, 40)
        masks = [rng.randrange(1, 1 << n_points) for _ in range(rng.randint(1, 30))]
        # several weight groups, zeros among them, up to 2^70
        palette = [0] + [
            rng.randint(1, 1 << rng.choice([1, 3, 12, 40, 70])) for _ in range(rng.randint(1, 5))
        ]
        weights = [rng.choice(palette) for _ in masks]
        loads = [sum(w for m, w in zip(masks, weights) if m >> pt & 1) for pt in range(n_points)]
        top = max(loads)
        # D just below, at and just above the maximum load, and with bits above every load
        for D in (max(top - 1, 0), top, top + 1, 1 << (top.bit_length() + 3)):
            expected = _plain_overloaded(masks, weights, D)
            assert solvers._overloaded_points(masks, weights, D) == expected, (trial, D)
    # a uniform pair loads every point with D exactly
    for k, q in ((3, 7), (4, 3), (5, 2)):
        instance = projective_instance(ProjectiveParams(k, q)).instance
        ctx = solvers._context(instance)
        points, sol = solvers._uniform_pair(ctx)
        every = sum(1 << pt for pt in points)
        assert solvers._overloaded_points(ctx.masks, sol.primal, sol.den - 1) == every
        assert solvers._overloaded_points(ctx.masks, sol.primal, sol.den) == 0


def _forge(rng, case, ctx, points, sol):
    """A copy of the certified pair (points, sol) broken, or maybe not, as `case` says."""
    D, primal, dual, value = sol.den, list(sol.primal), list(sol.dual), sol.value
    if case == "negative":
        side = rng.choice([primal, dual])
        side[rng.randrange(len(side))] = -rng.randint(1, D)
    elif case == "missed":
        # the cover's weight taken off every point of one edge, or off one point
        edge = set(mask_points(rng.choice(ctx.masks)))
        drop = edge if rng.random() < 0.7 else {rng.choice(points)}
        dual = [0 if pt in drop else w for pt, w in zip(points, dual)]
    elif case == "overloaded":
        primal[rng.randrange(len(primal))] += rng.randint(1, D)
    elif case == "values":
        # one side's sum or the value moved, every constraint kept
        side = rng.choice(["value", "primal", "dual"])
        if side == "value":
            value += rng.choice([-1, 1]) * rng.randint(1, D)
        elif side == "primal":
            i = rng.choice([i for i, w in enumerate(primal) if w])
            primal[i] -= rng.randint(1, primal[i])
        else:
            dual[rng.randrange(len(dual))] += rng.randint(1, D)
    elif case == "length":
        # one weight added to, or taken off, the end of one side
        side = rng.choice([primal, dual])
        if side and rng.random() < 0.5:
            side.pop()
        else:
            side.append(rng.randint(0, D))
    else:
        D = rng.choice([0, -1, -D])
    return LPSolution(D, value, tuple(primal), tuple(dual), sol.pivots)


# each case's forgeries and the reference's reason for refusing them
FORGE_CASES = {
    "negative": "negative weight",
    "missed": "misses an edge",
    "overloaded": "overloads a point",
    "values": "duality",
    "length": "wrong number",
    "denominator": "denominator",
}


def test_certificate_agrees_with_the_dict_reference_on_forged_pairs():
    pairs = [
        (instance, pair)
        for instance in _candidate_families()
        for pair in _certified_pairs(instance)
    ]
    rng = random.Random(29)
    caught = Counter()
    for seed in range(250):
        instance, (points, sol) = pairs[rng.randrange(len(pairs))]
        ctx = solvers._context(instance)
        case = list(FORGE_CASES)[seed % len(FORGE_CASES)]
        forged = _forge(rng, case, ctx, points, sol)
        expected = reference_certificate_problem(_distinct_edges(instance), points, forged)
        assert solvers._certificate_problem(ctx, points, forged) == expected, (seed, case)
        if expected is not None:
            caught[case] += bool(re.search(FORGE_CASES[case], expected))
    assert set(caught) == set(FORGE_CASES) and sum(caught.values()) >= 200, caught


@pytest.mark.parametrize("points", [[0, 0, 1, 2, 3], [1, 0, 2, 3], [0, 2, 1, 3], [-1, 0, 1, 2, 3]])
def test_a_candidate_with_unordered_points_falls_through_to_the_simplex(monkeypatch, points):
    # the optimal weights on GAP ({0, 1}, {1, 2}, {0, 2}, {3}) over D = 2,
    # 1 on points 0, 1, 2 and 2 on point 3 where each first appears, but for
    # points that are repeated, decreasing or not point ids
    weight = {0: 1, 1: 1, 2: 1, 3: 2}
    dual = tuple(weight.get(pt, 0) if points.index(pt) == i else 0 for i, pt in enumerate(points))
    forged = LPSolution(2, 5, (1, 1, 1, 2), dual, 0)

    monkeypatch.setattr(solvers, "_uniform_pair", lambda ctx: (points, forged))
    instance = inst(*GAP)
    ctx = solvers._context(instance)
    problem = solvers._certificate_problem(ctx, points, forged)
    assert re.search("not strictly increasing point ids", problem)
    cover, matching = fractional_pair(instance)
    assert cover.value == matching.value == Fraction(5, 2)
    assert ctx.root[1].pivots > 0  # the simplex's answer, not the forged one


def _degree_set_pair(instance):
    """`_uniform_pair`'s pair by the degree-set rule on plain sets, or None."""
    if not _uniform_and_regular(instance):
        return None
    edge_sets = _distinct_edges(instance)
    points = sorted(set().union(*edge_sets))
    s = len(edge_sets[0])
    r = sum(points[0] in e for e in edge_sets)
    n = len(edge_sets)
    return points, LPSolution(r * s, n * s, (s,) * n, (r,) * len(points), 0)


def _regularity_cases():
    yield from _candidate_families()
    for seed in range(200):
        yield random_abstract_instance(seed + 2900)


def test_layer_regularity_equals_the_degree_set_rule():
    offered = 0
    for instance in _regularity_cases():
        pair = solvers._uniform_pair(solvers._context(_fresh(instance)))
        assert pair == _degree_set_pair(instance)
        offered += pair is not None
    assert offered > 5


@pytest.mark.parametrize(
    "edges, degrees",
    [
        # a star: the centre on 3 edges, each leaf on 1 (bits 11 and 01)
        (({0, 1}, {0, 2}, {0, 3}), {1, 3}),
        # K4 less an edge: 0 and 1 on 3 edges, 2 and 3 on 2 (bits 11 and 10)
        (({0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}), {2, 3}),
    ],
)
def test_uniform_pair_refuses_degrees_apart_in_one_bit(edges, degrees):
    instance = inst(*edges)
    edge_sets = _distinct_edges(instance)
    assert {len(e) for e in edge_sets} == {2}
    assert {sum(pt in e for e in edge_sets) for pt in range(4)} == degrees
    assert solvers._uniform_pair(solvers._context(instance)) is None


@pytest.mark.parametrize(
    "instance, r, s",
    [
        (inst(*({i, (i + 1) % 5} for i in range(5))), 2, 2),  # C5
        (projective_instance(ProjectiveParams(2, 3)).instance, 4, 4),  # PG(2,3)
    ],
)
def test_uniform_pair_offers_regular_uniform_instances(instance, r, s):
    points, sol = solvers._uniform_pair(solvers._context(_fresh(instance)))
    n = len(_distinct_edges(instance))
    assert points == list(range(instance.ground_size))
    assert sol == LPSolution(r * s, n * s, (s,) * n, (r,) * len(points), 0)
    assert solvers._certificate_problem(solvers._context(instance), points, sol) is None


def test_settled_root_builds_no_point_to_edge_masks(monkeypatch):
    # only the kernel LP builds the point->edge masks, and only the
    # min-degree matching the conflict masks
    def refuse(ctx):
        raise AssertionError("called on a settled root")

    monkeypatch.setattr(solvers, "_incidence_lp", refuse)
    monkeypatch.setattr(solvers, "_min_degree_matching", refuse)
    # the family `dpierce gen --kind planted-intervals --p 4 --q 3` writes:
    # nu = tau = 1, settled by the sandwich of the first-fit matching and
    # the greedy cover, so the min-degree matching is never built either
    planted = to_incidence(planted_pq_family(GenConfig(seed=1), PQParameters(4, 3)))
    measures = solve(planted)
    ctx = solvers._context(planted)
    assert (measures.nu.optimum, measures.tau.optimum, measures.tau_star) == (1, 1, 1)
    assert solvers._uniform_pair(ctx) is None and ctx.root == solvers._sandwich_pair(ctx)
    # settled by uniform weights, before any search
    pg = projective_instance(ProjectiveParams(2, 3)).instance
    fractional_pair(pg)
    assert solvers._context(pg).cover is None


def test_plain_cover_is_the_zero_weight_greedy():
    corpora = (_root_families(), _kernel_families(), _incumbent_corpus(), _candidate_families())
    for instance in itertools.chain(*corpora):
        ctx = solvers._context(_fresh(instance))
        assert ctx.plain_cover == reference_greedy_cover(instance)


def test_sharpness_probe_needs_no_simplex_on_projective_spaces(monkeypatch):
    def refuse(A, b, c):
        raise AssertionError("simplex called")

    monkeypatch.setattr(solvers, "solve_lp_max", refuse)
    for k, q in ((2, 13), (3, 7), (4, 3)):
        (row,) = sharpness_probe(k, [q])
        assert (row["dimension"], row["field_order"]) == (k, q)
        assert Fraction(row["tau_star"]) == q + Fraction(1, sum(q**i for i in range(k)))


def test_sandwich_nu_le_fractional_le_tau():
    for seed in range(30):
        i = random_abstract_instance(seed + 1000)
        nu = matching_number(i).optimum
        tau = covering_number(i).optimum
        frac = fractional_pair(i)[0].value
        assert Fraction(nu) <= frac <= Fraction(tau)


# ---------------------------------------------------------------------------
# (p,q) checks
# ---------------------------------------------------------------------------

def test_pq_three_disjoint_intervals():
    f = fam(1, [(0, 1)], [(2, 3)], [(4, 5)])
    verdict = pq_check(to_incidence(f), PQParameters(3, 2))
    assert not verdict.holds
    assert verdict.counterexample == frozenset({0, 1, 2})


def test_pq_fano_22():
    assert pq_check(FANO, PQParameters(2, 2)).holds


def test_pq_pg32_33_matches_plain_enumeration():
    # independent oracle: all 455 triples of planes, no pruning
    for combo in itertools.combinations(range(15), 3):
        common = PG32.edges[combo[0]] & PG32.edges[combo[1]] & PG32.edges[combo[2]]
        assert common  # any 3 hyperplanes of PG(3,2) share a point
    verdict = pq_check(PG32, PQParameters(3, 3))
    assert verdict.holds and not verdict.vacuous


def test_pq_vacuous_below_p_edges():
    verdict = pq_check(inst({0}, {1}), PQParameters(5, 2))
    assert verdict.holds and verdict.vacuous


def test_pq_repeated_edges_do_not_count_twice():
    # two copies of one edge plus a disjoint edge: the only 2 distinct edges
    # are disjoint, so (2,2) fails despite the multiset having 3 members
    i = inst({0, 1}, {0, 1}, {2, 3})
    verdict = pq_check(i, PQParameters(2, 2))
    assert not verdict.holds


def test_pq_monotonicity_spot_checks():
    for seed in range(12):
        i = random_abstract_instance(seed + 77, max_points=10, max_edges=7)
        for p, q in ((3, 2), (3, 3), (4, 2)):
            if pq_check(i, PQParameters(p, q)).holds:
                assert pq_check(i, PQParameters(p + 1, q)).holds
                if q > 2:
                    assert pq_check(i, PQParameters(p, q - 1)).holds


def _random_pq_instance(seed):
    """Up to 11 random edges, repeats allowed, on 3 to 8 points."""
    rng = random.Random(seed)
    ground = rng.randint(3, 8)
    edges = tuple(
        frozenset(rng.sample(range(ground), rng.randint(1, ground - 1)))
        for _ in range(rng.randint(3, 11))
    )
    return HypergraphInstance(ground_size=ground, edges=edges, provenance="abstract")


def _pq_corpus():
    """Random hypergraphs, crowded interval families, subforests and repeats."""
    for seed in range(240):
        yield _random_pq_instance(seed)
    for seed in range(60):
        rng = random.Random(seed + 4100)
        yield to_incidence(crowded_family(rng, rng.randint(1, 3), rng.randint(3, 11)))
    for seed in range(60):
        cfg = GenConfig(seed=seed + 4200, n_edges=4 + seed % 8, d=1 + seed % 3, host_size=9)
        yield to_incidence(random_subforests(random_tree(cfg), cfg))
    for seed in range(60):
        rng = random.Random(seed + 4300)
        base = _random_pq_instance(seed + 4300).edges[: rng.randint(1, 11)]
        edges = tuple(rng.choice(base) for _ in range(len(base) + rng.randint(1, 6)))
        yield HypergraphInstance(
            ground_size=max(set().union(*edges)) + 1, edges=edges, provenance="abstract"
        )


def test_pq_check_matches_unpruned_enumeration(monkeypatch):
    real_search, searches = solvers._packing_search, []

    def counted_search(*args):
        searches.append(args)
        return real_search(*args)

    monkeypatch.setattr(solvers, "_packing_search", counted_search)
    pairs = ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 3), (6, 3))
    outcomes = set()
    holding_paths = set()  # (p, q) and whether the packing search decided
    for instance in _pq_corpus():
        first = {}
        for i, e in enumerate(instance.edges):
            first.setdefault(e, i)
        for p, q in pairs:
            before = len(searches)
            verdict = pq_check(instance, PQParameters(p, q))
            expected = reference_pq_check(instance, p, q)
            assert (verdict.holds, verdict.counterexample) == expected
            if verdict.counterexample is not None:
                assert all(first[instance.edges[i]] == i for i in verdict.counterexample)
            searched = len(searches) > before
            if not verdict.holds:
                assert searched
            elif not verdict.vacuous:
                holding_paths.add((p, q, searched))
            outcomes.add((p, q, verdict.holds, verdict.vacuous))
    # every pair sees holding, failing and vacuous instances
    assert len(outcomes) == 3 * len(pairs)
    # every pair sees holding verdicts from the pigeonhole cover, and some
    # come from an exhausted packing search
    assert {(p, q, False) for p, q in pairs} <= holding_paths
    assert any(searched for _, _, searched in holding_paths)


def test_meeting_class_prune_keeps_the_first_packing(monkeypatch):
    # the packing search returns the lexicographically first packing of the
    # unpruned enumeration, or None, with the class prune and without it,
    # on failing and holding (p,2) checks; a search whose include-first
    # path never backtracks never builds the classes
    real, asked = solvers._meeting_classes, []

    def recorded(masks, start, taken, need):
        asked.append(need)
        return real(masks, start, taken, need)

    realizations = (projective_instance(ProjectiveParams(2, q)).realization for q in (2, 3))
    instances = itertools.chain(_pq_corpus(), map(to_incidence, realizations))
    outcomes, fired = set(), 0
    for instance in instances:
        ctx = solvers._context(instance)
        position = {i: j for j, i in enumerate(ctx.firsts)}
        for p in range(2, 6):
            holds, first = reference_pq_check(instance, p, 2)
            expected = None if holds else sorted(position[i] for i in first)
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_meeting_classes", lambda masks, start, taken, need: need)
                unpruned_nodes = [0]
                assert solvers._packing_search(ctx.masks, p, 2, unpruned_nodes) == expected
            monkeypatch.setattr(solvers, "_meeting_classes", recorded)
            asked.clear()
            nodes = [0]
            assert solvers._packing_search(ctx.masks, p, 2, nodes) == expected
            assert nodes[0] <= unpruned_nodes[0]
            fired += nodes[0] < unpruned_nodes[0]
            if len(ctx.plain_matching) >= p:
                # the include-first path takes the first fit, with no backtrack
                assert expected == ctx.plain_matching[:p] and asked == []
            outcomes.add(holds)
    assert outcomes == {True, False} and fired > 20


def test_meeting_classes_are_pairwise_meeting():
    # PG(2,3)'s lines meet pairwise: one class; disjoint masks: one class each
    lines = solvers._context(projective_instance(ProjectiveParams(2, 3)).instance).masks
    assert solvers._meeting_classes(lines, 0, 0, 99) == 1
    assert solvers._meeting_classes([1, 2, 4, 8], 0, 0, 99) == 4
    # the count stops at `need`, and skips masks before `start` or meeting `taken`
    assert solvers._meeting_classes([1, 2, 4, 8], 0, 0, 3) == 3
    assert solvers._meeting_classes([1, 2, 4, 8], 1, 4, 99) == 2


def _tau_at_most(instance, t) -> bool:
    """naive_oracle's tau <= t, on the distinct edges (copies never change tau)."""
    distinct = HypergraphInstance(
        ground_size=instance.ground_size,
        edges=tuple(dict.fromkeys(instance.edges)),
        provenance="abstract",
    )
    return naive_oracle(distinct, "tau") <= t


def test_pigeonhole_cover_is_exact():
    instances = list(_pq_corpus()) + [random_abstract_instance(seed + 4500) for seed in range(200)]
    found = set()
    for instance in instances:
        masks, r = solvers._context(instance).masks, instance.max_depth[0]
        for t in (1, 2, 3, 4):
            cover = solvers._cover_at_most(masks, t, r, [0])
            assert (cover is not None) == _tau_at_most(instance, t)
            if cover is not None:
                assert cover.bit_count() <= t
                assert verify_cover(instance, model.mask_points(cover))
            found.add((t, cover is not None))
    assert len(found) == 8


def _cover_nodes(monkeypatch) -> list:
    """Record each `_cover_within` node as [live, k, children visited, result], in call order."""
    real, nodes, open_nodes = solvers._cover_within, [], []

    def recorded(live, k, counter):
        if open_nodes:
            open_nodes[-1][2] += 1
        node = [list(live), k, 0, None]
        nodes.append(node)
        open_nodes.append(node)
        node[3] = real(live, k, counter)
        open_nodes.pop()
        return node[3]

    monkeypatch.setattr(solvers, "_cover_within", recorded)
    return nodes


def _masks(*edges):
    return [sum(1 << pt for pt in e) for e in edges]


def _packing_prunes(live, k):
    return len(solvers._first_fit(live, 0, 0, k + 1)) > k


def _depth_prunes(live, k):
    return len(live) > k * model._deepest_point(live)[0]


FANO_LINES = [set(e) for e in FANO.edges]


@pytest.mark.parametrize(
    "edges, t, holds, fires",
    [
        # t = 1 closes with the AND of the masks: a common point, or none
        ([{0, 1}, {0, 2}, {0, 3}], 1, True, "and"),
        # copies count in the depth r, so 2 distinct masks pass 1 * r = 3
        ([{0, 1}, {0, 1}, {0, 1}, {2}], 1, False, "and"),
        # a first-fit packing {4}, {5}, {0, 1} of three masks needs three points
        ([{0, 1}, {0, 2}, {0, 3}, {4}, {5}], 2, False, "packing"),
        # taking point 7 leaves the Fano lines: 7 of them, 3 through each point
        ([{7}] + FANO_LINES, 3, False, "depth"),
        # on the first mask {0, 3}, point 0 lies on no other: only 3 is tried
        ([{1, 2, 5}, {1, 2, 4}, {1, 3, 4}, {0, 3}, {4, 5}, {2, 3}], 2, False, "dominated"),
        # on the first mask {3, 5}, both points lie on the same masks: only 3 is tried
        ([{3, 5}, {0, 1, 4}, {1, 2}, {0, 2}, {1, 3, 5}], 2, False, "dominated"),
    ],
)
def test_pigeonhole_cover_prunes(monkeypatch, edges, t, holds, fires):
    nodes = _cover_nodes(monkeypatch)
    instance = inst(*edges)
    masks, counter = solvers._context(instance).masks, [0]
    cover = solvers._cover_at_most(masks, t, instance.max_depth[0], counter)
    assert (cover is not None) == holds == _tau_at_most(instance, t)
    assert nodes, "the search ran"
    assert counter == [len(nodes)]
    if fires == "and":
        assert [(k, children) for _, k, children, _ in nodes] == [(1, 0)]
    elif fires in ("packing", "depth"):
        # a node with room for more than one point, dropped unvisited by this prune alone
        assert any(
            k > 1 and children == 0 and result is None and live
            and _packing_prunes(live, k) == (fires == "packing")
            and _depth_prunes(live, k) == (fires == "depth")
            for live, k, children, result in nodes
        )
    else:
        live, k, children, _ = nodes[0]
        assert k > 1 and not _packing_prunes(live, k) and not _depth_prunes(live, k)
        assert children < live[0].bit_count()


def test_pq_check_decides_planted_families_by_their_cover(monkeypatch):
    def no_search(*args):
        raise AssertionError("the packing search ran on a planted family")

    monkeypatch.setattr(solvers, "_packing_search", no_search)
    for p, q in ((2, 2), (3, 2), (4, 3), (5, 3), (6, 3), (7, 3)):
        params = PQParameters(p, q)
        for n in (9, 30, 40):
            cfg = GenConfig(seed=4600 + 7 * p + n, n_edges=n, d=3, host_size=12)
            for family in (planted_pq_family(cfg, params), planted_pq_subforests(cfg, params)):
                verdict = pq_check(to_incidence(family), params)
                assert verdict.holds and not verdict.vacuous


# ---------------------------------------------------------------------------
# max depth
# ---------------------------------------------------------------------------

def test_max_depth_examples():
    assert max_depth(FANO) == (3, 0)
    r, _ = max_depth(inst({0}, {1}, {2}))
    assert r == 1
    assert max_depth(inst(*[{0, 1}] * 5)) == (5, 0)  # copies count


def test_max_depth_matches_incidence_count():
    ties = inst({0, 3}, {1, 3}, {0, 1}, {2})  # 0, 1 and 3 tie: the lowest wins
    empty = to_incidence(make_family(1, []))
    instances = list(_pq_corpus()) + [
        ties,
        inst({0, 1}, {1, 2}, {0, 1}, {2}),  # a copy decides the depth
        inst({2, 5}, {5, 7}, {2, 7}, ground=9),  # the tie misses point 0
        inst({0}, {0}, {0}),  # one-point ground
        empty,
        to_incidence(random_d_intervals(GenConfig(seed=17, n_edges=200, d=4))),
    ]
    for instance in instances:
        assert max_depth(instance) == reference_max_depth(instance)
    assert max_depth(ties) == (2, 0)
    assert max_depth(empty) == (0, None)


def test_interval_edge_masks_match_the_generic_build():
    families = [
        fam(2, [(-3, -1), (2, 5)], [(-2, 0)], [(-3, -1), (2, 5)], [(5, 5)]),
        fam(2, [("1/3", "1/2"), ("5/7", "6/7")], [("2/5", "5/7")], [("1/2", "1/2")]),
        fam(1, [(0, 0)], [(0, 0)], [(0, 1)], [("-1/9", 0)]),
    ]
    for seed in range(20):
        rng = random.Random(seed + 4400)
        families.append(crowded_family(rng, rng.randint(1, 4), rng.randint(1, 12)))
    families.append(random_d_intervals(GenConfig(seed=18, n_edges=60, d=4)))
    for family in families:
        built = to_incidence(family)
        fresh = HypergraphInstance(built.ground_size, built.edges, "interval")
        assert built.edge_masks == fresh.edge_masks
        assert built.edge_masks == tuple(sum(1 << pt for pt in e) for e in built.edges)
        assert built == fresh and max_depth(built) == max_depth(fresh)


def _record_depth_counts(monkeypatch) -> list:
    """Record every count of point loads from here on."""
    calls = []
    original = model._deepest_point

    def counting(edges):
        calls.append(edges)
        return original(edges)

    monkeypatch.setattr(model, "_deepest_point", counting)
    return calls


def test_max_depth_is_counted_once_per_instance(monkeypatch):
    calls = _record_depth_counts(monkeypatch)
    i = to_incidence(random_d_intervals(GenConfig(seed=3, n_edges=8, d=2)))
    verdict = pq_check(i, PQParameters(3, 2))
    assert verdict.max_depth == max_depth(i)[0]
    assert max_depth(i) == max_depth(i)
    assert len(calls) == 1
    fresh = to_incidence(random_d_intervals(GenConfig(seed=3, n_edges=8, d=2)))
    assert max_depth(fresh) == max_depth(i)
    assert len(calls) == 2


def test_verify_bundle_counts_depth_once(monkeypatch):
    params = PQParameters(2, 2)
    family = planted_pq_family(GenConfig(seed=5, n_edges=8, d=2), params)
    calls = _record_depth_counts(monkeypatch)
    kinds = [BoundKind.DPP_STAR, BoundKind.DPP_TAU, BoundKind.ALON]
    reports = verify_bundle(family, kinds, params=params)
    assert len(calls) == 1
    assert {rep.r for rep in reports} == {max_depth(to_incidence(family))[0]}


def test_read_depth_leaves_equality_hash_and_pickle_alone():
    edges = ({0, 1}, {1, 2}, {1})
    read = inst(*edges)
    assert max_depth(read) == (3, 1)
    # solved by every solver and by the (p,q) check, which fails here
    solved = inst(*edges, {0, 1}, {2})
    solve(solved)
    assert not pq_check(solved, PQParameters(2, 2)).holds
    for used, fresh in ((read, inst(*edges)), (solved, inst(*edges, {0, 1}, {2}))):
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(used))
        assert back == fresh
        assert max_depth(back) == max_depth(fresh)
        assert covering_number(back) == covering_number(used)
    assert max_depth(pickle.loads(pickle.dumps(read))) == (3, 1)


# ---------------------------------------------------------------------------
# oracle and oracle agreement
# ---------------------------------------------------------------------------

def test_naive_oracle_examples():
    assert naive_oracle(FANO, "tau") == 3
    assert naive_oracle(FANO, "nu") == 1
    assert naive_oracle(inst({0, 1}, {2, 3}), "tau") == 2


def test_naive_oracle_guard():
    big = HypergraphInstance(
        ground_size=30, edges=(frozenset({0}),), provenance="abstract"
    )
    with pytest.raises(TooLarge):
        naive_oracle(big, "tau")
    many = HypergraphInstance(
        ground_size=2, edges=(frozenset({0}),) * 15, provenance="abstract"
    )
    with pytest.raises(TooLarge):
        naive_oracle(many, "nu")
    with pytest.raises(ValueError):
        naive_oracle(FANO, "sigma")


def test_solvers_match_oracle_on_mixed_instances():
    for seed in range(40):
        i = random_abstract_instance(seed)
        assert covering_number(i).optimum == naive_oracle(i, "tau")
        assert matching_number(i).optimum == naive_oracle(i, "nu")
    for seed in range(10):
        f = random_d_intervals(GenConfig(seed=seed, n_edges=5, d=2))
        i = to_incidence(f)
        assert covering_number(i).optimum == naive_oracle(i, "tau")
        assert matching_number(i).optimum == naive_oracle(i, "nu")
    for seed in range(10):
        host = random_tree(GenConfig(seed=seed, host_size=8))
        f = random_subforests(host, GenConfig(seed=seed + 1, n_edges=6, d=2, host_size=8))
        i = to_incidence(f)
        assert covering_number(i).optimum == naive_oracle(i, "tau")
        assert matching_number(i).optimum == naive_oracle(i, "nu")


def test_multiplicity_does_not_change_nu_tau():
    base = inst({0, 1}, {1, 2}, {3})
    # copies are repeated edges: four of {0, 1} and two of {3}
    copied = inst({0, 1}, {3}, {0, 1}, {1, 2}, {0, 1}, {3}, {0, 1})
    assert covering_number(base).optimum == covering_number(copied).optimum
    assert matching_number(base).optimum == matching_number(copied).optimum
    assert fractional_pair(base)[0].value == fractional_pair(copied)[0].value
    assert max_depth(copied) == (5, 1)


def test_covering_number_counts_its_descent_nodes(monkeypatch):
    # the root, then every hitting-set node of the descent from the plain
    # greedy cover, one step per point it drops, down to the start matching
    nodes = _cover_nodes(monkeypatch)
    descended = failed = 0
    for instance in itertools.chain(_incumbent_corpus(), _pq_corpus()):
        nodes.clear()
        tau = covering_number(instance)
        assert tau.node_count == 1 + len(nodes)
        ctx = solvers._context(instance)
        plain = ctx.plain_cover
        # a child drops the masks through a point, so a step's first node
        # is the one with every distinct mask live
        steps = [(k, cover) for live, k, _, cover in nodes if len(live) == len(ctx.masks)]
        if steps:
            assert steps[0][0] == len(plain) - 1
        assert all(cover is not None for _, cover in steps[:-1])
        assert all(a[0] > b[0] for a, b in zip(steps, steps[1:]))
        # no step asks for fewer points than the start matching has edges,
        # and only an ask for tau - 1 points fails
        assert all(k >= len(_start_matching(instance)) for k, _ in steps)
        if steps and steps[-1][1] is None:
            assert steps[-1][0] == tau.optimum - 1
            failed += 1
        descended += len(plain) > tau.optimum
        assert len(tau.witness) == tau.optimum <= len(plain)
        assert verify_cover(instance, tau.witness)
        try:
            assert tau.optimum == naive_oracle(instance, "tau")
        except TooLarge:
            pass
    assert descended > 10 and failed > 10


def _greedy_trap():
    """Greedy cover 4 points, tau 2: every edge is {row point, block point, own point}.

    Points 0 and 1 are the rows, each on 30 edges; points 2..5 the blocks,
    on 4, 8, 16 and 32 edges, half in each row.  The greedy takes the
    blocks, deepest first, where the two rows cover every edge.
    """
    edges, own = [], 6
    for block, size in enumerate((2, 4, 8, 16)):
        for row in (0, 1):
            for _ in range(size):
                edges.append({row, 2 + block, own})
                own += 1
    return inst(*edges)


def test_covering_number_descends_from_any_cover_the_search_returns(monkeypatch):
    # the search may return any cover of at most t points: padded to exactly
    # t, each step drops one point, and the descent still reaches tau
    trap = _greedy_trap()
    assert len(solvers._context(trap).plain_cover) == 4
    cases = [(trap, 2)]
    for instance in itertools.chain(_incumbent_corpus(), _pq_corpus()):
        tau = covering_number(instance).optimum
        if len(solvers._context(instance).plain_cover) > tau + 1:
            cases.append((instance, tau))
    assert len(cases) > 2
    real = solvers._cover_at_most

    def padded(masks, t, r, nodes):
        cover = real(masks, t, r, nodes)
        if cover is None:
            return None
        spare = reduce(or_, masks) & ~cover
        while cover.bit_count() < t and spare:
            cover |= spare & -spare
            spare &= spare - 1
        return cover

    monkeypatch.setattr(solvers, "_cover_at_most", padded)
    for instance, tau in cases:
        result = covering_number(_fresh(instance))
        assert result.optimum == tau and verify_cover(instance, result.witness)


@pytest.mark.parametrize("n, k", [(8, 2), (9, 3), (10, 4)])
def test_complete_uniform_hypergraphs_keep_their_integrality_gap(n, k):
    # every k-subset of [n]: tau = n-k+1 (any n-k points miss a k-subset,
    # and n-k+1 points meet them all) exceeds ceil(tau*) = ceil(n/k)
    instance = inst(*itertools.combinations(range(n), k))
    measures = solve(instance)
    assert measures.tau.optimum == n - k + 1
    assert measures.tau_star == Fraction(n, k)
    assert measures.nu.optimum == n // k
    assert len(measures.tau.witness) == n - k + 1 and verify_cover(instance, measures.tau.witness)
    assert len(measures.nu.witness) == n // k and verify_matching(instance, measures.nu.witness)
    # uniform weights certify tau* first, and the first-fit matching meets
    # its floor, so nu asks the packing search nothing
    assert measures.nu.node_count == 1


def test_witnesses_reverify():
    for seed in range(20):
        i = random_abstract_instance(seed + 500)
        tau = covering_number(i)
        nu = matching_number(i)
        assert verify_cover(i, tau.witness)
        assert verify_matching(i, nu.witness)
        assert not verify_cover(i, frozenset()) or not i.edges


def _set_cover(instance, points) -> bool:
    """`verify_cover` on the point sets."""
    pts = set(points)
    return all(e & pts for e in instance.edges)


def _set_matching(instance, edge_ids) -> bool:
    """`verify_matching` on the point sets."""
    ids = sorted(set(edge_ids))
    if any(not (0 <= i < len(instance.edges)) for i in ids):
        return False
    sets = [instance.edges[i] for i in ids]
    if len(set(sets)) != len(sets):
        return False
    return not any(a & b for a, b in itertools.combinations(sets, 2))


def test_verify_cover_and_matching_agree_with_the_point_sets():
    instances = [
        inst({0, 1}, {1, 2}, {3}, ground=5),
        inst({0, 1}, {0, 1}, {2}, {3, 4}),  # two copies of edge 0
        FANO,
        to_incidence(make_family(1, [])),  # no edge, one ground point
        HypergraphInstance(3, ()),
    ]
    covers = [[], [1], [1, 3], [0, 2, 3], [-1, 3], [1, 3, -2, 5, 100], [7, -7], list(range(8))]
    matchings = [[], [0], [0, 2], [0, 1], [1, 1], [0, 2, 2], [-1], [3], [10], [0, 3], [0, 3, 3]]
    for instance in instances:
        for points in covers:
            assert verify_cover(instance, points) == _set_cover(instance, points), (instance, points)
        for ids in matchings:
            assert verify_matching(instance, ids) == _set_matching(instance, ids), (instance, ids)
    assert verify_cover(instances[3], []) and verify_matching(instances[3], [])
    assert not verify_matching(instances[3], [0])
    assert not verify_matching(instances[1], [0, 1])  # copies are never disjoint
    assert verify_matching(instances[1], [0, 2, 3])


@pytest.mark.parametrize("edge_id", [1.0, True, Fraction(1), "a", None])
def test_verify_matching_takes_only_int_edge_ids(edge_id):
    # like `verify_cover`: a value that is not an int edge id in range makes
    # the matching invalid, never an error or edge 1
    i = inst({0}, {1})
    assert verify_matching(i, [1]) and verify_matching(i, [0, 1])
    assert not verify_matching(i, [edge_id])
    assert not verify_matching(i, [edge_id, 1]) and not verify_matching(i, [0, edge_id])


@pytest.mark.parametrize("point", [1.0, True, Fraction(1)])
def test_verify_cover_counts_only_int_points(point):
    # a value equal to the int point 1 is not that point: it covers nothing,
    # where a set of points would take it for 1
    i = inst({1}, {0, 1})
    assert verify_cover(i, [1])
    assert not verify_cover(i, [point])
    assert _set_cover(i, [point])
    # the int point still counts next to an equal value, in either order
    assert verify_cover(i, [point, 1]) and verify_cover(i, [1, point])


def test_pq_pipeline_never_builds_the_edge_sets():
    families = [
        fam(2, [(-3, -1), (2, 5)], [(-2, 0)], [(-3, -1), (2, 5)], [(5, 5)]),
        fam(1, [(0, 1)], [(2, 3)], [(4, 5)]),
        make_family(1, []),
        random_d_intervals(GenConfig(seed=23, n_edges=200, d=4)),
    ]
    for family in families:
        decided = to_incidence(family)
        pq_check(decided, PQParameters(3, 2))
        max_depth(decided)
        assert "edges" not in vars(decided)
        solved = to_incidence(family)
        measures = solve(solved)
        assert verify_cover(solved, measures.tau.witness)
        assert verify_matching(solved, measures.nu.witness)
        assert "edges" not in vars(solved)
        # read on demand, the sets are the ones the masks hold
        assert solved.edges == tuple(frozenset(model.mask_points(m)) for m in solved.edge_masks)
        assert "edges" in vars(solved)
