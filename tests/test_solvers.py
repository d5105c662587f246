import gc
import itertools
import random
from fractions import Fraction

import pytest

from dpierce import (
    HypergraphInstance,
    LPSolution,
    PQParameters,
    ProjectiveParams,
    TooLarge,
    covering_number,
    fractional_optimum,
    fractional_pair,
    matching_number,
    max_depth,
    naive_oracle,
    pq_check,
    projective_instance,
    solvers,
    to_incidence,
    verify_cover,
    verify_matching,
)
from dpierce.bounds import solve_measures
from dpierce.generators import (
    GenConfig,
    planted_pq_family,
    random_d_intervals,
    random_subforests,
    random_tree,
)

from helpers import (
    crowded_family,
    fam,
    random_abstract_instance,
    reference_kernel,
    reference_pq_check,
    reference_solve_lp_max,
)


def inst(*edges, mult=None, ground=None):
    pts = set().union(*edges) if edges else {0}
    g = ground if ground is not None else max(pts) + 1
    return HypergraphInstance(
        ground_size=g,
        edges=tuple(frozenset(e) for e in edges),
        multiplicity=tuple(mult) if mult else (),
        provenance="abstract",
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


def test_solve_measures_solves_root_lp_once(monkeypatch):
    real = solvers.solve_lp_max
    solved = []

    def recording(A, b, c):
        solved.append((tuple(map(tuple, A)), tuple(b), tuple(c)))
        return real(A, b, c)

    monkeypatch.setattr(solvers, "solve_lp_max", recording)
    for instance in _root_families():
        solved.clear()
        solve_measures(instance)
        assert solved.count(_root_lp(instance)) == 1


def test_root_value_leaves_results_identical():
    # same optimum, witness and node count with the root LP solved or given
    for instance in _root_families():
        root = fractional_pair(instance)[0].value
        assert matching_number(instance, root_value=root) == matching_number(instance)
        assert covering_number(instance, root_value=root) == covering_number(instance)


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
    sol = fractional_optimum(FANO, "cover")
    assert sol.value == Fraction(7, 3)
    assert sum(sol.weights.values()) == Fraction(7, 3)
    for e in FANO.edges:
        assert sum(sol.weights.get(pt, Fraction(0)) for pt in e) >= 1


def test_single_edge_fractional():
    assert fractional_optimum(inst({0, 1}), "cover").value == 1


def test_pg32_fractional():
    assert fractional_optimum(PG32, "cover").value == Fraction(15, 7)


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


def test_kernel_matches_pairwise_reference_and_keeps_lp_value():
    rng = random.Random(6)
    lps = shrunk = 0
    for instance in _kernel_families():
        edge_sets = [e for _, e in solvers.distinct_edges(instance)]
        n = len(edge_sets)
        masks = [(1 << n) - 1] + [rng.randrange(1, 1 << n) for _ in range(3)]
        for mask in masks:
            sub = [edge_sets[j] for j in range(n) if mask >> j & 1]
            points, sol = solvers._incidence_lp(sub)
            assert points == reference_kernel(sub)
            everything = sorted(set().union(*sub))
            A = [[1 if pt in e else 0 for e in sub] for pt in everything]
            value = reference_solve_lp_max(A, [1] * len(A), [1] * len(sub))[0]
            assert sol.value == value
            lps += 1
            shrunk += len(points) < len(everything)
    assert lps == 4 * 320
    assert shrunk > lps // 2


def test_kernel_keeps_every_point_of_pg23():
    pg = projective_instance(ProjectiveParams(2, 3)).instance
    points, sol = solvers._incidence_lp(list(pg.edges))
    assert points == list(range(pg.ground_size)) == list(range(13))
    assert sol.value == Fraction(13, 4)


# edges {0}, {0,1}, {1}: tau* = 2, points 0 and 1 both in the kernel
_PATH = inst({0}, {0, 1}, {1})


@pytest.mark.parametrize(
    "value, primal, dual, reason",
    [
        # a negative matching weight, with every sum and value in order
        (3, (2, -1, 2), (1, 2), "negative weight"),
        (2, (1, 0, 1), (2, 0), "misses an edge"),  # nothing on edge {1}
        (2, (1, 1, 0), (1, 1), "overloads a point"),  # point 0 carries 2
        (3, (1, 0, 1), (1, 1), "duality"),  # both sides sum to 2, not 3
    ],
)
def test_fractional_pair_rejects_a_bad_certificate(monkeypatch, value, primal, dual, reason):
    def forged(A, b, c):
        return LPSolution(
            Fraction(value), tuple(map(Fraction, primal)), tuple(map(Fraction, dual)), 0
        )

    monkeypatch.setattr(solvers, "solve_lp_max", forged)
    with pytest.raises(RuntimeError, match=reason):
        fractional_pair(_PATH)


def test_fractional_bad_side():
    with pytest.raises(ValueError):
        fractional_optimum(FANO, "diagonal")


def test_sandwich_nu_le_fractional_le_tau():
    for seed in range(30):
        i = random_abstract_instance(seed + 1000)
        nu = matching_number(i).optimum
        tau = covering_number(i).optimum
        frac = fractional_optimum(i, "cover").value
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
    return HypergraphInstance(
        ground_size=ground, edges=edges, multiplicity=(), provenance="abstract"
    )


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


def test_pq_check_matches_unpruned_enumeration():
    pairs = ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 3), (6, 3))
    outcomes = set()
    for instance in _pq_corpus():
        first = {}
        for i, e in enumerate(instance.edges):
            first.setdefault(e, i)
        for p, q in pairs:
            verdict = pq_check(instance, PQParameters(p, q))
            expected = reference_pq_check(instance, p, q)
            assert (verdict.holds, verdict.counterexample) == expected
            if verdict.counterexample is not None:
                assert all(first[instance.edges[i]] == i for i in verdict.counterexample)
            outcomes.add((p, q, verdict.holds, verdict.vacuous))
    # every pair sees holding, failing and vacuous instances
    assert len(outcomes) == 3 * len(pairs)


# ---------------------------------------------------------------------------
# max depth
# ---------------------------------------------------------------------------

def test_max_depth_examples():
    assert max_depth(FANO) == (3, 0)
    r, _ = max_depth(inst({0}, {1}, {2}))
    assert r == 1
    r, _ = max_depth(inst({0, 1}, mult=[5]))
    assert r == 5


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
    copied = inst({0, 1}, {1, 2}, {3}, mult=[4, 1, 2])
    assert covering_number(base).optimum == covering_number(copied).optimum
    assert matching_number(base).optimum == matching_number(copied).optimum
    assert fractional_optimum(base, "cover").value == fractional_optimum(copied, "cover").value


def test_witnesses_reverify():
    for seed in range(20):
        i = random_abstract_instance(seed + 500)
        tau = covering_number(i)
        nu = matching_number(i)
        assert verify_cover(i, tau.witness)
        assert verify_matching(i, nu.witness)
        assert not verify_cover(i, frozenset()) or not i.edges
