"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Criteria that share instance corpora (the planted campaigns feed the ratio
check and the witness ledger) build them once via module-scoped fixtures.
Every expected value is either exact rational arithmetic or a bound checked
at the stated tolerance; nothing is calibrated after the fact.
"""

import itertools
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from dpierce.model import connected_components
from dpierce import (
    BoundKind,
    GenConfig,
    HostTree,
    HypergraphInstance,
    PQParameters,
    ProjectiveParams,
    covering_number,
    fractional_pair,
    heavy_vertex,
    lift_cover,
    lift_family,
    matching_number,
    naive_oracle,
    planted_pq_family,
    planted_pq_subforests,
    pq_check,
    projective_instance,
    random_d_intervals,
    random_subforests,
    random_tree,
    random_tw_graph,
    sharpness_probe,
    to_incidence,
    verify_bundle,
    verify_cover,
    verify_matching,
)

from helpers import random_abstract_instance


def report_line(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def witness_ledger():
    """(instance, cover witness, matching witness) triples from all criteria."""
    return []


@pytest.fixture(scope="module")
def planted_pp_corpus(witness_ledger):
    """200 planted (p,p) interval families, p in {2,3}, d in 1..4, n <= 12."""
    kinds = [BoundKind.DPP_STAR, BoundKind.DPP_TAU, BoundKind.ALON]
    out = []
    seed = 1000
    for p in (2, 3):
        for d in (1, 2, 3, 4):
            for _ in range(25):
                seed += 1
                params = PQParameters(p, p)
                fam = planted_pq_family(
                    GenConfig(seed=seed, n_edges=6 + seed % 7, d=d), params
                )
                reports = verify_bundle(fam, kinds, params=params, seed=seed)
                out.append((fam, reports))
                witness_ledger.append(
                    (
                        to_incidence(fam),
                        reports[0].witness_cover,
                        reports[0].witness_matching,
                    )
                )
    return out


@pytest.fixture(scope="module")
def planted_pq_corpora(witness_ledger):
    """200 planted (p,q) interval families and 200 subforest families."""
    combos = [(3, 2, 1), (3, 2, 2), (3, 2, 3), (4, 3, 1), (4, 3, 2), (4, 3, 3)]
    counts = [34, 34, 33, 33, 33, 33]  # 200 of each family class
    intervals, trees = [], []
    seed = 5000
    for (p, q, d), count in zip(combos, counts):
        params = PQParameters(p, q)
        for _ in range(count):
            seed += 1
            fam = planted_pq_family(
                GenConfig(seed=seed, n_edges=6 + seed % 7, d=d), params
            )
            reports = verify_bundle(
                fam, [BoundKind.DPQ_TAU, BoundKind.ALON], params=params, seed=seed
            )
            intervals.append((fam, reports))
            witness_ledger.append(
                (to_incidence(fam), reports[0].witness_cover, reports[0].witness_matching)
            )

            tf = planted_pq_subforests(
                GenConfig(seed=seed, n_edges=6 + seed % 7, d=d, host_size=12), params
            )
            treports = verify_bundle(
                tf, [BoundKind.TREE_PQ_TAU, BoundKind.ALON], params=params, seed=seed
            )
            trees.append((tf, treports))
            witness_ledger.append(
                (to_incidence(tf), treports[0].witness_cover, treports[0].witness_matching)
            )
    return intervals, trees


def test_criterion_1_projective_exactness(witness_ledger):
    t0 = time.perf_counter()
    fano = projective_instance(ProjectiveParams(2, 2))
    cover_sol, _ = fractional_pair(fano.instance)
    tau = covering_number(fano.instance)
    nu = matching_number(fano.instance)
    ok = (
        cover_sol.value == Fraction(7, 3)
        and tau.optimum == 3
        and nu.optimum == 1
    )
    witness_ledger.append((fano.instance, tau.witness, nu.witness))

    pg32 = projective_instance(ProjectiveParams(3, 2))
    cover32, _ = fractional_pair(pg32.instance)
    ok = ok and cover32.value == Fraction(15, 7) and pg32.d == 7
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report_line(1, ok, f"Fano tau*=7/3 tau=3 nu=1, PG(3,2) tau*=15/7 d=7 in {elapsed:.2f}s")
    assert ok


def test_criterion_2_sharpness_probe():
    t0 = time.perf_counter()
    rows2 = sharpness_probe(2, [2, 3, 5, 7, 11, 13])
    rows3 = sharpness_probe(3, [2, 3, 5, 7])
    # the probe itself asserts exact LP agreement with the closed form and
    # the d^{1/(k-1)} - 1 floor; re-check the formula values here
    ok = True
    for row, q in zip(rows2, (2, 3, 5, 7, 11, 13), strict=True):
        expected = Fraction(q) + Fraction(1, 1 + q)
        ok = ok and Fraction(row["tau_star"]) == expected and row["d"] == 1 + q
    for row, q in zip(rows3, (2, 3, 5, 7), strict=True):
        expected = Fraction(q) + Fraction(1, 1 + q + q * q)
        ok = ok and Fraction(row["tau_star"]) == expected and row["d"] == 1 + q + q * q
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report_line(2, ok, f"10 projective LPs match q + 1/sum(q^i) exactly in {elapsed:.1f}s")
    assert ok


def test_criterion_3_gallai(witness_ledger):
    failures = []
    for seed in range(1, 501):
        fam = random_d_intervals(GenConfig(seed=seed, n_edges=4 + seed % 9, d=1))
        inst = to_incidence(fam)
        tau = covering_number(inst)
        nu = matching_number(inst)
        if tau.optimum != nu.optimum:
            failures.append((seed, tau.optimum, nu.optimum))
        if seed % 25 == 0:
            witness_ledger.append((inst, tau.witness, nu.witness))
    ok = not failures
    report_line(3, ok, "tau = nu on 500 random plain interval families")
    assert ok, failures[:10]


def test_criterion_4_lp_duality():
    # fractional_pair raises on any duality gap, so every solve in this
    # suite enforces the criterion; here a mixed corpus is checked head-on
    checked = 0
    for seed in range(80):
        inst = random_abstract_instance(seed + 9000)
        cover, matching = fractional_pair(inst)
        assert cover.value == matching.value
        checked += 1
    for seed in range(30):
        fam = random_d_intervals(GenConfig(seed=seed + 9500, n_edges=8, d=3))
        cover, matching = fractional_pair(to_incidence(fam))
        assert cover.value == matching.value
        checked += 1
    for seed in range(30):
        host = random_tree(GenConfig(seed=seed + 9600, host_size=10))
        fam = random_subforests(host, GenConfig(seed=seed + 9700, n_edges=8, d=2, host_size=10))
        cover, matching = fractional_pair(to_incidence(fam))
        assert cover.value == matching.value
        checked += 1
    for dim, q in ((2, 2), (2, 3), (3, 2)):
        cover, matching = fractional_pair(projective_instance(ProjectiveParams(dim, q)).instance)
        assert cover.value == matching.value
        checked += 1
    report_line(4, True, f"cover value = matching value exactly on {checked} instances")


def test_criterion_5_oracle_equivalence(witness_ledger):
    failures = []
    cases = []
    for seed in range(150):
        cases.append(random_abstract_instance(seed + 40))
    for seed in range(75):
        cases.append(to_incidence(random_d_intervals(GenConfig(seed=seed + 300, n_edges=5, d=2))))
    for seed in range(75):
        host = random_tree(GenConfig(seed=seed + 600, host_size=10))
        cases.append(
            to_incidence(random_subforests(host, GenConfig(seed=seed + 700, n_edges=7, d=2, host_size=10)))
        )
    for idx, inst in enumerate(cases):
        tau = covering_number(inst)
        nu = matching_number(inst)
        if tau.optimum != naive_oracle(inst, "tau") or nu.optimum != naive_oracle(inst, "nu"):
            failures.append(idx)
        if idx % 30 == 0:
            witness_ledger.append((inst, tau.witness, nu.witness))
    ok = not failures
    report_line(5, ok, f"solvers match the unpruned oracle on {len(cases)} instances")
    assert ok, failures


def test_criterion_6_pp_bounds_campaign(planted_pp_corpus):
    bad = []
    for fam, reports in planted_pp_corpus:
        for r in reports:
            if r.kind in (BoundKind.DPP_STAR, BoundKind.DPP_TAU):
                if not (r.applicable and r.satisfied):
                    bad.append((r.seed, r.kind.value, r.reason))
    ok = not bad
    report_line(6, ok, f"tau* and tau bounds hold on {len(planted_pp_corpus)} planted (p,p) families")
    assert ok, bad[:10]


def test_criterion_7_pq_bounds_campaigns(planted_pq_corpora):
    intervals, trees = planted_pq_corpora
    bad = []
    for fam, reports in intervals:
        for r in reports:
            if r.kind is BoundKind.DPQ_TAU and not (r.applicable and r.satisfied):
                bad.append(("interval", r.seed, r.reason))
    for fam, reports in trees:
        for r in reports:
            if r.kind is BoundKind.TREE_PQ_TAU and not (r.applicable and r.satisfied):
                bad.append(("tree", r.seed, r.reason))
    ok = not bad
    report_line(
        7, ok, f"(p,q) tau bounds hold on {len(intervals)} interval + {len(trees)} tree families"
    )
    assert ok, bad[:10]


def test_criterion_8_alon_ratio(planted_pp_corpus, planted_pq_corpora):
    intervals, trees = planted_pq_corpora
    bad = []
    total = 0
    for fam, reports in itertools.chain(planted_pp_corpus, intervals, trees):
        for r in reports:
            if r.kind is BoundKind.ALON:
                total += 1
                if not (r.applicable and r.satisfied):
                    bad.append((r.seed, r.reason))
                if Fraction(r.tau) > r.d * r.tau_star:
                    bad.append((r.seed, "exact ratio violated"))
    ok = not bad
    report_line(8, ok, f"tau <= d*tau* exactly on all {total} campaign instances")
    assert ok, bad[:10]


def test_criterion_9_heavy_vertex():
    done = 0
    bad = []
    for p in (2, 3):
        produced = 0
        seed = 0
        while produced < 100:
            seed += 1
            rng = random.Random(100000 * p + seed)
            n_vertices = rng.randint(3, 20)
            host = HostTree(
                n=n_vertices,
                edges=tuple((rng.randrange(i), i) for i in range(1, n_vertices)),
            )
            adj = host.adjacency()
            n_subtrees = rng.randint(p, 15)
            subtrees = []
            while len(subtrees) < n_subtrees:
                if subtrees and rng.random() < 0.15:
                    subtrees.append(set(rng.choice(subtrees)))  # multiset duplicate
                    continue
                start = rng.randrange(n_vertices)
                patch = {start}
                for _ in range(rng.randint(0, n_vertices // 2)):
                    frontier = sorted({w for v in patch for w in adj[v]} - patch)
                    if not frontier:
                        break
                    patch.add(rng.choice(frontier))
                subtrees.append(patch)
            subsets = [
                combo
                for combo in itertools.combinations(range(n_subtrees), p)
                if frozenset.intersection(*(frozenset(subtrees[i]) for i in combo))
            ]
            if not subsets:
                continue
            produced += 1
            vertex, degree = heavy_vertex(host, subtrees, p, subsets)
            n, k = n_subtrees, len(subsets)
            if n * (degree - 1) ** (p - 1) < factorial(p - 1) * k:
                bad.append((p, seed))
            done += 1
    ok = not bad and done == 200
    report_line(9, ok, f"density-lemma bound holds on {done} subtree multisets (p in 2,3)")
    assert ok, bad


def test_criterion_10_treewidth_lift_chain(witness_ledger):
    bad = []
    count = 0
    params = PQParameters(3, 2)
    for width in (1, 2):
        for d in (1, 2):
            for i in range(25):
                seed = 7000 + 100 * width + 10 * d + i
                tw = random_tw_graph(
                    GenConfig(seed=seed, n_edges=6, d=d, host_size=8), width
                )
                lifted = lift_family(tw.graph, tw.decomposition, tw.subgraphs, d=tw.d)
                count += 1

                g_adj = tw.graph.adjacency()
                t_adj = tw.decomposition.tree.adjacency()
                for src, edge in zip(tw.subgraphs, lifted.family.edges):
                    if len(connected_components(t_adj, edge)) > len(
                        connected_components(g_adj, src)
                    ):
                        bad.append((seed, "components grew"))

                source_inst = HypergraphInstance(
                    ground_size=tw.graph.n, edges=tw.subgraphs, provenance="abstract"
                )
                lifted_inst = to_incidence(lifted.family)
                if pq_check(source_inst, params).holds and not pq_check(lifted_inst, params).holds:
                    bad.append((seed, "(p,q) lost in the lift"))

                tau_lifted = covering_number(lifted_inst)
                cover = lift_cover(tw.decomposition, tau_lifted.witness, tw.subgraphs)
                if len(cover) > (tw.decomposition.width + 1) * tau_lifted.optimum:
                    bad.append((seed, "cover blow-up too large"))
                if not all(cover & h for h in tw.subgraphs):
                    bad.append((seed, "lifted cover misses a source subgraph"))
                witness_ledger.append((lifted_inst, tau_lifted.witness, frozenset()))
    ok = not bad and count == 100
    report_line(10, ok, f"lift chain verified end to end on {count} width-k instances")
    assert ok, bad[:10]


def test_criterion_11_witness_integrity(witness_ledger):
    # runs last: re-validate every witness the earlier criteria emitted,
    # plus a fresh batch so the check is meaningful standalone
    for seed in range(20):
        inst = random_abstract_instance(seed + 12000)
        witness_ledger.append(
            (inst, covering_number(inst).witness, matching_number(inst).witness)
        )
    bad = 0
    for inst, cover, matching in witness_ledger:
        if not verify_cover(inst, cover):
            bad += 1
        if matching and not verify_matching(inst, matching):
            bad += 1
    ok = bad == 0 and len(witness_ledger) >= 20
    report_line(11, ok, f"{len(witness_ledger)} witness pairs re-validated independently")
    assert ok
