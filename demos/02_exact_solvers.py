"""Exact nu, tau, tau* on small instances, with every answer certified.

tau is a descent from a greedy cover by the exact hitting-set search that
also decides (p,q), and nu an ascent from a greedy matching by the exact
packing search that looks for a (p,q) counterexample, each bounded by the
other's answer.  The fractional solver returns both LP sides and checks
them against each other (strong duality as a runtime certificate), from
uniform weights or a matching and a cover of equal size where those pass
the check, else from an exact rational simplex.  The naive oracle
re-derives the integral answers by plain enumeration.
"""

from dpierce import (
    GenConfig,
    covering_number,
    fractional_pair,
    matching_number,
    naive_oracle,
    pq_check,
    random_d_intervals,
    to_incidence,
    PQParameters,
)

fam = random_d_intervals(GenConfig(seed=11, n_edges=7, d=2))
inst = to_incidence(fam)

tau = covering_number(inst)
nu = matching_number(inst)
cover, matching = fractional_pair(inst)

print(f"nu   = {nu.optimum}   witness edges  {sorted(nu.witness)}")
print(f"tau  = {tau.optimum}   witness points {sorted(tau.witness)}")
print(f"tau* = {cover.value}  (= nu* = {matching.value}, exact rationals)")
print(f"sandwich: {nu.optimum} <= {cover.value} <= {tau.optimum}")
print(f"search nodes: tau {tau.node_count}, nu {nu.node_count}")

# the oracle is deliberately unpruned enumeration; on guard-sized instances
# it must agree with the solvers bit for bit
print("oracle agrees:",
      naive_oracle(inst, "tau") == tau.optimum and naive_oracle(inst, "nu") == nu.optimum)

# fractional weights: a cover weighting on points, a matching weighting on edges
print("cover weights:   ", {pt: str(w) for pt, w in sorted(cover.weights.items())})
print("matching weights:", {e: str(w) for e, w in sorted(matching.weights.items())})

# (p,q) property: among any p edges, q share a point?
for p, q in ((2, 2), (3, 2), (4, 2)):
    verdict = pq_check(inst, PQParameters(p, q))
    tail = "" if verdict.holds else f"  counterexample {sorted(verdict.counterexample)}"
    print(f"({p},{q}) property: {verdict.holds}{tail}")
print("max depth r =", pq_check(inst, PQParameters(2, 2)).max_depth)
