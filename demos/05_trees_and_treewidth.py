"""d-trees, the heavy-vertex lemma, and lifting through a tree decomposition.

Subgraphs of a tree with at most d components behave like d-intervals: the
same covering bounds hold.  Over an arbitrary graph of tree-width k, a
subgraph family lifts to a subforest family over the decomposition tree,
a cover of the lift pulls back to the graph, and the blow-up is <= k+1.
"""

import itertools

from dpierce import (
    GenConfig,
    HostTree,
    PQParameters,
    SubforestFamily,
    covering_number,
    heavy_vertex,
    lift_cover,
    lift_family,
    matching_number,
    pq_check,
    random_tw_graph,
    to_incidence,
)

# a small host tree and a 2-tree family on it
host = HostTree(n=7, edges=((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)))
family = SubforestFamily(
    host=host,
    d=2,
    edges=(
        frozenset({0, 1, 3}),
        frozenset({1, 4, 5}),   # 2 components: {1,4} and {5}
        frozenset({0, 2, 6}),
    ),
)
inst = to_incidence(family)
print("subforest family: tau =", covering_number(inst).optimum,
      " nu =", matching_number(inst).optimum)
print("(2,2) property:", pq_check(inst, PQParameters(2, 2)).holds)

# heavy-vertex lemma: many intersecting p-subsets force a deep vertex
subtrees = [{0, 1}, {1, 3}, {1, 4}, {0, 1, 2}, {1}]
subsets = [
    combo
    for combo in itertools.combinations(range(len(subtrees)), 2)
    if frozenset.intersection(*(frozenset(subtrees[i]) for i in combo))
]
vertex, degree = heavy_vertex(host, subtrees, 2, subsets)
print(f"heavy vertex: {vertex}, lying in {degree} of {len(subtrees)} subtrees "
      f"(from {len(subsets)} intersecting pairs)")

# bounded tree-width: generate, lift, cover, pull back
print()
tw = random_tw_graph(GenConfig(seed=8, n_edges=6, d=2, host_size=8), width=2)
print(f"graph: {tw.graph.n} vertices, {len(tw.graph.edges)} edges, "
      f"decomposition width {tw.decomposition.width}")
lifted = lift_family(tw.graph, tw.decomposition, tw.subgraphs, d=tw.d)
print("bags per lifted edge:",
      [sorted(e) for e in lifted.family.edges])

tau_lifted = covering_number(to_incidence(lifted.family))
cover = lift_cover(tw.decomposition, tau_lifted.witness, tw.subgraphs)
print(f"tau(lifted) = {tau_lifted.optimum} via bags {sorted(tau_lifted.witness)}")
print(f"pulled-back cover: {sorted(cover)} "
      f"(size {len(cover)} <= (k+1)*tau(lifted) = {(tw.decomposition.width + 1) * tau_lifted.optimum})")
print("covers every source subgraph:", all(cover & h for h in tw.subgraphs))
