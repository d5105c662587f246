"""Tour of d-interval families: construction, incidence form, depth.

A d-interval is a union of at most d disjoint closed intervals with exact
rational endpoints.  This script builds a few families by hand and shows
how the package turns one into the finite instance every solver reads.
"""

from dpierce import (
    general_position_violations,
    make_family,
    subset_intersection_point,
    to_incidence,
)

# three edges on one line; edge 2 has two parts (a 2-interval)
family = make_family(
    2,
    [
        [("0", "2")],
        [("1", "3")],
        [("3/2", "7/4"), ("5", "6")],
    ],
)
print("edges:", len(family), " d =", family.d)

# discretization: the ground points are the endpoint values in increasing
# order, and each edge becomes the points its parts contain.  Any point of
# the line slides right onto an endpoint without leaving an edge, so the
# instance has the family's nu, tau and tau*
inst = to_incidence(family)
print("incidence ground size:", inst.ground_size)
print("incidence edges:", [sorted(e) for e in inst.edges])

# depth r = the most edges through one point; an endpoint attains it
r, point = inst.max_depth
print(f"depth r = {r}, first reached at ground point {point}")

print("point piercing edges 0,1,2:", subset_intersection_point(family, {0, 1, 2}))

# general position: distinct intervals must not share endpoint values
touching = make_family(1, [[("0", "2")], [("2", "5")]])
bad = general_position_violations(touching)
print("violation at value:", bad[0][0])
