"""Exact piercing/covering toolkit for d-interval and d-tree families.

Families of d-intervals (unions of at most d disjoint closed rational
intervals) and d-trees (frozensets of host-tree vertices inducing at most
d components) reduce to a finite incidence form on which the matching number
nu, the piercing number tau, and their common fractional relaxation tau*
are solved exactly.  On top sit the (p,q)-property decision procedure,
seeded instance generators (including the projective-space extremal
construction), tree-decomposition lifting, and a harness that checks the
covering bounds these properties imply, instance by instance, in exact or
certified high-precision arithmetic.
"""

from .model import (
    DInterval,
    DIntervalFamily,
    Graph,
    HostTree,
    HypergraphInstance,
    Interval,
    PQParameters,
    SubforestFamily,
    general_position_violations,
    make_family,
    subset_intersection_point,
    to_incidence,
)
from .simplex import LPSolution, SimplexError, solve_lp_max
from .solvers import (
    FractionalSolution,
    Measures,
    PQVerdict,
    SolveResult,
    TooLarge,
    covering_number,
    fractional_pair,
    matching_number,
    max_depth,
    naive_oracle,
    pq_check,
    solve,
    verify_cover,
    verify_matching,
)
from .generators import (
    GenConfig,
    NotPrime,
    PlantFailed,
    ProjectiveFamily,
    ProjectiveParams,
    planted_pq_family,
    planted_pq_subforests,
    projective_incidence,
    projective_instance,
    random_d_intervals,
    random_subforests,
    random_tree,
    random_tw_graph,
)
from .treewidth import (
    InvalidDecomposition,
    LiftedFamily,
    NotACover,
    TreeDecomposition,
    TwInstance,
    lift_cover,
    lift_family,
    validate_decomposition,
)
from .bounds import (
    BadParams,
    BoundKind,
    BoundReport,
    EmptySubfamily,
    evaluate_bound,
    heavy_vertex,
    sharpness_probe,
    verify_bundle,
    verify_instance,
)
from .campaign import CampaignConfigError, run_campaign, run_campaign_file
from .instance_io import (
    InstanceFormatError,
    dump_instance,
    dumps_instance,
    from_json_dict,
    load_instance,
    loads_instance,
    to_json_dict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
