"""Covering-bound formulas, instance verification, and proof procedures.

Each `BoundKind` pins one inequality on one family class.  `verify_bundle`
solves an instance once, exactly (nu, tau, tau* and the depth r), and
checks each requested kind against that one solve; `verify_instance` is
the one-kind case.  A kind whose hypothesis fails (the (p,q) property,
the family class, d = 1 for GALLAI) is reported as inapplicable, never as
a vacuous success.

The closed-form bounds involve e and fractional powers.  `_closed_form`
evaluates each of them, with the active branch of a max-form bound, once
per (kind, p, q, d, k), with mpmath at 50 digits whatever the caller's
precision (certified error far below 1e-9).  The checks allow a 1e-6
slack above the bound; measured quantities are exact rationals, so no
true violation is masked at the scales handled here.  The ratio and
equality kinds (tau <= d*tau*, and tau = nu for plain interval families)
are compared exactly in rational arithmetic.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from mpmath import mp, mpf

from .model import (
    DIntervalFamily,
    HostTree,
    HypergraphInstance,
    PQParameters,
    SubforestFamily,
    induced_components,
    to_incidence,
)
from .generators import ProjectiveParams, projective_instance
from .solvers import (
    covering_number,
    fractional_pair,
    matching_number,
    max_depth,
    pq_check,
    verify_cover,
    verify_matching,
)
from .treewidth import TwInstance

mp.dps = 50

_TOL = mpf("1e-6")


class BadParams(ValueError):
    """Parameters outside a bound formula's domain."""


class EmptySubfamily(ValueError):
    """heavy_vertex was given no intersecting subsets."""


class BoundKind(enum.Enum):
    DPP_STAR = "DPP_STAR"  # intervals, (p,p): tau* < (pd)^{1/(p-1)} + 1
    DPP_TAU = "DPP_TAU"  # intervals, (p,p): tau < p^{1/(p-1)} d^{p/(p-1)} + d
    DPQ_STAR = "DPQ_STAR"  # intervals, (p,q): tau* <= max{.. d^{1/(q-1)} + 1, 2p^2}
    DPQ_TAU = "DPQ_TAU"  # intervals, (p,q): tau <= max{.. d^{q/(q-1)} + d, 2p^2 d}
    TREE_PP_STAR = "TREE_PP_STAR"  # subforests, (p,p): same formula as DPP_STAR
    TREE_PP_TAU = "TREE_PP_TAU"  # subforests, (p,p): same formula as DPP_TAU
    TREE_PQ_TAU = "TREE_PQ_TAU"  # subforests, (p,q): same formula as DPQ_TAU
    TW_TAU = "TW_TAU"  # tree-width k: (k+1) * DPQ_TAU formula
    ALON = "ALON"  # tau <= d * tau*, exact
    GALLAI = "GALLAI"  # plain intervals (d=1): tau = nu, exact
    # cited companion result (not established here): (p,2) gives
    # tau <= (p-1)(d^2 - d + 1)
    KAISER_P2 = "KAISER_P2"


_STAR_KINDS = {BoundKind.DPP_STAR, BoundKind.DPQ_STAR, BoundKind.TREE_PP_STAR}
_PP_KINDS = {
    BoundKind.DPP_STAR,
    BoundKind.DPP_TAU,
    BoundKind.TREE_PP_STAR,
    BoundKind.TREE_PP_TAU,
}
# the instance provenance a kind's hypothesis requires; kinds not listed
# take any provenance
_PROVENANCE = {
    BoundKind.DPP_STAR: "interval",
    BoundKind.DPP_TAU: "interval",
    BoundKind.DPQ_STAR: "interval",
    BoundKind.DPQ_TAU: "interval",
    BoundKind.GALLAI: "interval",
    BoundKind.KAISER_P2: "interval",
    BoundKind.TREE_PP_STAR: "tree",
    BoundKind.TREE_PP_TAU: "tree",
    BoundKind.TREE_PQ_TAU: "tree",
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise BadParams(message)


def evaluate_bound(
    kind: BoundKind,
    p: int | None = None,
    q: int | None = None,
    d: int | None = None,
    k: int | None = None,
) -> mpf:
    """Closed-form bound value for `kind` at the given parameters.

    ALON and GALLAI have instance-dependent right-hand sides and are
    rejected here; `verify_instance` computes them from measured values.
    """
    return _closed_form(kind, p, q, d, k)[0]


@functools.cache
def _closed_form(kind, p, q, d, k) -> tuple[mpf, str | None]:
    """(bound value, active branch) of `kind` at (p, q, d, k).

    The branch is 'power' or 'quadratic' for the max-form kinds (DPQ_STAR,
    DPQ_TAU, TREE_PQ_TAU, TW_TAU), else None.  Evaluated at 50 digits
    whatever the caller's precision, so the memo never returns a value
    that depends on it; bad parameters raise BadParams on every call.
    """
    if not isinstance(kind, BoundKind):
        raise BadParams(f"unknown kind {kind}")
    if kind in (BoundKind.ALON, BoundKind.GALLAI):
        raise BadParams(f"{kind.value} has no closed form independent of the instance")
    _require(d is not None and d >= 1, f"need d >= 1, got {d}")
    with mp.workdps(50):
        dd = mpf(d)
        if kind in _PP_KINDS:
            _require(p is not None and p >= 2, f"need p >= 2, got {p}")
            _require(q is None or q == p, f"(p,p) bound needs q = p, got q={q}")
            e1 = mpf(1) / (p - 1)
            if kind in _STAR_KINDS:
                return (mpf(p) * dd) ** e1 + 1, None
            return mpf(p) ** e1 * dd ** (mpf(p) * e1) + dd, None
        if kind is BoundKind.KAISER_P2:
            _require(p is not None and p >= 2, f"need p >= 2, got {p}")
            _require(q is None or q == 2, f"KAISER_P2 is a (p,2) bound, got q={q}")
            return mpf((p - 1) * (d * d - d + 1)), None
        _require(p is not None and q is not None, "need both p and q")
        _require(p >= q >= 2, f"need p >= q >= 2, got p={p}, q={q}")
        c = mpf(2) ** (mpf(1) / (q - 1)) * (mp.e * p) ** (mpf(q) / (q - 1)) / q
        if kind is BoundKind.DPQ_STAR:
            power_branch = c * dd ** (mpf(1) / (q - 1)) + 1
            quad_branch = mpf(2 * p * p)
        else:
            power_branch = c * dd ** (mpf(q) / (q - 1)) + dd
            quad_branch = mpf(2 * p * p) * dd
        if kind is BoundKind.TW_TAU:
            _require(k is not None and k >= 0, f"TW_TAU needs k >= 0, got {k}")
            power_branch *= k + 1
            quad_branch *= k + 1
        if power_branch >= quad_branch:
            return power_branch, "power"
        return quad_branch, "quadratic"


# ---------------------------------------------------------------------------
# instance verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one bound kind on one instance."""

    kind: BoundKind
    p: int | None
    q: int | None
    d: int
    k: int | None
    applicable: bool
    reason: str | None  # why inapplicable, else None
    counterexample: tuple[int, ...] | None  # failing p-subset of the hypothesis
    nu: int
    tau: int
    tau_star: Fraction
    r: int
    bound_value: str  # decimal string, 17 significant digits
    satisfied: bool | None  # None when inapplicable
    slack: str | None  # bound - measured, decimal string
    active_branch: str | None  # 'power' or 'quadratic' for max-form kinds
    witness_cover: tuple[int, ...]
    witness_matching: tuple[int, ...]
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "p": self.p,
            "q": self.q,
            "d": self.d,
            "k": self.k,
            "applicable": self.applicable,
            "reason": self.reason,
            "counterexample": sorted(self.counterexample) if self.counterexample else None,
            "nu": self.nu,
            "tau": self.tau,
            "tau_star": str(self.tau_star),
            "r": self.r,
            "bound_value": self.bound_value,
            "satisfied": self.satisfied,
            "slack": self.slack,
            "active_branch": self.active_branch,
            "witness_cover": sorted(self.witness_cover),
            "witness_matching": sorted(self.witness_matching),
            "seed": self.seed,
        }


def _fmt(x: mpf) -> str:
    from mpmath import nstr

    return nstr(x, 17)


def _exact_to_mpf(x: Fraction) -> mpf:
    return mpf(x.numerator) / mpf(x.denominator)


def solve_measures(instance: HypergraphInstance):
    """(nu result, tau result, fractional cover, r).

    Every LP is solved once per instance: the root LP `fractional_pair`
    solves is the root bound of both branch-and-bounds.
    """
    cover_sol, _ = fractional_pair(instance)
    nu_res = matching_number(instance)
    tau_res = covering_number(instance)
    r, _ = max_depth(instance)
    return nu_res, tau_res, cover_sol, r


def verify_bundle(
    family,
    kinds,
    params: PQParameters | None = None,
    k: int | None = None,
    seed: int = 0,
) -> list[BoundReport]:
    """Check several bound kinds on one family with a single exact solve."""
    d, k_eff = _d_and_k(family, k)
    instance = to_incidence(family)
    nu_res, tau_res, cover_sol, r = solve_measures(instance)
    if not verify_cover(instance, tau_res.witness) or not verify_matching(
        instance, nu_res.witness
    ):
        raise RuntimeError("witness failed its independent re-validation")
    nu, tau, tau_star = nu_res.optimum, tau_res.optimum, cover_sol.value
    p, q = (params.p, params.q) if params else (None, None)
    # the fields every report of this instance shares
    shared = dict(
        p=p,
        q=q,
        d=d,
        k=k_eff,
        nu=nu,
        tau=tau,
        tau_star=tau_star,
        r=r,
        witness_cover=tuple(sorted(tau_res.witness)),
        witness_matching=tuple(sorted(nu_res.witness)),
        seed=seed,
    )
    pq_cache: dict[tuple[int, int], object] = {}
    reports = []
    for kind in kinds:
        problem = _hypothesis_problem(kind, instance, params, d, k_eff, pq_cache)
        # (bound_value, satisfied, slack, active_branch)
        if problem is not None:
            outcome = ("", None, None, None)
        elif kind is BoundKind.ALON:
            rhs = d * tau_star
            outcome = (_fmt(_exact_to_mpf(rhs)), tau <= rhs, _fmt(_exact_to_mpf(rhs - tau)), None)
        elif kind is BoundKind.GALLAI:
            outcome = (_fmt(mpf(nu)), tau == nu, _fmt(mpf(nu - tau)), None)
        else:
            bound, active = _closed_form(kind, p, q, d, k_eff)
            star = kind in _STAR_KINDS
            measured = _exact_to_mpf(tau_star) if star else mpf(tau)
            ok = measured < bound + _TOL if star else measured <= bound + _TOL
            outcome = (_fmt(bound), bool(ok), _fmt(bound - measured), active)
        bound_value, satisfied, slack, active = outcome
        reason, counterexample = problem or (None, None)
        reports.append(
            BoundReport(
                kind=kind,
                applicable=problem is None,
                reason=reason,
                counterexample=counterexample,
                bound_value=bound_value,
                satisfied=satisfied,
                slack=slack,
                active_branch=active,
                **shared,
            )
        )
    return reports


def verify_instance(
    family,
    kind: BoundKind,
    params: PQParameters | None = None,
    k: int | None = None,
    seed: int = 0,
) -> BoundReport:
    """Solve a family exactly and check one bound inequality on it.

    `family` is a DIntervalFamily, SubforestFamily or TwInstance; any
    other type raises TypeError, because d is a property of the family and
    cannot be read off an incidence instance.  The hypothesis of `kind` is
    checked first ((p,q) property, provenance, d = 1 for GALLAI); on
    mismatch the report is inapplicable and carries the failing p-subset
    when there is one.
    """
    return verify_bundle(family, [kind], params=params, k=k, seed=seed)[0]


def _d_and_k(family, k: int | None) -> tuple[int, int | None]:
    """(d, effective k) for any accepted family form."""
    if isinstance(family, (DIntervalFamily, SubforestFamily)):
        return family.d, k
    if isinstance(family, TwInstance):
        return family.d, family.decomposition.width if k is None else k
    raise TypeError(f"cannot verify a {type(family).__name__}")


def _hypothesis_problem(kind, instance, params, d, k, pq_cache):
    """None if the kind's hypothesis holds, else (reason, counterexample)."""
    needed = _PROVENANCE.get(kind)
    if needed is not None and instance.provenance != needed:
        return (f"{kind.value} applies to {needed} families, got {instance.provenance}", None)
    if kind is BoundKind.GALLAI:
        if d != 1:
            return (f"GALLAI needs d = 1, family has d = {d}", None)
        return None
    if kind is BoundKind.ALON:
        if instance.provenance not in ("interval", "tree"):
            return (f"ALON is proved for interval/tree families, got {instance.provenance}", None)
        return None
    if kind is BoundKind.TW_TAU and k is None:
        raise BadParams("TW_TAU needs the decomposition width k")
    if params is None:
        raise BadParams(f"{kind.value} needs (p,q) parameters")
    if kind in _PP_KINDS and params.p != params.q:
        raise BadParams(f"{kind.value} needs p = q, got ({params.p},{params.q})")
    if kind is BoundKind.KAISER_P2 and params.q != 2:
        raise BadParams(f"KAISER_P2 needs q = 2, got {params.q}")
    key = (params.p, params.q)
    if key not in pq_cache:
        pq_cache[key] = pq_check(instance, params)
    verdict = pq_cache[key]
    if not verdict.holds:
        return (
            f"({params.p},{params.q}) property fails",
            tuple(sorted(verdict.counterexample)),
        )
    return None


def max_measured_over_bound(reports) -> dict[str, str]:
    """Largest measured/bound ratio per kind, as 17-digit decimal strings.

    Tightness telemetry over the applicable reports with a positive bound;
    measured is tau* for the fractional kinds and tau for the others.
    """
    best: dict[str, mpf] = {}
    for report in reports:
        if not report.applicable:
            continue
        bound = mpf(report.bound_value)
        if bound > 0:
            measured = (
                _exact_to_mpf(report.tau_star)
                if report.kind in _STAR_KINDS
                else mpf(report.tau)
            )
            ratio = measured / bound
            key = report.kind.value
            if key not in best or ratio > best[key]:
                best[key] = ratio
    return {k: _fmt(v) for k, v in sorted(best.items())}


# ---------------------------------------------------------------------------
# the subtree density lemma, as an executable procedure
# ---------------------------------------------------------------------------

def heavy_vertex(
    host: HostTree,
    subtrees,
    p: int,
    intersecting_p_subsets,
) -> tuple[int, int]:
    """Vertex guaranteed to lie in many subtrees, by greedy plus deepest root.

    Given n connected subtrees (a multiset) and k distinct p-subsets that
    each share a vertex: repeatedly discard a subtree lying in fewer than
    k/n of the surviving subsets (recounted after every removal), root the
    host at vertex 0, take each survivor's closest-to-root vertex, and
    return the deepest of those.  The result lies in at least
    ((p-1)! * k/n)^{1/(p-1)} + 1 of the original subtrees, which is
    asserted before returning (in exact integer arithmetic, so a failure
    is an implementation bug, not rounding).
    """
    subtrees = [frozenset(t) for t in subtrees]
    n = len(subtrees)
    if p < 2:
        raise BadParams(f"need p >= 2, got {p}")
    if n == 0:
        raise EmptySubfamily("no subtrees")
    for i, t in enumerate(subtrees):
        if len(induced_components(host, t)) != 1:
            raise ValueError(f"subtree {i} is not connected in the host")
    subsets = [frozenset(s) for s in intersecting_p_subsets]
    k = len(subsets)
    if k == 0:
        raise EmptySubfamily("no intersecting p-subsets given")
    if len(set(subsets)) != k:
        raise ValueError("intersecting_p_subsets contains duplicates")
    for s in subsets:
        if len(s) != p:
            raise ValueError(f"subset {sorted(s)} does not have p = {p} members")
        if not all(0 <= i < n for i in s):
            raise ValueError(f"subset {sorted(s)} has out-of-range indices")
        if not frozenset.intersection(*(subtrees[i] for i in s)):
            raise ValueError(f"subset {sorted(s)} does not share a vertex")

    threshold = Fraction(k, n)
    alive = set(range(n))
    live_subsets = list(subsets)
    while True:
        counts = {i: 0 for i in alive}
        for s in live_subsets:
            for i in s:
                counts[i] += 1
        victims = sorted(i for i in alive if counts[i] < threshold)
        if not victims:
            break
        gone = victims[0]
        alive.remove(gone)
        live_subsets = [s for s in live_subsets if gone not in s]
    if not alive or not live_subsets:
        raise AssertionError("greedy sparsification emptied the family")

    depths = host.depths_from(0)
    tops = {
        i: min(subtrees[i], key=lambda v: (depths[v], v)) for i in sorted(alive)
    }
    best = max(sorted(alive), key=lambda i: (depths[tops[i]], -i))
    vertex = tops[best]
    degree = sum(1 for t in subtrees if vertex in t)

    # (degree - 1)^{p-1} >= (p-1)! k / n, i.e. the lemma's bound holds
    if n * (degree - 1) ** (p - 1) < factorial(p - 1) * k:
        raise AssertionError(
            f"density lemma violated: vertex {vertex} in {degree} members, "
            f"n={n}, k={k}, p={p}"
        )
    return vertex, degree


# ---------------------------------------------------------------------------
# sharpness probe
# ---------------------------------------------------------------------------

def sharpness_probe(dimension: int, primes) -> list[dict]:
    """Exact tau* of the projective construction for each prime field order.

    For every q the LP value must equal q + 1/(1 + q + ... + q^{k-1})
    exactly, and tau* >= d^{1/(k-1)} - 1 (checked as the equivalent integer
    inequality (tau*+1)^{k-1} >= d).  Returns one row per prime with the
    ratio tau* / d^{1/(k-1)}.
    """
    rows = []
    for q in primes:
        params = ProjectiveParams(dimension=dimension, field_order=q)
        fam = projective_instance(params)
        cover_sol, _ = fractional_pair(fam.instance)
        tau_star = cover_sol.value
        expected = Fraction(q) + Fraction(1, sum(q**i for i in range(dimension)))
        if tau_star != expected:
            raise AssertionError(
                f"projective tau* mismatch at k={dimension}, q={q}: "
                f"LP gave {tau_star}, formula gives {expected}"
            )
        if (tau_star + 1) ** (dimension - 1) < fam.d:
            raise AssertionError(
                f"sharpness floor violated at k={dimension}, q={q}: "
                f"tau* = {tau_star} < d^(1/(k-1)) - 1 for d = {fam.d}"
            )
        ratio = _exact_to_mpf(tau_star) / mpf(fam.d) ** (mpf(1) / (dimension - 1))
        rows.append(
            {
                "dimension": dimension,
                "field_order": q,
                "ground": fam.instance.ground_size,
                "d": fam.d,
                "tau_star": str(tau_star),
                "ratio": _fmt(ratio),
            }
        )
    return rows
