"""Covering-bound formulas, instance verification, and proof procedures.

Each `BoundKind` pins one inequality on one family class.  `verify_bundle`
solves an instance once, exactly, by `solvers.solve`, and checks each
requested kind against that one record of nu, tau, tau* and the depth r;
`verify_instance` is the one-kind case.  d and k are read off the family:
k is a `TwInstance`'s validated decomposition width, and None for the
other families, so TW_TAU is checked only at a width some decomposition
has and is inapplicable to a family without one.  A kind whose hypothesis fails (the (p,q) property,
the family class, d = 1 for GALLAI) is reported as inapplicable, never as
a vacuous success.

The closed-form bounds involve e and fractional powers.  `_closed_form`
evaluates each of them, with the active branch of a max-form bound, once
per (kind, p, q, d, k), with mpmath at 50 digits whatever the caller's
precision (certified error far below 1e-9).  A report's whole outcome
(bound text, verdict, slack and active branch) is evaluated once per
exact input, at the same 50 digits: by `_closed_outcome` on (kind, p, q,
d, k, measured), and by `_measured_outcome` on (kind, right-hand side,
tau) for ALON and GALLAI; a campaign's measured/bound ratio by `_ratio`
on (bound text, measured).  So no report depends on the caller's
precision, and importing the module leaves mpmath's global precision
alone.  The memos hold no more entries than the distinct reports made,
and a campaign's reports repeat few distinct inputs: measured values are
small integers and fractions.  The checks allow a 1e-6 slack above the
bound; measured quantities are exact rationals, so no true violation is
masked at the scales handled here.  The ratio and equality kinds (tau <=
d*tau*, and tau = nu for plain interval families) are compared exactly in
rational arithmetic.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from mpmath import mp, mpf, nstr

from .model import (
    DIntervalFamily,
    HostTree,
    PQParameters,
    SubforestFamily,
    _checked_subgraphs,
    to_incidence,
)
from .generators import ProjectiveParams, projective_incidence
from .solvers import fractional_value, pq_check, solve, verify_cover, verify_matching
from .treewidth import TwInstance

with mp.workdps(50):
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


class _Kind(NamedTuple):
    """One bound kind: its hypothesis, and its bound as a form times a factor.

    `form` is the (p,q) shape, "pp", "pq" or "p2", and the form on it: the
    paper's tau* bound for "pp" and "pq", Kaiser's tau bound for "p2"; None
    for ALON and GALLAI, whose right-hand sides are measured.  By Alon's
    tau <= d tau*, each tau bound is d times its tau* bound ((k+1) d for TW_TAU).
    """

    family: str | None  # the provenance it needs; None takes any (TW_TAU: any with a width)
    form: str | None
    factor: str | None  # "1", "d" or "(k+1)d"
    star: bool  # bounds tau* (else tau)


_KINDS = {
    BoundKind.DPP_STAR: _Kind("interval", "pp", "1", True),
    BoundKind.DPP_TAU: _Kind("interval", "pp", "d", False),
    BoundKind.DPQ_STAR: _Kind("interval", "pq", "1", True),
    BoundKind.DPQ_TAU: _Kind("interval", "pq", "d", False),
    BoundKind.TREE_PP_STAR: _Kind("tree", "pp", "1", True),
    BoundKind.TREE_PP_TAU: _Kind("tree", "pp", "d", False),
    BoundKind.TREE_PQ_TAU: _Kind("tree", "pq", "d", False),
    BoundKind.TW_TAU: _Kind(None, "pq", "(k+1)d", False),
    BoundKind.ALON: _Kind(None, None, None, False),
    BoundKind.GALLAI: _Kind("interval", None, None, False),
    BoundKind.KAISER_P2: _Kind("interval", "p2", "1", False),
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
def _closed_form(kind, p, q, d, k) -> tuple[mpf, str | None, str]:
    """(bound value, active branch, bound_value text) of `kind` at (p, q, d, k).

    The kind's form, with its active branch ('power' or 'quadratic' for the
    max-form "pq" form, else None), times its factor, and the 17-digit
    string every report of it carries.  Evaluated at 50 digits whatever the
    caller's precision, so the memo never returns a value that depends on
    it; bad parameters raise BadParams on every call.
    """
    if not isinstance(kind, BoundKind):
        raise BadParams(f"unknown kind {kind}")
    row = _KINDS[kind]
    if row.form is None:
        raise BadParams(f"{kind.value} has no closed form independent of the instance")
    _require(d is not None and d >= 1, f"need d >= 1, got {d}")
    if row.form == "pq":
        _require(p is not None and q is not None, "need both p and q")
        _require(p >= q >= 2, f"need p >= q >= 2, got p={p}, q={q}")
    else:
        _require(p is not None and p >= 2, f"need p >= 2, got {p}")
        want = p if row.form == "pp" else 2
        _require(q in (None, want), f"{kind.value} is a ({p},{want}) bound, got q={q}")
    factor = 1 if row.factor == "1" else d
    if row.factor == "(k+1)d":
        _require(k is not None and k >= 0, f"{kind.value} needs the width k >= 0, got {k}")
        factor *= k + 1
    with mp.workdps(50):
        if row.form == "pp":
            value, branch = (mpf(p) * d) ** (mpf(1) / (p - 1)) + 1, None
        elif row.form == "p2":
            value, branch = mpf((p - 1) * (d * d - d + 1)), None
        else:
            c = mpf(2) ** (mpf(1) / (q - 1)) * (mp.e * p) ** (mpf(q) / (q - 1)) / q
            power, quadratic = c * mpf(d) ** (mpf(1) / (q - 1)) + 1, mpf(2 * p * p)
            value, branch = (power, "power") if power >= quadratic else (quadratic, "quadratic")
        value *= factor
        return value, branch, _fmt(value)


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
    return nstr(x, 17)


def _exact_to_mpf(x: Fraction | int) -> mpf:
    return mpf(x.numerator) / mpf(x.denominator)


@functools.cache
def _closed_outcome(kind, p, q, d, k, measured) -> tuple[str, bool, str, str | None]:
    """(bound_value, satisfied, slack, active_branch) of a closed-form kind.

    `measured` is tau* (a Fraction) for the star kinds, tau (an int) for the
    others, checked against `_closed_form` with the 1e-6 slack.  Evaluated
    at 50 digits whatever the caller's precision, like the bound itself.
    """
    with mp.workdps(50):
        bound, active, text = _closed_form(kind, p, q, d, k)
        value = _exact_to_mpf(measured)
        ok = value < bound + _TOL if _KINDS[kind].star else value <= bound + _TOL
        return text, bool(ok), _fmt(bound - value), active


@functools.cache
def _measured_outcome(kind, rhs, tau) -> tuple[str, bool, str, None]:
    """(bound_value, satisfied, slack, None) of ALON or GALLAI, compared exactly.

    `rhs` is d tau* for ALON (tau <= rhs) and nu for GALLAI (tau = rhs); the
    kind is part of the key because the two compare the same pair differently.
    """
    with mp.workdps(50):
        ok = tau == rhs if kind is BoundKind.GALLAI else tau <= rhs
        return _fmt(_exact_to_mpf(rhs)), ok, _fmt(_exact_to_mpf(rhs - tau)), None


def verify_bundle(
    family,
    kinds,
    params: PQParameters | None = None,
    seed: int = 0,
) -> list[BoundReport]:
    """Check several bound kinds on one family against one `solve` of it.

    Both witnesses of the solve are re-validated on the instance first.
    """
    d, k = _d_and_k(family)
    instance = to_incidence(family)
    solved = solve(instance)
    if not verify_cover(instance, solved.tau.witness) or not verify_matching(
        instance, solved.nu.witness
    ):
        raise RuntimeError("witness failed its independent re-validation")
    nu, tau, tau_star = solved.nu.optimum, solved.tau.optimum, solved.tau_star
    p, q = (params.p, params.q) if params else (None, None)
    # the fields every report of this instance shares
    shared = dict(
        p=p,
        q=q,
        d=d,
        k=k,
        nu=nu,
        tau=tau,
        tau_star=tau_star,
        r=solved.r,
        witness_cover=tuple(sorted(solved.tau.witness)),
        witness_matching=tuple(sorted(solved.nu.witness)),
        seed=seed,
    )
    verdict = None

    def pq_verdict():
        # params is fixed per bundle, so one (p,q) verdict serves every kind
        nonlocal verdict
        if verdict is None:
            verdict = pq_check(instance, params)
        return verdict

    reports = []
    for kind in kinds:
        problem = _hypothesis_problem(kind, instance, params, d, k, pq_verdict)
        if problem is not None:
            outcome = ("", None, None, None)
        elif _KINDS[kind].form is None:
            # ALON (tau <= d tau*) and GALLAI (tau = nu), compared exactly
            rhs = nu if kind is BoundKind.GALLAI else d * tau_star
            outcome = _measured_outcome(kind, rhs, tau)
        else:
            measured = tau_star if _KINDS[kind].star else tau
            outcome = _closed_outcome(kind, p, q, d, k, measured)
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
    return verify_bundle(family, [kind], params=params, seed=seed)[0]


def _d_and_k(family) -> tuple[int, int | None]:
    """(d, k) of any accepted family form: k is a `TwInstance`'s width, else None."""
    if isinstance(family, (DIntervalFamily, SubforestFamily)):
        return family.d, None
    if isinstance(family, TwInstance):
        return family.d, family.decomposition.width
    raise TypeError(f"cannot verify a {type(family).__name__}")


def _hypothesis_problem(kind, instance, params, d, k, pq_verdict):
    """None if the kind's hypothesis holds, else (reason, counterexample).

    `pq_verdict()` returns the instance's (p,q) verdict.  Parameters that
    are missing or outside `_closed_form`'s domain raise BadParams, but only
    once the family class fits the kind.
    """
    needed = _KINDS[kind].family
    if needed is not None and instance.provenance != needed:
        return (f"{kind.value} applies to {needed} families, got {instance.provenance}", None)
    if kind is BoundKind.TW_TAU and k is None:
        # only a tree-width family carries a width
        return (f"TW_TAU applies to tree-width families, got {instance.provenance}", None)
    if kind is BoundKind.GALLAI:
        if d != 1:
            return (f"GALLAI needs d = 1, family has d = {d}", None)
        return None
    if kind is BoundKind.ALON:
        if instance.provenance not in ("interval", "tree"):
            return (f"ALON is proved for interval/tree families, got {instance.provenance}", None)
        return None
    if params is None:
        raise BadParams(f"{kind.value} needs (p,q) parameters")
    _closed_form(kind, params.p, params.q, d, k)
    verdict = pq_verdict()
    if not verdict.holds:
        return (
            f"({params.p},{params.q}) property fails",
            tuple(sorted(verdict.counterexample)),
        )
    return None


def max_measured_over_bound(reports) -> dict[str, str]:
    """Largest measured/bound ratio per kind, as 17-digit decimal strings.

    Tightness telemetry over the applicable reports with a positive bound;
    measured is tau* for the fractional kinds and tau for the others.  Each
    distinct ratio is taken once, by `_ratio`, at 50 digits whatever the
    caller's precision.
    """
    best: dict[str, mpf] = {}
    for report in reports:
        if not report.applicable:
            continue
        measured = report.tau_star if _KINDS[report.kind].star else report.tau
        ratio = _ratio(report.bound_value, measured)
        if ratio is not None:
            key = report.kind.value
            if key not in best or ratio > best[key]:
                best[key] = ratio
    with mp.workdps(50):
        return {k: _fmt(v) for k, v in sorted(best.items())}


@functools.cache
def _ratio(bound_value: str, measured) -> mpf | None:
    """measured / bound at 50 digits, or None unless the bound is positive.

    `bound_value` is a report's 17-digit text and `measured` its exact tau*
    (a Fraction) or tau (an int); an integral tau* and the equal tau give
    the same ratio, so the kind need not be part of the key.
    """
    with mp.workdps(50):
        bound = mpf(bound_value)
        return _exact_to_mpf(measured) / bound if bound > 0 else None


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
    is an implementation bug, not rounding).  The subtrees are checked as
    the members of a 1-tree family over `host` are, so a bad one raises
    the same ValueError, e.g. `subgraphs[1]: induces 2 components > d=1`.
    """
    if p < 2:
        raise BadParams(f"need p >= 2, got {p}")
    subtrees = _checked_subgraphs(host, subtrees, 1)
    n = len(subtrees)
    if n == 0:
        raise EmptySubfamily("no subtrees")
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
    ratio tau* / d^{1/(k-1)}.  tau* is read alone, by
    `solvers.fractional_value`, so no LP weight becomes a Fraction.
    """
    rows = []
    for q in primes:
        params = ProjectiveParams(dimension=dimension, field_order=q)
        instance, d = projective_incidence(params)
        tau_star = fractional_value(instance)
        expected = Fraction(q) + Fraction(1, sum(q**i for i in range(dimension)))
        if tau_star != expected:
            raise AssertionError(
                f"projective tau* mismatch at k={dimension}, q={q}: "
                f"LP gave {tau_star}, formula gives {expected}"
            )
        if (tau_star + 1) ** (dimension - 1) < d:
            raise AssertionError(
                f"sharpness floor violated at k={dimension}, q={q}: "
                f"tau* = {tau_star} < d^(1/(k-1)) - 1 for d = {d}"
            )
        with mp.workdps(50):
            ratio = _fmt(_exact_to_mpf(tau_star) / mpf(d) ** (mpf(1) / (dimension - 1)))
        rows.append(
            {
                "dimension": dimension,
                "field_order": q,
                "ground": instance.ground_size,
                "d": d,
                "tau_star": str(tau_star),
                "ratio": ratio,
            }
        )
    return rows
