"""The benchmark's three workloads: instance pools, set-up, calls and checks.

Each workload draws its instances from a fixed pool of generator specs whose
exact answers are stored in `reference/<workload>.json`.  Within a stratum
the pool is sorted by the cost measured when the reference was built and
cut into neighbouring pairs; the workload seed picks one instance of every
pair and then shuffles the batch.  So every seed gets different inputs with
a stored answer, while batches of different seeds cost about the same.

Timed calls go through module attributes (`bounds.verify_bundle`, ...) so
that the traced run sees them; the checks use the functions imported by
name below, which tracing never replaces.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from dpierce import bounds, generators, model, solvers, treewidth
from dpierce.bounds import BoundKind
from dpierce.generators import GenConfig, ProjectiveParams
from dpierce.model import HypergraphInstance, PQParameters, subset_intersection_point, to_incidence
from dpierce.solvers import verify_cover, verify_matching
from dpierce.treewidth import TwInstance

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WORKLOADS = ("projective_lp", "bound_campaign", "pq_decide")


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def _spec(stratum, i, gen, *, sample="pairs", cfg=None, pq=None, kinds=(), **extra):
    return {
        "id": f"{stratum}-{i:02d}",
        "stratum": stratum,
        "sample": sample,
        "gen": gen,
        "cfg": cfg,
        "pq": list(pq) if pq else None,
        "kinds": list(kinds),
        **extra,
    }


def pool(workload: str) -> list[dict]:
    """Every instance spec a workload can draw, in a fixed order."""
    specs = []
    if workload == "projective_lp":
        # every seed runs all eight probes; the seed only sets their order
        for i, (k, q) in enumerate(((2, 2), (2, 3), (3, 2), (2, 5), (4, 2), (3, 3), (2, 7), (5, 2))):
            specs.append(
                _spec("pg", i, "projective_instance", sample="all", dimension=k, field_order=q)
            )
    elif workload == "bound_campaign":
        for p in (2, 3):
            for d in (1, 2, 3, 4):
                for i in range(8):
                    s = 110000 + 1000 * p + 100 * d + i
                    specs.append(
                        _spec(
                            f"pp{p}-d{d}", i, "planted_pq_family",
                            cfg={"seed": s, "n_edges": 6 + s % 7, "d": d},
                            pq=(p, p), kinds=("DPP_STAR", "DPP_TAU", "ALON"),
                        )
                    )
        for p, q, d in ((3, 2, 1), (3, 2, 2), (3, 2, 3), (4, 3, 1), (4, 3, 2), (4, 3, 3)):
            for i in range(20):
                s = 120000 + 1000 * p + 100 * d + i
                specs.append(
                    _spec(
                        f"pq{p}{q}-d{d}-interval", i, "planted_pq_family",
                        cfg={"seed": s, "n_edges": 6 + s % 7, "d": d},
                        pq=(p, q), kinds=("DPQ_TAU", "ALON"),
                    )
                )
            for i in range(28):
                s = 130000 + 1000 * p + 100 * d + i
                specs.append(
                    _spec(
                        f"pq{p}{q}-d{d}-tree", i, "planted_pq_subforests",
                        cfg={"seed": s, "n_edges": 6 + s % 7, "d": d, "host_size": 12},
                        pq=(p, q), kinds=("TREE_PQ_TAU", "ALON"),
                    )
                )
        # random families make branch-and-bound branch (planted ones are stars)
        for d, count, sizes, kinds in (
            (1, 24, (12, 13, 14), ("GALLAI",)),
            (2, 24, (12,), ("ALON",)),
            (3, 24, (10,), ("ALON",)),
        ):
            for i in range(count):
                s = 140000 + 1000 * d + i
                specs.append(
                    _spec(
                        f"random-d{d}", i, "random_d_intervals",
                        cfg={"seed": s, "n_edges": sizes[i % len(sizes)], "d": d},
                        kinds=kinds,
                    )
                )
        for width in (1, 2):
            for d in (1, 2):
                for i in range(24):
                    s = 150000 + 1000 * width + 100 * d + i
                    specs.append(
                        _spec(
                            f"tw{width}-d{d}", i, "random_tw_graph",
                            cfg={"seed": s, "n_edges": 6, "d": d, "host_size": 8},
                            pq=(3, 2), kinds=("TW_TAU", "ALON"), width=width,
                        )
                    )
    elif workload == "pq_decide":
        # planted families hold, so pq_check scans all C(n,p) subsets; these
        # and the wide families are few and costly, so every seed runs the
        # same ones, and the seed varies the random families
        for stratum, n, d, pq in (("planted43-d3", 22, 3, (4, 3)), ("planted53-d3", 22, 3, (5, 3))):
            for i in range(2):
                s = 160000 + 1000 * pq[0] + i
                specs.append(
                    _spec(stratum, i, "planted_pq_family", sample="all",
                          cfg={"seed": s, "n_edges": n, "d": d}, pq=pq)
                )
        for i in range(2):
            specs.append(
                _spec("wide43-d4", i, "random_d_intervals", sample="all",
                      cfg={"seed": 174200 + i, "n_edges": 200, "d": 4}, pq=(4, 3))
            )
        # random families fail early
        for stratum, n, d, pq in (("random43-d3", 40, 3, (4, 3)), ("random32-d2", 60, 2, (3, 2))):
            for i in range(32):
                s = 170000 + 1000 * d + n + i
                specs.append(
                    _spec(stratum, i, "random_d_intervals", cfg={"seed": s, "n_edges": n, "d": d}, pq=pq)
                )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return specs


def build(spec: dict):
    """The generated input of one spec (goes through `generators.*`)."""
    gen = spec["gen"]
    if gen == "projective_instance":
        return generators.projective_instance(ProjectiveParams(spec["dimension"], spec["field_order"]))
    cfg = GenConfig(**spec["cfg"])
    if gen == "planted_pq_family":
        return generators.planted_pq_family(cfg, PQParameters(*spec["pq"]))
    if gen == "planted_pq_subforests":
        return generators.planted_pq_subforests(cfg, PQParameters(*spec["pq"]))
    if gen == "random_d_intervals":
        return generators.random_d_intervals(cfg)
    if gen == "random_tw_graph":
        return generators.random_tw_graph(cfg, spec["width"])
    raise ValueError(f"unknown generator {gen!r}")


def select(entries: list[dict], seed: int, tiny: bool = False) -> list[dict]:
    """The seed's batch: one entry of each cost-neighbour pair, shuffled.

    `tiny` keeps only the first two pool entries of every stratum.
    """
    rng = random.Random(seed)
    batch = []
    for _, group in itertools.groupby(entries, key=lambda e: e["stratum"]):
        group = list(group)
        if tiny:
            group = group[:2]
        if group[0]["sample"] == "all":
            batch.extend(group)
            continue
        group.sort(key=lambda e: (e["cost_ms"], e["id"]))
        for a, b in itertools.zip_longest(group[::2], group[1::2]):
            batch.append(a if b is None else rng.choice((a, b)))
    rng.shuffle(batch)
    return batch


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> list[dict]:
    """Stored pool entries; refuses a file whose specs drifted from `pool`."""
    with open(reference_path(workload)) as fh:
        entries = json.load(fh)["entries"]
    strip = [{k: v for k, v in e.items() if k not in ("cost_ms", "expect")} for e in entries]
    if strip != pool(workload):
        raise ValueError(f"{reference_path(workload)} does not match the {workload} pool")
    return entries


class Item:
    """One selected instance: its spec, generated input and expected answer."""

    def __init__(self, entry: dict):
        self.entry = entry
        self.input = build(entry)
        self._instance = None

    def instance(self) -> HypergraphInstance:
        """Incidence form of the original input, built outside any timing."""
        if self._instance is None:
            fam = self.input
            if isinstance(fam, TwInstance):
                self._instance = HypergraphInstance(
                    ground_size=fam.graph.n, edges=fam.subgraphs, provenance="abstract"
                )
            else:
                self._instance = to_incidence(fam)
        return self._instance


def setup(workload: str, seed: int, tiny: bool = False) -> list[Item]:
    """Load the reference, pick the seed's batch and generate its inputs."""
    return [Item(e) for e in select(load_reference(workload), seed, tiny)]


# ---------------------------------------------------------------------------
# the timed call and its check
# ---------------------------------------------------------------------------

def run_instance(workload: str, item: Item):
    """Everything the program does for one instance; this is what is timed."""
    spec, fam = item.entry, item.input
    if workload == "projective_lp":
        return bounds.sharpness_probe(spec["dimension"], [spec["field_order"]])
    if workload == "bound_campaign":
        params = PQParameters(*spec["pq"]) if spec["pq"] else None
        kinds = [BoundKind(k) for k in spec["kinds"]]
        reports = bounds.verify_bundle(fam, kinds, params=params, seed=spec["cfg"]["seed"])
        if not isinstance(fam, TwInstance):
            return reports, None
        lifted = treewidth.lift_family(fam.graph, fam.decomposition, fam.subgraphs, d=fam.d)
        lifted_instance = model.to_incidence(lifted.family)
        tau_lift = solvers.covering_number(lifted_instance)
        cover = treewidth.lift_cover(fam.decomposition, tau_lift.witness, fam.subgraphs)
        return reports, (lifted_instance, tau_lift, cover)
    instance = model.to_incidence(fam)
    verdict = solvers.pq_check(instance, PQParameters(*spec["pq"]))
    r, _ = solvers.max_depth(instance)
    return instance, verdict, r


def summary(workload: str, result) -> dict:
    """The exact values of a result that must match the reference.

    Witnesses and node counts are left out: they may legitimately change,
    and `check` re-validates the witnesses instead.
    """
    if workload == "projective_lp":
        return {"rows": result}
    if workload == "bound_campaign":
        reports, lift = result
        first = reports[0]
        out = {
            "nu": first.nu,
            "tau": first.tau,
            "tau_star": str(first.tau_star),
            "r": first.r,
            "kinds": [[rep.kind.value, rep.applicable, rep.satisfied] for rep in reports],
        }
        if lift is not None:
            out["tau_lift"] = lift[1].optimum
        return out
    _, verdict, r = result
    return {"holds": verdict.holds, "r": r}


def check(workload: str, item: Item, result) -> list[str]:
    """Problems with one result: reference mismatches and invalid witnesses."""
    problems = []
    got = summary(workload, result)
    if got != item.entry["expect"]:
        problems.append(f"expected {item.entry['expect']}, got {got}")
    if workload == "projective_lp":
        fam = item.input
        row = result[0]
        if (row["ground"], row["d"]) != (fam.instance.ground_size, fam.d):
            problems.append("probe row disagrees with the generated instance")
    elif workload == "bound_campaign":
        reports, lift = result
        inst = item.instance()
        for rep in reports:
            if len(set(rep.witness_cover)) != rep.tau or not verify_cover(inst, rep.witness_cover):
                problems.append(f"{rep.kind.value}: cover witness fails re-validation")
            if len(set(rep.witness_matching)) != rep.nu or not verify_matching(inst, rep.witness_matching):
                problems.append(f"{rep.kind.value}: matching witness fails re-validation")
        if lift is not None:
            lifted_instance, tau_lift, cover = lift
            width = item.input.decomposition.width
            if len(tau_lift.witness) != tau_lift.optimum or not verify_cover(lifted_instance, tau_lift.witness):
                problems.append("lifted cover witness fails re-validation")
            if not all(cover & h for h in item.input.subgraphs):
                problems.append("pulled-back cover misses a source subgraph")
            if len(cover) > (width + 1) * tau_lift.optimum:
                problems.append("pulled-back cover exceeds (k+1) tau")
    else:
        _, verdict, r = result
        if verdict.max_depth != r:
            problems.append("pq_check depth disagrees with max_depth")
        if not verdict.holds:
            problems.extend(_counterexample_problems(item, verdict.counterexample))
    return problems


def _counterexample_problems(item: Item, subset) -> list[str]:
    """Independent check, on the family itself, that no q of the p edges meet."""
    p, q = item.entry["pq"]
    family = item.input
    subset = sorted(subset or ())
    if len(set(subset)) != p or not all(0 <= i < len(family.edges) for i in subset):
        return [f"counterexample {subset} is not {p} edges"]
    for combo in itertools.combinations(subset, q):
        if subset_intersection_point(family, combo) is not None:
            return [f"counterexample {subset}: edges {combo} share a point"]
    return []
