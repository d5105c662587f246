"""Verification campaigns: batches of instances checked against bound kinds.

A campaign config is one JSON document:

    {
      "campaigns": [
        {
          "name": "pp-bounds",
          "kinds": ["DPP_STAR", "DPP_TAU", "ALON"],
          "p": 2, "q": 2,
          "source": {
            "generator": "planted_intervals",
            "count": 100, "seed": 1,
            "n_edges": 10, "d": 2, "coord_denominator": 4,
            "host_size": 10, "width": 1
          }
        },
        {"name": "from-files", "kinds": ["GALLAI"],
         "source": {"files": ["inst1.json", "inst2.json"]}}
      ]
    }

Generators: random_intervals, planted_intervals, random_subforests,
planted_subforests, tw, projective (the latter takes "dimension" and
"field_order" instead of count/seed).  Instance i of a counted source uses
seed + i; an omitted knob takes its `GenConfig` default ("width", tw only,
defaults to 1).  Reports follow the source's instance order, sorted by
kind within each instance; each report of a "files" source names its file.
The aggregate report records pass/fail tallies, the largest
measured/bound ratio per kind (tightness telemetry), and total runtime;
any unsatisfied applicable report makes the exit status 1 and embeds the
full instance for replay.
"""

from __future__ import annotations

import json
import time
from dataclasses import fields

from .bounds import BoundKind, BoundReport, max_measured_over_bound, verify_bundle
from .generators import (
    GenConfig,
    ProjectiveParams,
    is_prime,
    planted_pq_family,
    planted_pq_subforests,
    projective_instance,
    random_d_intervals,
    random_subforests,
    random_tree,
    random_tw_graph,
)
from .instance_io import load_instance, to_json_dict
from .model import PQParameters


class CampaignConfigError(ValueError):
    """Malformed campaign configuration."""


# generators of a counted source, which takes "count" and "seed"
_COUNTED_GENERATORS = (
    "random_intervals",
    "planted_intervals",
    "random_subforests",
    "planted_subforests",
    "tw",
)


def _cfg_int(spec: dict, key: str, where: str, minimum: int, default: int | None = None) -> int:
    """spec[key], an int of at least `minimum`; `where` is the spec's config path."""
    value = spec.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise CampaignConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    if value < minimum:
        raise CampaignConfigError(f"{where}.{key}: expected at least {minimum}, got {value}")
    return value


def _instances(spec: dict, params: PQParameters | None, where: str):
    """Yield (seed, family) pairs for one campaign source, found at `where`."""
    if "files" in spec:
        for path in spec["files"]:
            yield 0, load_instance(path)
        return
    generator = spec.get("generator")
    if generator == "projective":
        dimension = _cfg_int(spec, "dimension", where, 2)
        field_order = _cfg_int(spec, "field_order", where, 2)
        if not is_prime(field_order):
            raise CampaignConfigError(f"{where}.field_order: expected a prime, got {field_order}")
        p = ProjectiveParams(dimension=dimension, field_order=field_order)
        yield 0, projective_instance(p).realization
        return
    if generator not in _COUNTED_GENERATORS:
        raise CampaignConfigError(f"{where}.generator: unknown generator {generator!r}")
    if generator.startswith("planted_") and params is None:
        raise CampaignConfigError(f"{where}.generator: {generator} needs p and q")
    count = _cfg_int(spec, "count", where, 0)
    base_seed = _cfg_int(spec, "seed", where, 0)
    knobs = {
        f.name: _cfg_int(spec, f.name, where, 1, f.default)
        for f in fields(GenConfig)
        if f.name != "seed"
    }
    width = _cfg_int(spec, "width", where, 0, 1) if generator == "tw" else None
    if generator == "planted_subforests" and knobs["host_size"] < params.pigeonhole_points:
        raise CampaignConfigError(
            f"{where}.host_size: expected at least {params.pigeonhole_points} for "
            f"the anchors of p={params.p}, q={params.q}, got {knobs['host_size']}"
        )
    for i in range(count):
        cfg = GenConfig(seed=base_seed + i, **knobs)
        if generator == "random_intervals":
            yield cfg.seed, random_d_intervals(cfg)
        elif generator == "planted_intervals":
            yield cfg.seed, planted_pq_family(cfg, params)
        elif generator == "random_subforests":
            yield cfg.seed, random_subforests(random_tree(cfg), cfg)
        elif generator == "planted_subforests":
            yield cfg.seed, planted_pq_subforests(cfg, params)
        else:  # tw
            yield cfg.seed, random_tw_graph(cfg, width)


def run_campaign(config: dict) -> tuple[dict, int]:
    """Run every campaign in `config`; returns (report, exit_code).

    exit_code is 1 when any applicable report is unsatisfied, else 0.
    """
    if not isinstance(config, dict) or "campaigns" not in config:
        raise CampaignConfigError('config must be an object with a "campaigns" array')
    if not isinstance(config["campaigns"], list):
        raise CampaignConfigError(f"campaigns: expected a list, got {config['campaigns']!r}")
    t0 = time.perf_counter()
    campaign_reports = []
    any_violated = False

    for idx, camp in enumerate(config["campaigns"]):
        if not isinstance(camp, dict):
            raise CampaignConfigError(f"campaigns[{idx}]: expected an object")
        name = camp.get("name", f"campaign-{idx}")
        names = camp.get("kinds")
        if not (isinstance(names, list) and all(isinstance(k, str) for k in names)):
            raise CampaignConfigError(
                f"campaigns[{idx}].kinds: expected a list of strings, got {names!r}"
            )
        try:
            kinds = [BoundKind(k) for k in names]
        except ValueError as exc:
            raise CampaignConfigError(f"campaigns[{idx}].kinds: {exc}") from None
        params = None
        if "p" in camp or "q" in camp:
            try:
                params = PQParameters(p=camp["p"], q=camp.get("q", camp["p"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise CampaignConfigError(f"campaigns[{idx}]: bad p/q: {exc}") from None
        source = camp.get("source")
        if not isinstance(source, dict):
            raise CampaignConfigError(f"campaigns[{idx}].source: expected an object")
        files = source.get("files")
        if "files" in source and not (
            isinstance(files, list) and all(isinstance(path, str) for path in files)
        ):
            raise CampaignConfigError(
                f"campaigns[{idx}].source.files: expected a list of strings, got {files!r}"
            )

        t_camp = time.perf_counter()
        # instances in source order, each one's reports sorted by kind
        reports: list[tuple[BoundReport, object, str | None]] = []
        where = f"campaigns[{idx}].source"
        for i, (seed, family) in enumerate(_instances(source, params, where)):
            bundle = verify_bundle(family, kinds, params=params, seed=seed)
            for report in sorted(bundle, key=lambda r: r.kind.value):
                reports.append((report, family, files[i] if files else None))

        tallies = {"applicable": 0, "satisfied": 0, "unsatisfied": 0, "inapplicable": 0}
        entries = []
        for report, family, path in reports:
            entry = report.to_json_dict()
            if path is not None:
                entry["file"] = path
            if not report.applicable:
                tallies["inapplicable"] += 1
            else:
                tallies["applicable"] += 1
                if report.satisfied:
                    tallies["satisfied"] += 1
                else:
                    tallies["unsatisfied"] += 1
                    any_violated = True
                    entry["instance"] = to_json_dict(family)  # full replay payload
            entries.append(entry)

        campaign_reports.append(
            {
                "name": name,
                "kinds": [k.value for k in kinds],
                "reports": entries,
                "tallies": tallies,
                "max_measured_over_bound": max_measured_over_bound(r for r, _, _ in reports),
                "runtime_seconds": round(time.perf_counter() - t_camp, 3),
            }
        )

    report = {
        "campaigns": campaign_reports,
        "total_runtime_seconds": round(time.perf_counter() - t0, 3),
        "all_satisfied": not any_violated,
    }
    return report, (1 if any_violated else 0)


def run_campaign_file(path) -> tuple[dict, int]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CampaignConfigError(f"invalid JSON: {exc}") from None
    return run_campaign(config)
