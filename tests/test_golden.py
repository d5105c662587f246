"""Byte-for-byte regression against recorded reports.

`tests/data/golden_*` hold a campaign report (runtime fields stripped),
the nu/tau search node counts of every campaign instance, and
the `dpierce solve` / `dpierce verify` output on one interval file and
one tree-width file, and three more generated families as written by
`dumps_instance`, and the sharpness probe's rows on eight projective
spaces.  Any change to a witness, a node count, a bound string, a ratio
or a generated coordinate shows up here.  Rebuild the files on purpose only:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from dpierce import (
    GenConfig,
    PQParameters,
    ProjectiveParams,
    covering_number,
    dumps_instance,
    matching_number,
    planted_pq_family,
    projective_instance,
    random_d_intervals,
    random_tw_graph,
    run_campaign,
    to_incidence,
)
from dpierce import bounds, solvers
from dpierce.campaign import _instances
from dpierce.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN_CONFIG = {
    "campaigns": [
        {
            "name": "planted-pp",
            "kinds": ["DPP_STAR", "DPP_TAU", "ALON"],
            "p": 3,
            "q": 3,
            "source": {"generator": "planted_intervals", "count": 6, "seed": 40, "n_edges": 9, "d": 2},
        },
        {
            "name": "planted-pq",
            "kinds": ["DPQ_STAR", "DPQ_TAU", "KAISER_P2", "ALON"],
            "p": 4,
            "q": 2,
            "source": {"generator": "planted_intervals", "count": 6, "seed": 50, "n_edges": 9, "d": 2},
        },
        {
            "name": "planted-subforests",
            "kinds": ["TREE_PP_STAR", "TREE_PP_TAU", "TREE_PQ_TAU", "ALON"],
            "p": 2,
            "q": 2,
            "source": {
                "generator": "planted_subforests",
                "count": 5,
                "seed": 60,
                "n_edges": 8,
                "d": 2,
                "host_size": 10,
            },
        },
        {
            "name": "random-gallai",
            "kinds": ["GALLAI", "ALON"],
            "source": {"generator": "random_intervals", "count": 8, "seed": 70, "n_edges": 9, "d": 1},
        },
        {
            "name": "random-d2",
            "kinds": ["GALLAI", "ALON"],
            "source": {"generator": "random_intervals", "count": 6, "seed": 90, "n_edges": 8, "d": 2},
        },
        {
            "name": "tw",
            "kinds": ["TW_TAU", "ALON"],
            "p": 6,
            "q": 2,
            "source": {
                "generator": "tw",
                "count": 5,
                "seed": 80,
                "n_edges": 7,
                "d": 2,
                "host_size": 7,
                "width": 2,
            },
        },
        {
            "name": "projective",
            "kinds": ["DPP_STAR", "ALON"],
            "p": 2,
            "q": 2,
            "source": {"generator": "projective", "dimension": 2, "field_order": 3},
        },
    ]
}

# (input file, subcommand arguments after the file)
CLI_CASES = {
    "solve_intervals": ("golden_intervals.json", ["solve"]),
    "verify_intervals": ("golden_intervals.json", ["verify", "--kind", "DPQ_TAU", "--p", "3", "--q", "2"]),
    "solve_tw": ("golden_tw.json", ["solve"]),
    "verify_tw": ("golden_tw.json", ["verify", "--kind", "TW_TAU", "--p", "6", "--q", "2"]),
}


# dimension -> the prime field orders of the pinned sharpness rows
SHARPNESS_CASES = {2: (2, 3, 5, 7, 11, 13), 3: (2, 3, 5, 7), 4: (3,), 5: (2,)}


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def golden_inputs() -> dict[str, str]:
    """The two instance files the CLI cases read, and three more generated files.

    The PG(2,3) and PG(3,2) realizations and one random 3-interval family pin
    the projective and random generators byte for byte.
    """
    intervals = planted_pq_family(GenConfig(seed=5, n_edges=9, d=2), PQParameters(3, 2))
    tw = random_tw_graph(GenConfig(seed=7, n_edges=7, d=2, host_size=7), 2)
    return {
        "golden_intervals.json": dumps_instance(intervals),
        "golden_tw.json": dumps_instance(tw),
        "golden_pg23.json": dumps_instance(projective_instance(ProjectiveParams(2, 3)).realization),
        "golden_pg32.json": dumps_instance(projective_instance(ProjectiveParams(3, 2)).realization),
        "golden_random_d3.json": dumps_instance(random_d_intervals(GenConfig(seed=0, n_edges=12, d=3))),
    }


def golden_outputs(tmp_dir: Path) -> dict[str, str]:
    """File name -> exact text that the current code produces."""
    report, code = run_campaign(GOLDEN_CONFIG)
    assert code == 0
    del report["total_runtime_seconds"]
    for camp in report["campaigns"]:
        del camp["runtime_seconds"]
    out = {"golden_campaign.json": _dump(report)}

    nodes = {}
    for camp in GOLDEN_CONFIG["campaigns"]:
        params = PQParameters(camp["p"], camp["q"]) if "p" in camp else None
        rows = []
        for seed, family in _instances(camp["source"], params, "source"):
            instance = to_incidence(family)
            rows.append(
                [seed, matching_number(instance).node_count, covering_number(instance).node_count]
            )
        nodes[camp["name"]] = rows
    out["golden_node_counts.json"] = _dump(nodes)

    for name, (source, argv) in CLI_CASES.items():
        target = tmp_dir / f"{name}.json"
        assert main([argv[0], str(DATA / source), *argv[1:], "-o", str(target)]) == 0
        out[f"golden_{name}.json"] = target.read_text(encoding="utf-8")
    return out


def golden_sharpness() -> str:
    """The `sharpness_probe` rows of every space in `SHARPNESS_CASES`, in order."""
    probe = bounds.sharpness_probe
    return _dump([row for k, primes in SHARPNESS_CASES.items() for row in probe(k, primes)])


def test_inputs_match_generators():
    for name, text in golden_inputs().items():
        assert (DATA / name).read_text(encoding="utf-8") == text, name


def test_outputs_byte_identical(tmp_path):
    for name, text in golden_outputs(tmp_path).items():
        assert (DATA / name).read_text(encoding="utf-8") == text, name


def test_sharpness_rows_byte_identical(monkeypatch):
    # the probe reads tau* alone, so it never asks for the weights
    def refuse(instance):
        raise AssertionError("fractional_pair called")

    monkeypatch.setattr(solvers, "fractional_pair", refuse)
    monkeypatch.setattr(bounds, "fractional_pair", refuse, raising=False)
    assert (DATA / "golden_sharpness.json").read_text(encoding="utf-8") == golden_sharpness()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for name, text in golden_inputs().items():
        (DATA / name).write_text(text, encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in golden_outputs(Path(tmp)).items():
            (DATA / name).write_text(text, encoding="utf-8")
    (DATA / "golden_sharpness.json").write_text(golden_sharpness(), encoding="utf-8")
