"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/smoke.py

The file name keeps these out of the repository's default test collection;
they exercise the benchmark, not the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.bootstrap()
import workloads  # noqa: E402  (needs the path set up by bootstrap)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = workloads.WORKLOADS


def _run(capsys, *args):
    code = run.main(["--seed", "5", "--seconds", "0", "--scale", "tiny", *args])
    out = capsys.readouterr().out.splitlines()
    return code, out, json.loads(out[-1])


# what the traced run must show about each workload's layers
ISOLATION = {
    "projective_lp": {
        "simplex.solve_lp_max.repeat_calls": 0,
        "solvers.covering_number.nodes": 0,
        "solvers.matching_number.nodes": 0,
    },
    "bound_campaign": {},
    "pq_decide": {"simplex.solve_lp_max.calls": 0},
}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(capsys, workload, trace, section):
    code, out, result = _run(capsys, "--workload", workload, "--trace", str(trace))
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    prefix = "metric" if section == "end_to_end" else "layer"
    for name, unit in expected.items():
        assert any(line.startswith(f"{prefix} {name} = ") and f" {unit}" in line for line in out)
    assert any(line.startswith("metric error_rate = 0 ") for line in out)
    assert any(line.startswith("env ") and '"gmpy2_live"' in line for line in out)
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        for name, value in ISOLATION[workload].items():
            assert values[name] == value, name
        if workload == "bound_campaign":
            assert values["simplex.solve_lp_max.repeat_calls"] > 0


def test_corrupted_reference_is_a_failure(capsys, monkeypatch):
    real = workloads.load_reference

    def corrupted(workload):
        entries = real(workload)
        for entry in entries:
            if entry["stratum"] == "random-d1":
                entry["expect"] = {**entry["expect"], "nu": entry["expect"]["nu"] + 1}
        return entries

    monkeypatch.setattr(workloads, "load_reference", corrupted)
    code, _, result = _run(capsys, "--workload", "bound_campaign")
    assert code == 1
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pq_decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
