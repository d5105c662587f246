"""Rebuild `reference/<workload>.json`: the pools with their exact answers.

Run from the repository root:

    python3 perfbench/make_reference.py [workload ...]

Each pool entry gets the exact values the benchmark checks (`expect`) and
its cost in milliseconds (`cost_ms`, the fastest of five timed solves), which
only decides how entries are paired for seeded sampling.  The values are
what this checkout computes, cross-checked where an independent check is
cheap: witnesses are re-validated, nu <= tau* <= tau, the unpruned oracle
confirms nu and tau on instances within its size guard, and planted
families must satisfy their (p,q) property.  Regenerate only on purpose,
and only from a commit whose answers are trusted.
"""

from __future__ import annotations

import json
import sys
import time

from run import bootstrap, git_commit

COST_REPEATS = 5


def _cross_check(workload, item, result) -> bool:
    """Independent checks beyond witness re-validation; True if the oracle ran."""
    from dpierce.solvers import TooLarge, naive_oracle

    if workload == "pq_decide":
        if item.entry["gen"] == "planted_pq_family" and not result[1].holds:
            raise AssertionError(f"{item.entry['id']}: planted family fails its property")
        return False
    if workload != "bound_campaign":
        return False
    reports, _ = result
    rep = reports[0]
    if not rep.nu <= rep.tau_star <= rep.tau:
        raise AssertionError(f"{item.entry['id']}: nu <= tau* <= tau fails")
    if rep.kind.value == "GALLAI" and not rep.satisfied:
        raise AssertionError(f"{item.entry['id']}: GALLAI fails")
    try:
        oracle = (naive_oracle(item.instance(), "nu"), naive_oracle(item.instance(), "tau"))
    except TooLarge:
        return False
    if oracle != (rep.nu, rep.tau):
        raise AssertionError(f"{item.entry['id']}: oracle gives {oracle}, solvers {rep.nu, rep.tau}")
    return True


def build_reference(workload: str) -> dict:
    import workloads

    entries = []
    oracle_checked = 0
    for spec in workloads.pool(workload):
        item = workloads.Item(spec)
        times = []
        for _ in range(COST_REPEATS):
            t0 = time.perf_counter()
            result = workloads.run_instance(workload, item)
            times.append(time.perf_counter() - t0)
        entry = {**spec, "cost_ms": round(min(times) * 1000, 1), "expect": workloads.summary(workload, result)}
        item.entry = entry
        problems = workloads.check(workload, item, result)
        if problems:
            raise AssertionError(f"{spec['id']}: {problems}")
        oracle_checked += _cross_check(workload, item, result)
        entries.append(entry)
    print(f"{workload}: {len(entries)} entries, {oracle_checked} confirmed by the oracle", file=sys.stderr)
    return {"workload": workload, "commit": git_commit(), "entries": entries}


def main(argv) -> int:
    if not bootstrap():
        return 2
    import workloads

    for workload in argv or workloads.WORKLOADS:
        doc = build_reference(workload)
        workloads.REFERENCE_DIR.mkdir(exist_ok=True)
        header = json.dumps({k: v for k, v in doc.items() if k != "entries"})[:-1]
        lines = ",\n".join(json.dumps(e) for e in doc["entries"])
        with open(workloads.reference_path(workload), "w") as fh:
            fh.write(f'{header}, "entries": [\n{lines}\n]}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
