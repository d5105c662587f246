"""The benchmark under `perfbench/` still runs against this package.

The benchmark binds names of the package: its tracer patches functions by
name, its workloads call and check the solvers, and its run header reads
`simplex._Q`.  Here each workload's tiny batch runs in-process under the
tracer and passes the benchmark's own checks, so renaming or deleting
anything the benchmark binds fails this suite.  Nothing is written to disk.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# what each workload's timed call must go through
MAIN_SPAN = {
    "projective_lp": "bounds.sharpness_probe.calls",
    "bound_campaign": "bounds.verify_bundle.calls",
    "pq_decide": "solvers.pq_check.calls",
}


@pytest.fixture(scope="module")
def bench():
    """perfbench's modules, loaded from their files under their own names."""
    names = ("speed", "tracing", "workloads", "run")  # `run` imports the others by name
    sys.path.insert(0, str(PERFBENCH))
    try:
        modules = {}
        for name in names:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            modules[name] = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[name])
        yield modules
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in names:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", sorted(MAIN_SPAN))
def test_workload_runs_traced_and_checks_clean(bench, workload):
    workloads, tracing = bench["workloads"], bench["tracing"]
    assert workload in workloads.WORKLOADS
    items = workloads.setup(workload, 5, tiny=True)
    assert items
    originals = [(home, attr, getattr(home, attr)) for home, attr, _, _ in tracing.TRACED]
    with tracing.Tracer() as tracer:
        for i, item in enumerate(items):
            tracer.instance = (0, i)
            result = workloads.run_instance(workload, item)
            assert workloads.check(workload, item, result) == []
    assert all(getattr(home, attr) is fn for home, attr, fn in originals)
    totals = tracer.totals(0, lambda start, end: end - start)
    assert set(totals) == set(tracing.LAYER_METRICS)
    assert totals[MAIN_SPAN[workload]] == len(items)


def test_run_header_reads_the_package(bench):
    env = bench["run"].environment()
    assert env["gmpy2_live"] is False
