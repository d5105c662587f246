"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bound_campaign [--seed 1] [--seconds 40] [--trace 0]

Run from the repository root; `dpierce` is imported from `src/` there.  One
caller sends one instance at a time and waits for it (a closed loop, one
process, no threads).  The set-up (loading the reference, picking the
seed's batch, generating the inputs) runs before every other pass, repeated
there until it has taken half a second; the batch is run in whole passes
until the next pass would end after `--seconds`.  Every result is checked
against the stored reference.

Times are seconds at the machine's full speed (see `speed.py`): each
measured interval is scaled by the speed sampled during it.  `wall_s` is
the sum over instances of each instance's median over the passes, the
percentiles are taken over those medians, and `setup_s` is the median
set-up.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
untraced and traced passes alternate, and the metrics are the per-layer
ones of the traced passes plus the tracing overhead; the spans are written
to `.bench_out/`.  The last line of output is one JSON object; the exit
status is 1 if any instance failed and 2 if the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
SETUP_MIN_REPEATS = 3
SETUP_BURST_S = 0.5
MAX_REPORTED_FAILURES = 10


def bootstrap() -> bool:
    """Put the checkout's `src/` first on the path; False if it is missing."""
    src = ROOT / "src"
    if not (src / "dpierce" / "__init__.py").is_file():
        print(f"error: no dpierce package under {src}", file=sys.stderr)
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


def git_commit() -> str | None:
    """HEAD of the checkout read from `.git`, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    from fractions import Fraction

    import mpmath
    from dpierce import simplex

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "mpmath": mpmath.__version__,
        "commit": git_commit(),
        "gmpy2_live": simplex._Q is not Fraction,
    }


def run_pass(workload, items, tracer, pass_no, failures) -> list[tuple[float, float]]:
    """One closed-loop pass over the batch; returns each instance's (start, end)."""
    import workloads

    gc.collect()
    spans = []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.instance = (pass_no, i)
        t0 = time.perf_counter()
        try:
            result = workloads.run_instance(workload, item)
        except Exception as exc:  # any exception fails the instance
            spans.append((t0, time.perf_counter()))
            failures.append(f"{item.entry['id']}: {type(exc).__name__}: {exc}")
            continue
        spans.append((t0, time.perf_counter()))
        problems = workloads.check(workload, item, result)
        del result  # do not hold it while the next instance runs
        if problems:
            failures.append(f"{item.entry['id']}: {'; '.join(problems)}")
    return spans


def per_instance_median(passes: list[list[float]]) -> list[float]:
    """Each instance's median latency over the passes."""
    return [statistics.median(column) for column in zip(*passes)]


def percentile(values, pct: int) -> tuple[float, int]:
    """(inclusive-method percentile, number of samples above it)."""
    cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return cut, sum(1 for v in values if v > cut)


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    import workloads
    from tracing import LAYER_METRICS, Tracer

    tracer = Tracer() if trace else None
    items = None
    setups: list[tuple[float, float]] = []
    failures: list[str] = []
    untraced: list[list[tuple[float, float]]] = []
    traced: list[list[tuple[float, float]]] = []
    deadline = time.perf_counter() + seconds
    pass_no = 0
    with SpeedSampler() as sampler:
        while True:
            started = time.perf_counter()
            # set-ups between passes spread their samples over the run; a traced
            # run also traces the set-up before each traced pass (`generators.*`)
            if tracer is not None and pass_no % 2 == 1:
                with tracer:
                    tracer.instance = (f"setup{pass_no}", 0)
                    workloads.setup(workload, seed, tiny)
                    traced.append(run_pass(workload, items, tracer, pass_no, failures))
            else:
                if pass_no % 2 == 0:
                    # cheap set-ups are repeated, so the median has many samples
                    burst_started = time.perf_counter()
                    while time.perf_counter() - burst_started < SETUP_BURST_S:
                        t0 = time.perf_counter()
                        fresh = workloads.setup(workload, seed, tiny)
                        setups.append((t0, time.perf_counter()))
                        items = items or fresh
                        del fresh
                untraced.append(run_pass(workload, items, None, pass_no, failures))
            pass_no += 1
            # stop when the next pass, as long as this one, would overrun
            now = time.perf_counter()
            if (
                now + (now - started) > deadline
                and len(setups) >= SETUP_MIN_REPEATS
                and (tracer is None or traced)
            ):
                break

    def normalised(passes):
        return [[sampler.normalise(*span) for span in spans] for spans in passes]

    typical = per_instance_median(normalised(untraced))
    untraced_wall = sum(typical)
    p50, beyond50 = percentile(typical, 50)
    p95, beyond95 = percentile(typical, 95)
    out = {
        "passes": pass_no,
        "pass_walls": [spans[-1][1] - spans[0][0] for spans in untraced],
        "speed": statistics.median(REFERENCE_S / t for t in sampler.times),
        "samples": len(sampler.times),
        "batch": len(items),
        "attempted": pass_no * len(items),
        "failures": failures,
        "beyond": {"instance_p50_ms": beyond50, "instance_p95_ms": beyond95},
        "setup_repeats": len(setups),
        "end_to_end": {
            "wall_s": (untraced_wall, "s"),
            "instance_p50_ms": (p50 * 1000, "ms"),
            "instance_p95_ms": (p95 * 1000, "ms"),
            "setup_s": (statistics.median(sampler.normalise(*span) for span in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }
    if tracer is not None:
        traced_pass_nos = range(1, pass_no, 2)
        per_pass = [tracer.totals(n, sampler.normalise) for n in traced_pass_nos]
        layers = {m: statistics.median(t[m] for t in per_pass) for m in LAYER_METRICS}
        per_setup = [tracer.totals(f"setup{n}", sampler.normalise) for n in traced_pass_nos]
        for m in ("generators.calls", "generators.s"):
            layers[m] = statistics.median(t[m] for t in per_setup)
        per_layer = {m: (v, LAYER_METRICS[m][2]) for m, v in layers.items()}
        traced_wall = sum(per_instance_median(normalised(traced)))
        per_layer["trace.untraced_wall_s"] = (untraced_wall, "s")
        per_layer["trace.traced_wall_s"] = (traced_wall, "s")
        per_layer["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        out["per_layer"] = per_layer
        out["tracer"] = tracer
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("projective_lp", "bound_campaign", "pq_decide"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: two pool entries per stratum, for smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not bootstrap():
        return 2
    env = environment()
    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          "closed loop, one caller, one process, no threads")

    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale == "tiny")
    for failure in res["failures"][:MAX_REPORTED_FAILURES]:
        print("FAILED " + failure, file=sys.stderr)
    failed = len(res["failures"])
    attempted = res["attempted"]
    print(f"passes {res['passes']} x {res['batch']} instances; "
          f"setup timed {res['setup_repeats']} times")
    print("untraced passes, seconds as measured: " + " ".join(f"{w:.3f}" for w in res["pass_walls"]))
    print(f"speed: median {res['speed']:.3f} of full speed over {res['samples']} samples")
    for name, (value, unit) in res["end_to_end"].items():
        note = ""
        if name in res["beyond"]:
            note = f"  (over {res['batch']} instances, {res['beyond'][name]} beyond)"
        print(f"metric {name} = {value:.6g} {unit}{note}")
    print(f"metric error_rate = {failed / attempted:.6g} ratio  ({failed} failed / {attempted} attempted)")

    if args.trace:
        metrics = res["per_layer"]
        for name, (value, unit) in metrics.items():
            print(f"layer {name} = {value:.6g} {unit}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        res["tracer"].dump(path, {"env": env, "workload": args.workload, "seed": args.seed})
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = res["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
