"""Command-line surface.

Subcommands: gen, solve, check-pq, verify, campaign, sharpness.  All
instance I/O uses the JSON formats of `instance_io`.  Exit codes: 0 on
success, 1 when a checked bound or property is violated, 2 on invalid
input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import BadParams, BoundKind, sharpness_probe, solve_measures, verify_instance
from .campaign import CampaignConfigError, run_campaign_file
from .generators import (
    GenConfig,
    NotPrime,
    ProjectiveParams,
    planted_pq_family,
    planted_pq_subforests,
    projective_instance,
    random_d_intervals,
    random_subforests,
    random_tree,
    random_tw_graph,
)
from .instance_io import InstanceFormatError, dumps_instance, load_instance
from .model import PQParameters, to_incidence
from .solvers import pq_check


def _emit(doc, out) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    cfg = GenConfig(
        seed=args.seed,
        n_edges=args.edges,
        d=args.d,
        coord_denominator=args.denominator,
        host_size=args.host_size,
    )
    if args.kind in ("planted-intervals", "planted-trees"):
        params = PQParameters(p=args.p, q=args.q if args.q else args.p)
        family = (
            planted_pq_family(cfg, params)
            if args.kind == "planted-intervals"
            else planted_pq_subforests(cfg, params)
        )
    elif args.kind == "random-intervals":
        family = random_d_intervals(cfg)
    elif args.kind == "random-trees":
        family = random_subforests(random_tree(cfg), cfg)
    elif args.kind == "projective":
        family = projective_instance(
            ProjectiveParams(dimension=args.dimension, field_order=args.field_order)
        ).realization
    elif args.kind == "tw":
        family = random_tw_graph(cfg, args.width)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.kind)
    text = dumps_instance(family)
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_solve(args) -> int:
    nu, tau, cover_sol, r = solve_measures(to_incidence(load_instance(args.file)))
    _emit(
        {
            "nu": nu.optimum,
            "tau": tau.optimum,
            "tau_star": str(cover_sol.value),
            "witness_cover": sorted(tau.witness),
            "witness_matching": sorted(nu.witness),
            "r": r,
        },
        args.output,
    )
    return 0


def _cmd_check_pq(args) -> int:
    instance = to_incidence(load_instance(args.file))
    verdict = pq_check(instance, PQParameters(p=args.p, q=args.q))
    _emit(
        {
            "holds": verdict.holds,
            "vacuous": verdict.vacuous,
            "counterexample": sorted(verdict.counterexample) if verdict.counterexample else None,
            "r": verdict.max_depth,
        },
        args.output,
    )
    return 0 if verdict.holds else 1


def _cmd_verify(args) -> int:
    family = load_instance(args.file)
    kind = BoundKind(args.kind)
    params = None
    if args.p is not None:
        params = PQParameters(p=args.p, q=args.q if args.q is not None else args.p)
    report = verify_instance(family, kind, params=params, k=args.k, seed=args.seed)
    _emit(report.to_json_dict(), args.output)
    if report.applicable and not report.satisfied:
        return 1
    return 0


def _cmd_campaign(args) -> int:
    report, code = run_campaign_file(args.config)
    _emit(report, args.output)
    return code


def _cmd_sharpness(args) -> int:
    primes = [int(x) for x in args.primes.split(",") if x.strip()]
    rows = sharpness_probe(args.dim, primes)
    header = f"{'q':>5} {'ground':>7} {'d':>5} {'tau*':>10} {'tau*/d^(1/(k-1))':>18}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['field_order']:>5} {row['ground']:>7} {row['d']:>5} "
            f"{row['tau_star']:>10} {row['ratio'][:12]:>18}"
        )
    print("\n".join(lines), file=sys.stderr)
    _emit(rows, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpierce",
        description="Exact piercing toolkit for d-interval and d-tree families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a generated instance file")
    gen.add_argument(
        "--kind",
        required=True,
        choices=[
            "random-intervals",
            "planted-intervals",
            "random-trees",
            "planted-trees",
            "projective",
            "tw",
        ],
    )
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--edges", type=int, default=8)
    gen.add_argument("--d", type=int, default=2)
    gen.add_argument("--denominator", type=int, default=4)
    gen.add_argument("--host-size", type=int, default=10)
    gen.add_argument("--p", type=int, default=2)
    gen.add_argument("--q", type=int, default=0, help="defaults to p")
    gen.add_argument("--dimension", type=int, default=2)
    gen.add_argument("--field-order", type=int, default=2)
    gen.add_argument("--width", type=int, default=1)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="exact nu, tau, tau* and witnesses")
    solve.add_argument("file")
    solve.add_argument("-o", "--output", default=None)
    solve.set_defaults(func=_cmd_solve)

    checkpq = sub.add_parser("check-pq", help="decide the (p,q) property")
    checkpq.add_argument("file")
    checkpq.add_argument("--p", type=int, required=True)
    checkpq.add_argument("--q", type=int, required=True)
    checkpq.add_argument("-o", "--output", default=None)
    checkpq.set_defaults(func=_cmd_check_pq)

    verify = sub.add_parser("verify", help="check one covering bound on a file")
    verify.add_argument("file")
    verify.add_argument("--kind", required=True, choices=[k.value for k in BoundKind])
    verify.add_argument("--p", type=int, default=None)
    verify.add_argument("--q", type=int, default=None)
    verify.add_argument("--k", type=int, default=None, help="decomposition width for TW_TAU")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("-o", "--output", default=None)
    verify.set_defaults(func=_cmd_verify)

    camp = sub.add_parser("campaign", help="run a campaign config")
    camp.add_argument("--config", required=True)
    camp.add_argument("-o", "--output", default=None)
    camp.set_defaults(func=_cmd_campaign)

    sharp = sub.add_parser("sharpness", help="projective sharpness probe")
    sharp.add_argument("--dim", type=int, required=True)
    sharp.add_argument("--primes", required=True, help="comma-separated, e.g. 2,3,5")
    sharp.add_argument("-o", "--output", default=None)
    sharp.set_defaults(func=_cmd_sharpness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        InstanceFormatError,
        CampaignConfigError,
        BadParams,
        NotPrime,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
