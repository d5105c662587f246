"""Command-line surface.

Subcommands: gen, solve, check-pq, verify, campaign, sharpness.  All
instance I/O uses the JSON formats of `instance_io`.  Exit codes: 0 on
success, 1 when a checked bound or property is violated, 2 on invalid
input.  Long options are taken only as spelled out: a prefix such as
`--k` for `--kind` is an unrecognized argument, and it is named as one
even when the option it stands for is required and so missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .bounds import BoundKind, sharpness_probe, verify_instance
from .campaign import _instances, run_campaign_file
from .instance_io import dumps_instance, load_instance
from .model import PQParameters, to_incidence
from .solvers import pq_check, solve


def _emit(doc, out) -> None:
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)


def _write(text: str, out) -> None:
    """Write `text` to the file `out`, or to stdout when `out` is None or "-"."""
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# gen's --kind names and the campaign generators they run
_GEN_SOURCES = {
    "random-intervals": "random_intervals",
    "planted-intervals": "planted_intervals",
    "random-trees": "random_subforests",
    "planted-trees": "planted_subforests",
    "projective": "projective",
    "tw": "tw",
}
# gen's source keys; an omitted one takes the source's default
_GEN_KNOBS = ("n_edges", "d", "coord_denominator", "host_size", "width", "dimension", "field_order")


def _cmd_gen(args) -> int:
    source = {"generator": _GEN_SOURCES[args.kind], "count": 1, "seed": args.seed}
    source.update((key, getattr(args, key)) for key in _GEN_KNOBS if getattr(args, key) is not None)
    params = None
    if args.kind.startswith("planted-"):
        params = PQParameters(p=args.p, q=args.p if args.q is None else args.q)
    [(_, family)] = _instances(source, params, "gen")
    _write(dumps_instance(family), args.output)
    return 0


def _cmd_solve(args) -> int:
    solved = solve(to_incidence(load_instance(args.file)))
    _emit(
        {
            "nu": solved.nu.optimum,
            "tau": solved.tau.optimum,
            "tau_star": str(solved.tau_star),
            "witness_cover": sorted(solved.tau.witness),
            "witness_matching": sorted(solved.nu.witness),
            "r": solved.r,
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
    report = verify_instance(family, kind, params=params, seed=args.seed)
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


@contextmanager
def _required_as(actions, value: bool):
    """Set `required` of each action to `value` for the block, then restore it."""
    old = [a.required for a in actions]
    for action in actions:
        action.required = value
    try:
        yield
    finally:
        for action, was in zip(actions, old):
            action.required = was


class _Parser(argparse.ArgumentParser):
    """Names unrecognized arguments before missing required options.

    argparse checks required options before it looks at what is left over,
    so a mistyped required flag (`--kin` for `--kind`) would be named only
    as missing.  Here the required options are optional while the arguments
    are read and are checked after the leftovers; usage and help, printed
    on an error or for `-h` while the arguments are read, still show them
    as required.
    """

    _relaxed = ()  # the required options, optional while the arguments are read

    def parse_known_args(self, args=None, namespace=None):
        self._relaxed = [a for a in self._actions if a.required and a.option_strings]
        with _required_as(self._relaxed, False):
            namespace, extras = super().parse_known_args(args, namespace)
        missing = [
            "/".join(a.option_strings) for a in self._relaxed if getattr(namespace, a.dest) is None
        ]
        if missing:
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            self.error(f"the following arguments are required: {', '.join(missing)}")
        return namespace, extras

    def format_usage(self):
        with _required_as(self._relaxed, True):
            return super().format_usage()

    def format_help(self):
        with _required_as(self._relaxed, True):
            return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dpierce",
        description="Exact piercing toolkit for d-interval and d-tree families",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a generated instance file", allow_abbrev=False)
    gen.add_argument(
        "--kind",
        required=True,
        choices=list(_GEN_SOURCES),
    )
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--edges", dest="n_edges", type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("--denominator", dest="coord_denominator", type=int)
    gen.add_argument("--host-size", type=int)
    gen.add_argument("--p", type=int, default=2)
    gen.add_argument("--q", type=int, help="defaults to p")
    gen.add_argument("--dimension", type=int, default=2)
    gen.add_argument("--field-order", type=int, default=2)
    gen.add_argument("--width", type=int)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="exact nu, tau, tau* and witnesses", allow_abbrev=False)
    solve.add_argument("file")
    solve.add_argument("-o", "--output", default=None)
    solve.set_defaults(func=_cmd_solve)

    checkpq = sub.add_parser("check-pq", help="decide the (p,q) property", allow_abbrev=False)
    checkpq.add_argument("file")
    checkpq.add_argument("--p", type=int, required=True)
    checkpq.add_argument("--q", type=int, required=True)
    checkpq.add_argument("-o", "--output", default=None)
    checkpq.set_defaults(func=_cmd_check_pq)

    verify = sub.add_parser("verify", help="check one covering bound on a file", allow_abbrev=False)
    verify.add_argument("file")
    verify.add_argument("--kind", required=True, choices=[k.value for k in BoundKind])
    verify.add_argument("--p", type=int, default=None)
    verify.add_argument("--q", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("-o", "--output", default=None)
    verify.set_defaults(func=_cmd_verify)

    camp = sub.add_parser("campaign", help="run a campaign config", allow_abbrev=False)
    camp.add_argument("--config", required=True)
    camp.add_argument("-o", "--output", default=None)
    camp.set_defaults(func=_cmd_campaign)

    sharp = sub.add_parser("sharpness", help="projective sharpness probe", allow_abbrev=False)
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
    # every error of the package (bad instance, config, params, field order)
    # is a ValueError; a path that cannot be read or written is an OSError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
