"""Command line driver: scenario verification, random suites, CSV export.

Exit codes: 0 all gated certificates pass, 1 a certificate fails, 2
invalid input, 3 numerical breakdown (non-convergence, or an unstable
projection limit under --strict).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import InputError, NumericalBreakdown, ScenarioError
from .scenario import dumps, export_csv, load_report, load_scenario, run_scenario
from .suite import run_suite

EXIT_PASS = 0
EXIT_CERT_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_BREAKDOWN = 3


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be integers, got {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"dims must be >= 1, got {text!r}")
    return dims


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it found it
    parser = argparse.ArgumentParser(
        prog="ergocert",
        description="projection certificates for maximal ergodic averages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run one scenario file and report")
    v.add_argument("scenario", help="path to a scenario file")
    v.add_argument(
        "--strict",
        action="store_true",
        help="ambiguous spectral cuts and unstable limits become breakdowns",
    )
    v.add_argument("--tol", type=float, default=None, help="residual tolerance")
    v.add_argument("--out", default=None, help="report path (default: stdout)")

    s = sub.add_parser("suite", help="run a seeded randomized suite")
    s.add_argument("--seed", type=int, required=True, help="base seed")
    s.add_argument("--count", type=int, required=True, help="number of instances")
    s.add_argument(
        "--dims",
        type=_parse_dims,
        default=(2, 3),
        help="comma separated block dimensions (default 2,3)",
    )
    s.add_argument("--horizon", type=int, default=8, help="uniform horizon")
    s.add_argument("--tol", type=float, default=None, help="residual tolerance")
    s.add_argument("--out", default=None, help="summary path (default: stdout)")

    e = sub.add_parser("export-csv", help="flatten a report to CSV")
    e.add_argument("report", help="path to a report file")
    e.add_argument("--out", default=None, help="CSV path (default: stdout)")
    return parser


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write output file: {exc}") from exc


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    report = run_scenario(scenario, strict=args.strict, tol=args.tol)
    _write_out(dumps(report), args.out)
    return EXIT_PASS if report["overall_pass"] else EXIT_CERT_FAILURE


def _cmd_suite(args: argparse.Namespace) -> int:
    report = run_suite(
        args.seed, args.count, args.dims, horizon=args.horizon, tol=args.tol
    )
    _write_out(dumps(report), args.out)
    return EXIT_PASS if report["overall_pass"] else EXIT_CERT_FAILURE


def _cmd_export_csv(args: argparse.Namespace) -> int:
    report = load_report(args.report)
    _write_out(export_csv(report), args.out)
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # --tol of verify and suite, checked before any work
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol > 0.0):
            raise InputError(f"--tol must be positive and finite, got {tol}")
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "suite":
            return _cmd_suite(args)
        return _cmd_export_csv(args)
    except InputError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except NumericalBreakdown as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN


if __name__ == "__main__":
    sys.exit(main())
