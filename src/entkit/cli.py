"""Command-line front end.

Exit codes are stable so pipelines can branch on them: 0 means the analyzed
state is factorized (or, for ``demo``, that every check passed), 1 means
entangled (or a failed demo check), 2 means any error. Machine output is one
JSON document per run; text output renders the same numbers.
"""

from __future__ import annotations

import argparse
import sys

from .demos import demo_names
from .entanglement import RANK_TOL, RESIDUAL_TOL
from .reporting import (
    build_analysis_report,
    build_demo_report,
    build_enumber_report,
    build_factor_report,
    build_schmidt_report,
    emit_machine,
    render_text,
)
from .statefile import StateFileError, parse_state_file

EXIT_FACTORIZED = 0
EXIT_ENTANGLED = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entkit",
        description="Decide and quantify entanglement of two-part pure states.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text",
        help="output rendering: human text or one JSON document",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=RESIDUAL_TOL,
        help="residual tolerance of the entrywise factorization criterion",
    )
    parser.add_argument(
        "--rank-tol",
        type=float,
        default=RANK_TOL,
        help="relative cutoff deciding which singular values count as nonzero",
    )
    parser.add_argument(
        "--normalize",
        action="store_true",
        help="rescale the parsed state to unit norm even without a file directive",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="factor test, Schmidt data and both e routes")
    analyze.add_argument("path")

    schmidt = sub.add_parser("schmidt", help="print the Schmidt decomposition")
    schmidt.add_argument("path")

    enumber = sub.add_parser("enumber", help="entanglement number")
    enumber.add_argument("path")
    enumber.add_argument(
        "--method",
        choices=("schmidt", "trace", "both"),
        default="both",
        help="route used to compute the number",
    )

    factor = sub.add_parser("factor", help="factorization verdict and local parts")
    factor.add_argument("path")

    demo = sub.add_parser("demo", help="rerun a built-in worked example")
    demo.add_argument("name", help=f"one of: {', '.join(demo_names())}, or 'all'")
    demo.add_argument("--seed", type=int, default=0, help="seed for the randomized demo case")
    demo.add_argument("--dim", type=int, default=2, help="dimension for the scenario demo")
    return parser


def _load_state(args):
    with open(args.path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_state_file(text, force_normalize=args.normalize)


def _finish(args, report, factorized: bool) -> int:
    print(emit_machine(report) if args.format == "machine" else render_text(report))
    return EXIT_FACTORIZED if factorized else EXIT_ENTANGLED


def _cmd_analyze(args) -> int:
    state = _load_state(args)
    report = build_analysis_report(state, residual_tol=args.tolerance, rank_tol=args.rank_tol)
    return _finish(args, report, report.verdict == "factorized")


def _cmd_schmidt(args) -> int:
    state = _load_state(args)
    report = build_schmidt_report(state, rank_tol=args.rank_tol)
    return _finish(args, report, report.index == 1)


def _cmd_enumber(args) -> int:
    state = _load_state(args)
    report = build_enumber_report(state, method=args.method, rank_tol=args.rank_tol)
    return _finish(args, report, report.index == 1)


def _cmd_factor(args) -> int:
    state = _load_state(args)
    report = build_factor_report(state, residual_tol=args.tolerance, rank_tol=args.rank_tol)
    return _finish(args, report, report.factorized)


def _cmd_demo(args) -> int:
    report = build_demo_report(args.name, seed=args.seed, dim=args.dim)
    return _finish(args, report, report.passed)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "schmidt": _cmd_schmidt,
    "enumber": _cmd_enumber,
    "factor": _cmd_factor,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (StateFileError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
