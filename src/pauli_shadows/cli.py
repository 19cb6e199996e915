"""Command-line interface for the benchmark harness.

Two subcommands:

* ``estimate`` runs one method against one Hamiltonian;
* ``compare`` runs cs, lbcs, and aps with the same budget and seeds.

Both write a CSV or JSON report and print a short summary. Exit code is
0 on success and nonzero with a diagnostic on any error.
"""

from __future__ import annotations

import argparse
import sys

from .benchmark import (
    METHODS,
    BenchmarkReport,
    ExperimentConfig,
    compare_methods,
    run_benchmark,
    write_reports,
)


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hamiltonian", required=True, help="Hamiltonian file path")
    parser.add_argument("--shots", type=int, default=1000, help="measurements per repetition")
    parser.add_argument("--reps", type=int, default=10, help="independent repetitions")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--state", default=None, help="state file path (default: ground state)")
    parser.add_argument("--lbcs-tol", type=float, default=1e-10, help="LBCS descent tolerance")
    parser.add_argument("--workers", type=int, default=1, help="parallel repetition workers")
    parser.add_argument("--out", required=True, help="report output path")
    parser.add_argument("--format", choices=("csv", "json"), default="json", help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauli-shadows",
        description="Estimate Pauli-sum Hamiltonian energies from randomized "
        "product-basis measurements and benchmark the estimation error.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    estimate = subparsers.add_parser("estimate", help="benchmark a single method")
    estimate.add_argument("--method", required=True, choices=METHODS, help="basis-selection method")
    _add_common_arguments(estimate)

    compare = subparsers.add_parser("compare", help="benchmark cs, lbcs, and aps together")
    _add_common_arguments(compare)
    return parser


def _config_from_args(args: argparse.Namespace, method: str) -> ExperimentConfig:
    return ExperimentConfig(
        hamiltonian_path=args.hamiltonian,
        method=method,
        shots=args.shots,
        repetitions=args.reps,
        master_seed=args.seed,
        state_path=args.state,
        lbcs_tol=args.lbcs_tol,
        workers=args.workers,
    )


def _summarize(report: BenchmarkReport) -> str:
    predicted = (
        "inf"
        if report.predicted_error_infinite
        else ("-" if report.predicted_error is None else f"{report.predicted_error:.6g}")
    )
    return (
        f"{report.method:>5}: exact={report.exact_energy:.6f} "
        f"rms={report.rms_error:.6g} mae={report.mean_abs_error:.6g} "
        f"predicted={predicted}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "estimate":
            config = _config_from_args(args, args.method)
            reports = [run_benchmark(config)]
        else:
            config = _config_from_args(args, METHODS[0])
            reports = compare_methods(config)
        write_reports(reports, args.out, args.format)
    except Exception as exc:  # surface a diagnostic, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print(_summarize(report))
    print(f"wrote {args.format} report to {args.out}")
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
