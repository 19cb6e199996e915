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
    parser.add_argument("--hamiltonian", dest="hamiltonian_path", metavar="HAMILTONIAN", required=True,
                        help="Hamiltonian file path")
    parser.add_argument("--shots", type=int, help="measurements per repetition")
    parser.add_argument("--reps", dest="repetitions", metavar="REPS", type=int, help="independent repetitions")
    parser.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, help="master seed")
    parser.add_argument("--state", dest="state_path", metavar="STATE",
                        help="state file path (default: ground state)")
    parser.add_argument("--workers", type=int, help="parallel repetition workers")
    parser.add_argument("--out", required=True, help="report output path")
    parser.add_argument("--format", choices=("csv", "json"), default="json", help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauli-shadows",
        description="Estimate Pauli-sum Hamiltonian energies from randomized "
        "product-basis measurements and benchmark the estimation error.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Each flag but --out and --format sets the ExperimentConfig field of its dest, or leaves its default.
    estimate = subparsers.add_parser("estimate", help="benchmark a single method", argument_default=argparse.SUPPRESS)
    estimate.add_argument("--method", required=True, choices=METHODS, help="basis-selection method")
    _add_common_arguments(estimate)

    compare = subparsers.add_parser("compare", help="benchmark cs, lbcs, and aps together",
                                    argument_default=argparse.SUPPRESS)
    _add_common_arguments(compare)
    return parser


def _summarize(report: BenchmarkReport) -> str:
    predicted = report.predicted_error
    return (
        f"{report.config.method:>5}: exact={report.exact_energy:.6f} "
        f"rms={report.rms_error:.6g} mae={report.mean_abs_error:.6g} "
        f"predicted={'-' if predicted is None else f'{predicted:.6g}'}"
    )


def main(argv: list[str] | None = None) -> int:
    options = vars(build_parser().parse_args(argv))
    command, out, output_format = options.pop("command"), options.pop("out"), options.pop("format")
    try:
        config = ExperimentConfig(**options)
        if command == "estimate":
            reports = [run_benchmark(config)]
        else:
            reports = compare_methods(config)
        write_reports(reports, out, output_format)
    except Exception as exc:  # surface a diagnostic, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print(_summarize(report))
    print(f"wrote {output_format} report to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
