"""Benchmark harness: repeated estimation runs and error statistics.

Runs R independent estimation repetitions of S shots against the exact
energy, reports the empirical RMS and mean absolute errors, and (for the
product-distribution methods) the analytic error prediction
``sqrt(diagonal_cost / S)``.

Randomness policy: repetition r uses a generator seeded from
``SeedSequence([master_seed, r])``, so results are independent of worker
count and reproducible bit for bit. JSON reports deliberately exclude
wall-clock timings to stay byte-identical across runs; timings appear in
the CSV output and on the in-memory report object.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .estimation import estimate_energy
from .paulis import load_hamiltonian
from .sampling import (
    AdaptiveBasisSampler,
    ProductBasisSampler,
    diagonal_cost,
    locally_biased_distribution,
    uniform_distribution,
)
from .states import ground_state, hamiltonian_expectation, load_state

METHODS = ("cs", "lbcs", "aps")

CSV_COLUMNS = (
    "method",
    "shots",
    "reps",
    "exact_energy",
    "rms_error",
    "mean_abs_error",
    "predicted_error",
    "wall_time_s",
)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one benchmark run."""

    hamiltonian_path: str
    method: str = "cs"
    shots: int = 1000
    repetitions: int = 10
    master_seed: int = 0
    state_path: str | None = None  # None -> compute the ground state
    lbcs_tol: float = 1e-10
    workers: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.shots < 1:
            raise ValueError("shots must be at least 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        # The report writes lbcs_tol into its JSON, which has no NaN or infinity.
        if not (math.isfinite(self.lbcs_tol) and self.lbcs_tol >= 0):
            raise ValueError(f"lbcs_tol must be a nonnegative number, got {self.lbcs_tol!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class BenchmarkReport:
    """Statistics of one method's run of ``config`` (``config.method`` is that method)."""

    config: ExperimentConfig
    state_source: str
    n_qubits: int
    n_terms: int
    exact_energy: float
    estimates: list[float]
    rms_error: float
    mean_abs_error: float
    # Diagonal cost of ``distribution``: None for aps, math.inf when some term is never covered.
    cost: float | None
    distribution: list[list[float]] | None
    uncovered_counts: list[int]
    # Wall-clock diagnostics; kept out of the JSON serialization so that
    # identical configs and seeds produce byte-identical reports.
    timings: dict = field(default_factory=dict, compare=False)

    @property
    def predicted_error(self) -> float | None:
        """``sqrt(cost / shots)``: None for aps, ``math.inf`` when some term is never covered."""
        return None if self.cost is None else math.sqrt(self.cost / self.config.shots)

    def to_json_dict(self) -> dict:
        config = self.config
        infinite = self.cost == math.inf  # JSON has no infinity, so a flag stands for it
        return {
            "method": config.method,
            "hamiltonian": str(config.hamiltonian_path),
            "state_source": self.state_source,
            "n_qubits": self.n_qubits,
            "n_terms": self.n_terms,
            "shots": config.shots,
            "repetitions": config.repetitions,
            "master_seed": config.master_seed,
            "seed_rule": "repetition r uses SeedSequence([master_seed, r])",
            "lbcs_tol": config.lbcs_tol,
            "error_definitions": {
                "rms_error": "sqrt(mean((estimate - exact_energy)^2)) over repetitions",
                "mean_abs_error": "mean(|estimate - exact_energy|) over repetitions",
                "predicted_error": "sqrt(diagonal_cost / shots); diagonal cost of the "
                "reweighted single-shot estimator, not of the running-mean loop",
            },
            "exact_energy": self.exact_energy,
            "estimates": self.estimates,
            "rms_error": self.rms_error,
            "mean_abs_error": self.mean_abs_error,
            "predicted_error": None if infinite else self.predicted_error,
            "predicted_error_infinite": infinite,
            "distribution": self.distribution,
            "uncovered_counts": self.uncovered_counts,
        }

    def to_csv_row(self) -> list[str]:
        predicted = self.predicted_error
        return [
            self.config.method,
            str(self.config.shots),
            str(self.config.repetitions),
            repr(self.exact_energy),
            repr(self.rms_error),
            repr(self.mean_abs_error),
            "" if predicted is None else repr(predicted),
            f"{self.timings.get('wall_time_s', 0.0):.6f}",
        ]


def _run_repetition(args) -> tuple[float, int]:
    hamiltonian, state, sampler, shots, master_seed, repetition = args
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, repetition]))
    result = estimate_energy(hamiltonian, state, shots, sampler, rng)
    return result.energy, len(result.uncovered_terms)


def _run(config: ExperimentConfig, methods) -> list[BenchmarkReport]:
    """One report per method of ``methods``, all with the shots, repetitions and seeds of ``config``.

    The Hamiltonian, the state and the exact energy are resolved once, and
    at most one process pool runs the repetitions of every method. The
    first report's timings include that set-up.
    """
    started = time.perf_counter()
    hamiltonian = load_hamiltonian(config.hamiltonian_path)
    if config.state_path is None:
        state_source = "ground_state"
        _, state = ground_state(hamiltonian)
    else:
        state_source = str(config.state_path)
        text = Path(config.state_path).read_text(encoding="utf-8")
        try:
            state = load_state(text, hamiltonian.n)
        except ValueError as exc:
            raise ValueError(f"{config.state_path}: {exc}") from None
    exact = hamiltonian_expectation(state, hamiltonian)

    reports = []
    workers = min(config.workers, config.repetitions)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for method in methods:
            state_seconds = time.perf_counter() - started
            build_started = time.perf_counter()
            distribution: np.ndarray | None = None
            cost: float | None = None
            if method == "cs":
                distribution = uniform_distribution(hamiltonian.n)
            elif method == "lbcs":
                distribution = locally_biased_distribution(hamiltonian, tol=config.lbcs_tol)
            if distribution is None:
                sampler = AdaptiveBasisSampler(hamiltonian)
            else:
                sampler = ProductBasisSampler(distribution)
                cost = diagonal_cost(hamiltonian, distribution)
            build_seconds = time.perf_counter() - build_started

            jobs = [
                (hamiltonian, state, sampler, config.shots, config.master_seed, r)
                for r in range(config.repetitions)
            ]
            outcomes = list((map if pool is None else pool.map)(_run_repetition, jobs))
            estimates = [energy for energy, _ in outcomes]
            deviations = np.asarray(estimates) - exact
            reports.append(
                BenchmarkReport(
                    config=replace(config, method=method),
                    state_source=state_source,
                    n_qubits=hamiltonian.n,
                    n_terms=hamiltonian.n_terms,
                    exact_energy=exact,
                    estimates=estimates,
                    rms_error=float(np.sqrt(np.mean(deviations**2))),
                    mean_abs_error=float(np.mean(np.abs(deviations))),
                    cost=cost,
                    distribution=None if distribution is None else distribution.tolist(),
                    uncovered_counts=[count for _, count in outcomes],
                    timings={
                        "wall_time_s": time.perf_counter() - started,
                        "state_preparation_s": state_seconds,
                        "distribution_build_s": build_seconds,
                    },
                )
            )
            started = time.perf_counter()
    return reports


def run_benchmark(config: ExperimentConfig) -> BenchmarkReport:
    """Run R repetitions of S shots of ``config.method`` and summarize the errors."""
    return _run(config, [config.method])[0]


def compare_methods(config: ExperimentConfig) -> list[BenchmarkReport]:
    """Run all three methods with identical shots, repetitions, and seeds.

    The Hamiltonian and the state are resolved once and shared; the
    first report's timings include that set-up.
    """
    return _run(config, METHODS)


def reports_to_json(reports: list[BenchmarkReport]) -> str:
    return json.dumps({"reports": [r.to_json_dict() for r in reports]}, indent=2) + "\n"


def reports_to_csv(reports: list[BenchmarkReport]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for report in reports:
        lines.append(",".join(report.to_csv_row()))
    return "\n".join(lines) + "\n"


def write_reports(reports: list[BenchmarkReport], path, output_format: str) -> None:
    text = reports_to_csv(reports) if output_format == "csv" else reports_to_json(reports)
    Path(path).write_text(text, encoding="utf-8")
