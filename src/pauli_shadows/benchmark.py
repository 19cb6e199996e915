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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .estimation import estimate_energy
from .paulis import Hamiltonian, load_hamiltonian
from .sampling import (
    AdaptiveBasisSampler,
    ProductBasisSampler,
    diagonal_cost,
    locally_biased_distribution,
    uniform_distribution,
)
from .states import StateVector, ground_state, hamiltonian_expectation, load_state

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
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class BenchmarkReport:
    """Statistics of one (method, Hamiltonian, state) benchmark."""

    method: str
    hamiltonian_path: str
    state_source: str
    n_qubits: int
    n_terms: int
    shots: int
    repetitions: int
    master_seed: int
    lbcs_tol: float
    exact_energy: float
    estimates: list[float]
    rms_error: float
    mean_abs_error: float
    predicted_error: float | None
    predicted_error_infinite: bool
    distribution: list[list[float]] | None
    uncovered_counts: list[int]
    # Wall-clock diagnostics; kept out of the JSON serialization so that
    # identical configs and seeds produce byte-identical reports.
    timings: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "hamiltonian": self.hamiltonian_path,
            "state_source": self.state_source,
            "n_qubits": self.n_qubits,
            "n_terms": self.n_terms,
            "shots": self.shots,
            "repetitions": self.repetitions,
            "master_seed": self.master_seed,
            "seed_rule": "repetition r uses SeedSequence([master_seed, r])",
            "lbcs_tol": self.lbcs_tol,
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
            "predicted_error": self.predicted_error,
            "predicted_error_infinite": self.predicted_error_infinite,
            "distribution": self.distribution,
            "uncovered_counts": self.uncovered_counts,
        }

    def to_csv_row(self) -> list[str]:
        if self.predicted_error_infinite:
            predicted = "inf"
        elif self.predicted_error is None:
            predicted = ""
        else:
            predicted = repr(self.predicted_error)
        return [
            self.method,
            str(self.shots),
            str(self.repetitions),
            repr(self.exact_energy),
            repr(self.rms_error),
            repr(self.mean_abs_error),
            predicted,
            f"{self.timings.get('wall_time_s', 0.0):.6f}",
        ]


def _build_sampler(method: str, hamiltonian: Hamiltonian, distribution: np.ndarray | None):
    if method == "aps":
        return AdaptiveBasisSampler(hamiltonian)
    return ProductBasisSampler(distribution)


def _run_repetition(args) -> tuple[float, int]:
    hamiltonian, state, method, distribution, shots, master_seed, repetition = args
    sampler = _build_sampler(method, hamiltonian, distribution)
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, repetition]))
    result = estimate_energy(hamiltonian, state, shots, sampler, rng)
    return result.energy, len(result.uncovered_terms)


def _load_inputs(config: ExperimentConfig) -> tuple[Hamiltonian, StateVector, str]:
    """The Hamiltonian, the state and the state's source label of ``config``."""
    hamiltonian = load_hamiltonian(config.hamiltonian_path)
    if config.state_path is None:
        _, state = ground_state(hamiltonian)
        return hamiltonian, state, "ground_state"
    text = Path(config.state_path).read_text(encoding="utf-8")
    try:
        state = load_state(text, hamiltonian.n)
    except ValueError as exc:
        raise ValueError(f"{config.state_path}: {exc}") from None
    return hamiltonian, state, str(config.state_path)


def run_benchmark(config: ExperimentConfig) -> BenchmarkReport:
    """Run R repetitions of S shots and summarize the errors."""
    started = time.perf_counter()
    return _run_method(config, _load_inputs(config), started)


def _run_method(
    config: ExperimentConfig, inputs: tuple[Hamiltonian, StateVector, str], started: float
) -> BenchmarkReport:
    """The benchmark of ``config.method`` on already loaded inputs; timed from ``started``."""
    hamiltonian, state, state_source = inputs
    state_seconds = time.perf_counter() - started

    build_started = time.perf_counter()
    distribution: np.ndarray | None = None
    if config.method == "cs":
        distribution = uniform_distribution(hamiltonian.n)
    elif config.method == "lbcs":
        distribution = locally_biased_distribution(hamiltonian, tol=config.lbcs_tol)
    build_seconds = time.perf_counter() - build_started

    jobs = [
        (hamiltonian, state, config.method, distribution, config.shots, config.master_seed, r)
        for r in range(config.repetitions)
    ]
    if config.workers > 1 and config.repetitions > 1:
        with ProcessPoolExecutor(max_workers=min(config.workers, config.repetitions)) as pool:
            outcomes = list(pool.map(_run_repetition, jobs))
    else:
        outcomes = [_run_repetition(job) for job in jobs]

    estimates = [energy for energy, _ in outcomes]
    uncovered_counts = [count for _, count in outcomes]

    exact = hamiltonian_expectation(state, hamiltonian)
    deviations = np.asarray(estimates) - exact
    rms_error = float(np.sqrt(np.mean(deviations**2)))
    mean_abs_error = float(np.mean(np.abs(deviations)))

    predicted_error: float | None = None
    predicted_infinite = False
    if distribution is not None:
        cost = diagonal_cost(hamiltonian, distribution)
        if math.isinf(cost):
            predicted_infinite = True
        else:
            predicted_error = math.sqrt(cost / config.shots)

    return BenchmarkReport(
        method=config.method,
        hamiltonian_path=str(config.hamiltonian_path),
        state_source=state_source,
        n_qubits=hamiltonian.n,
        n_terms=hamiltonian.n_terms,
        shots=config.shots,
        repetitions=config.repetitions,
        master_seed=config.master_seed,
        lbcs_tol=config.lbcs_tol,
        exact_energy=exact,
        estimates=estimates,
        rms_error=rms_error,
        mean_abs_error=mean_abs_error,
        predicted_error=predicted_error,
        predicted_error_infinite=predicted_infinite,
        distribution=distribution.tolist() if distribution is not None else None,
        uncovered_counts=uncovered_counts,
        timings={
            "wall_time_s": time.perf_counter() - started,
            "state_preparation_s": state_seconds,
            "distribution_build_s": build_seconds,
        },
    )


def compare_methods(config: ExperimentConfig) -> list[BenchmarkReport]:
    """Run all three methods with identical shots, repetitions, and seeds.

    The Hamiltonian and the state are resolved once and shared; the
    first report's timings include that set-up.
    """
    started = time.perf_counter()
    inputs = _load_inputs(config)
    reports = []
    for method in METHODS:
        reports.append(_run_method(replace(config, method=method), inputs, started))
        started = time.perf_counter()
    return reports


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
