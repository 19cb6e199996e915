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

import functools
import json
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .estimation import estimate_energies
from .paulis import load_hamiltonian, read_file
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
    """Statistics of one method's run of ``config`` (``config.method`` is that method)."""

    config: ExperimentConfig
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
    # Wall-clock seconds (``wall_time_s``), kept out of the JSON so that a config and seed give the same bytes.
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
            "state_source": "ground_state" if config.state_path is None else str(config.state_path),
            "n_qubits": self.n_qubits,
            "n_terms": self.n_terms,
            "shots": config.shots,
            "repetitions": config.repetitions,
            "master_seed": config.master_seed,
            "seed_rule": "repetition r uses SeedSequence([master_seed, r])",
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


def _run(config: ExperimentConfig, methods) -> list[BenchmarkReport]:
    """One report per method of ``methods``, all with the shots, repetitions and seeds of ``config``.

    The Hamiltonian, the state and the exact energy are resolved once. A job
    is the generators of a contiguous range of repetitions, one job per worker,
    run in one ``estimate_energies`` pass; at most one process pool runs the
    jobs of every method, so a worker unpickles the state and sampler once per
    method. The first report's timings include that set-up.
    """
    started = time.perf_counter()
    hamiltonian = load_hamiltonian(config.hamiltonian_path)
    if config.state_path is None:
        exact, state = ground_state(hamiltonian)  # <psi|H|psi> of the returned state
    else:
        state = read_file(config.state_path, load_state, hamiltonian.n)
        exact = hamiltonian_expectation(state, hamiltonian)

    reports = []
    workers = min(config.workers, config.repetitions, os.cpu_count() or 1)  # a fork pool starts them all at once
    if workers > 1:  # the pool's import alone costs a one-worker run memory and start-up time
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for method in methods:
            distribution: np.ndarray | None = None
            cost: float | None = None
            if method == "aps":
                sampler = AdaptiveBasisSampler(hamiltonian)
            else:
                distribution = (uniform_distribution(hamiltonian.n) if method == "cs"
                                else locally_biased_distribution(hamiltonian))
                sampler = ProductBasisSampler(distribution)
                cost = diagonal_cost(hamiltonian, distribution)

            job = functools.partial(estimate_energies, hamiltonian, state, config.shots, sampler)
            rngs = [np.random.default_rng(np.random.SeedSequence([config.master_seed, r]))
                    for r in range(config.repetitions)]
            jobs = [rngs[len(rngs) * k // workers : len(rngs) * (k + 1) // workers] for k in range(workers)]
            results = [result for chunk in (map if pool is None else pool.map)(job, jobs) for result in chunk]
            estimates = [result.energy for result in results]
            deviations = np.asarray(estimates) - exact
            reports.append(
                BenchmarkReport(
                    config=replace(config, method=method),
                    n_qubits=hamiltonian.n,
                    n_terms=hamiltonian.n_terms,
                    exact_energy=exact,
                    estimates=estimates,
                    rms_error=float(np.sqrt(np.mean(deviations**2))),
                    mean_abs_error=float(np.mean(np.abs(deviations))),
                    cost=cost,
                    distribution=None if distribution is None else distribution.tolist(),
                    uncovered_counts=[len(result.uncovered_terms) for result in results],
                    timings={"wall_time_s": time.perf_counter() - started},
                )
            )
            started = time.perf_counter()
    return reports


def run_benchmark(config: ExperimentConfig) -> BenchmarkReport:
    """Run R repetitions of S shots of ``config.method`` and summarize the errors."""
    return _run(config, [config.method])[0]


def compare_methods(config: ExperimentConfig) -> list[BenchmarkReport]:
    """Run all three methods with identical shots, repetitions, and seeds, on one Hamiltonian and state."""
    return _run(config, METHODS)


def reports_to_json(reports: list[BenchmarkReport]) -> str:
    return json.dumps({"reports": [r.to_json_dict() for r in reports]}, indent=2) + "\n"


def reports_to_csv(reports: list[BenchmarkReport]) -> str:
    return "".join(",".join(row) + "\n" for row in [CSV_COLUMNS, *(report.to_csv_row() for report in reports)])


def write_reports(reports: list[BenchmarkReport], path, output_format: str) -> None:
    text = reports_to_csv(reports) if output_format == "csv" else reports_to_json(reports)
    Path(path).write_text(text, encoding="utf-8")
