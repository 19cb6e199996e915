"""Energy estimation for Pauli-sum Hamiltonians from randomized
product-basis measurements, with uniform (CS), locally-biased (LBCS),
and per-shot adaptive (APS) basis selection, plus a benchmark harness.

The package root exports what the README example, the acceptance suite
and the tests use; everything else is reached through its submodule.
"""

from .paulis import (
    EmptyHamiltonianError,
    Hamiltonian,
    HamiltonianFormatError,
    load_hamiltonian,
    parse_hamiltonian,
)
from .states import (
    CapacityError,
    GroundStateConvergenceError,
    StateVector,
    expectation,
    ground_state,
    hamiltonian_expectation,
    measurement_distribution,
    sample_measurement,
)
from .sampling import (
    AdaptiveBasisSampler,
    ProductBasisSampler,
    closed_form_distribution,
    diagonal_cost,
    locally_biased_distribution,
    uniform_distribution,
)
from .estimation import estimate_energy
from .benchmark import ExperimentConfig, compare_methods, run_benchmark

__version__ = "0.1.0"

__all__ = [
    "AdaptiveBasisSampler",
    "CapacityError",
    "EmptyHamiltonianError",
    "ExperimentConfig",
    "GroundStateConvergenceError",
    "Hamiltonian",
    "HamiltonianFormatError",
    "ProductBasisSampler",
    "StateVector",
    "closed_form_distribution",
    "compare_methods",
    "diagonal_cost",
    "estimate_energy",
    "expectation",
    "ground_state",
    "hamiltonian_expectation",
    "load_hamiltonian",
    "locally_biased_distribution",
    "measurement_distribution",
    "parse_hamiltonian",
    "run_benchmark",
    "sample_measurement",
    "uniform_distribution",
]
