"""The package root's public surface.

The root exports exactly what the README example, the acceptance suite
and the other tests import from it; everything else is reached through
its submodule. A name added to or dropped from ``__all__`` must change
this list too.
"""

import pauli_shadows

PUBLIC = [
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


def test_all_is_the_public_list():
    assert len(PUBLIC) == 23
    assert sorted(pauli_shadows.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(pauli_shadows, name) is not None, name
