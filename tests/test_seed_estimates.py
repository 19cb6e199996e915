"""The seed-2 estimates of the shipped fixtures, pinned.

``seed2_estimates.json`` holds, for fixtures a, b and c at 1000 shots and
50 repetitions, repetition r drawing from ``SeedSequence([2, r])`` (the
run of ``compare --seed 2 --shots 1000 --reps 50``), each fixture's exact
energy and, per method, the per-term integer sums and counts summed over
the repetitions, the ``uncovered_counts`` and the ``estimates``. The
integers move only when the random stream, the basis draw, the outcome
draw or the fold changes, so they must match exactly. The floats may move
in their last bits with the BLAS summation order, so they match to 1e-12
relative.

A change that alters the stream on purpose rewrites the file with

    PYTHONPATH=src python tests/test_seed_estimates.py
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from pauli_shadows import (
    AdaptiveBasisSampler,
    ExperimentConfig,
    ProductBasisSampler,
    compare_methods,
    ground_state,
    load_hamiltonian,
    locally_biased_distribution,
    uniform_distribution,
)
from pauli_shadows.estimation import estimate_energies

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURES = ("fixture_a_6q.ham", "fixture_b_7q.ham", "fixture_c_8q.ham")
REFERENCE = Path(__file__).with_name("seed2_estimates.json")
SEED, SHOTS, REPS = 2, 1000, 50


def seed2_values(name: str) -> dict:
    """The reference entry of one fixture, computed through ``estimate_energies``."""
    hamiltonian = load_hamiltonian(FIXTURE_DIR / name)
    exact, state = ground_state(hamiltonian)
    samplers = {
        "cs": ProductBasisSampler(uniform_distribution(hamiltonian.n)),
        "lbcs": ProductBasisSampler(locally_biased_distribution(hamiltonian)),
        "aps": AdaptiveBasisSampler(hamiltonian),
    }
    values = {"exact_energy": exact}
    for method, sampler in samplers.items():
        rngs = [np.random.default_rng(np.random.SeedSequence([SEED, r])) for r in range(REPS)]
        results = estimate_energies(hamiltonian, state, SHOTS, sampler, rngs)
        values[method] = {
            "sums": np.sum([result.sums for result in results], axis=0).tolist(),
            "counts": np.sum([result.counts for result in results], axis=0).tolist(),
            "uncovered_counts": [len(result.uncovered_terms) for result in results],
            "estimates": [result.energy for result in results],
        }
    return values


@pytest.mark.parametrize("name", FIXTURES)
def test_seed2_estimates_match_reference(name):
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
    actual = seed2_values(name)
    assert actual["exact_energy"] == pytest.approx(expected["exact_energy"], rel=1e-12, abs=0)
    for method in ("cs", "lbcs", "aps"):
        for key in ("sums", "counts", "uncovered_counts"):
            assert actual[method][key] == expected[method][key], f"{method} {key}"
        np.testing.assert_allclose(actual[method]["estimates"], expected[method]["estimates"], rtol=1e-12, atol=0)

    # compare_methods reaches the same values through its own samplers and generators.
    config = ExperimentConfig(str(FIXTURE_DIR / name), shots=SHOTS, repetitions=REPS, master_seed=SEED)
    for report in compare_methods(config):
        assert report.exact_energy == actual["exact_energy"]
        assert report.estimates == actual[report.config.method]["estimates"]
        assert report.uncovered_counts == actual[report.config.method]["uncovered_counts"]


if __name__ == "__main__":
    text = json.dumps({name: seed2_values(name) for name in FIXTURES}, indent=1)
    text = re.sub(r"\[[^\[\]]*\]", lambda match: " ".join(match.group().split()), text)  # one line per list
    REFERENCE.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
