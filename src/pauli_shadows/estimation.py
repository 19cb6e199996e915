"""The batched estimation pass and its exact small-instance oracles.

Every strategy runs the same pass: draw a basis per shot, measure each
shot once, and fold the ±1 product of every covered term into that
term's mean. The energy estimate is the coefficient-weighted sum of the
means plus the Hamiltonian's constant offset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Protocol

import numpy as np

from .paulis import CODE_I, Hamiltonian, MeasurementBasis, PauliOp
from .states import (
    CapacityError,
    StateVector,
    hamiltonian_expectation,
    measurement_distribution,
    measurement_distributions,
)
from .sampling import ProductDistribution

VARIANCE_ORACLE_MAX_QUBITS = 4


class BasisSampler(Protocol):
    """Maps blocks of uniform draws to measurement bases, one row per shot."""

    uniforms: int  # U[0, 1) draws per shot

    def bases(self, u: np.ndarray) -> np.ndarray: ...


class Accumulator:
    """Sum of ±1 products and hit count per key, for a fixed set of Pauli strings.

    Keys are the strings themselves; lookups hash the letter sequence, so
    they cost O(n).
    """

    __slots__ = ("paulis", "_index", "_codes", "_active", "_masks", "sums", "counts")

    def __init__(self, paulis: Iterable[PauliOp]):
        self.paulis = tuple(paulis)
        self._index = {pauli: i for i, pauli in enumerate(self.paulis)}
        if len(self._index) != len(self.paulis):
            raise ValueError("duplicate Pauli keys")
        if self.paulis:
            n = self.paulis[0].n
            if any(p.n != n for p in self.paulis):
                raise ValueError("all keys must share one qubit count")
            self._codes = np.stack([p.codes for p in self.paulis])
        else:
            self._codes = np.zeros((0, 0), dtype=np.uint8)
        self._active = self._codes != CODE_I
        # Bits of each key's non-identity qubits in an outcome index
        # (qubit 0 is the most significant bit).
        shifts = np.arange(self._codes.shape[1] - 1, -1, -1)
        self._masks = (self._active.astype(np.int64) << shifts).sum(axis=1)
        self.sums = np.zeros(len(self.paulis), dtype=np.int64)
        self.counts = np.zeros(len(self.paulis), dtype=np.int64)

    @classmethod
    def for_hamiltonian(cls, hamiltonian: Hamiltonian) -> "Accumulator":
        return cls(hamiltonian.paulis)

    @property
    def means(self) -> np.ndarray:
        """Mean ±1 product of each key; 0 for keys no shot has covered."""
        return np.divide(self.sums, self.counts, out=np.zeros(len(self.paulis)), where=self.counts > 0)

    def update(self, basis: MeasurementBasis, outcome_indices) -> "Accumulator":
        """Fold shots measured in ``basis`` into every covered key; returns self.

        ``outcome_indices`` holds one outcome per shot, as the index of a
        computational basis state: bit 1 at a qubit is the readout -1. A
        key's product is the parity of its non-identity bits, so an
        all-identity key reads +1.
        """
        if len(self.paulis) == 0:
            return self
        n = self._codes.shape[1]
        outcomes = np.asarray(outcome_indices, dtype=np.int64)
        if basis.n != n:
            raise ValueError("basis length does not match accumulator keys")
        if outcomes.ndim != 1 or np.any((outcomes < 0) | (outcomes >> n != 0)):
            raise ValueError(f"outcome indices must be a vector of integers in [0, 2**{n})")
        covered = ~(self._active & (self._codes != basis.codes)).any(axis=1)
        parity = np.bitwise_count(outcomes[:, None] & self._masks[covered]) & 1
        self.sums[covered] += outcomes.size - 2 * parity.sum(axis=0, dtype=np.int64)
        self.counts[covered] += outcomes.size
        return self

    def __getitem__(self, pauli: PauliOp) -> tuple[float, int]:
        i = self._index[pauli]
        return float(self.means[i]), int(self.counts[i])

    def __contains__(self, pauli: PauliOp) -> bool:
        return pauli in self._index

    def __len__(self) -> int:
        return len(self.paulis)

    def items(self):
        for pauli, mean, count in zip(self.paulis, self.means.tolist(), self.counts.tolist()):
            yield pauli, (mean, count)

    def uncovered(self) -> list[PauliOp]:
        """Keys that no shot has covered yet."""
        return [p for p, c in zip(self.paulis, self.counts) if c == 0]


@dataclass
class EstimationResult:
    """Outcome of one estimation run.

    ``energy`` equals the constant offset plus the coefficient-weighted
    per-term means; terms never covered contribute zero and are listed in
    ``uncovered_terms`` so callers can flag potentially biased runs.
    """

    energy: float
    per_term: Accumulator
    shots_used: int
    uncovered_terms: list[PauliOp] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "energy": self.energy,
            "shots": self.shots_used,
            "terms": [
                {"pauli": str(pauli), "mu": mu, "s": count}
                for pauli, (mu, count) in self.per_term.items()
            ],
            "uncovered": [str(p) for p in self.uncovered_terms],
        }


def estimate_energy(
    hamiltonian: Hamiltonian,
    state: StateVector,
    shots: int,
    sampler: BasisSampler,
    rng: np.random.Generator,
) -> EstimationResult:
    """Estimate the energy of ``state`` from ``shots`` single measurements.

    Draws one (shots, ``sampler.uniforms`` + 1) block of uniforms: the
    sampler turns the leading columns of each row into that shot's
    basis, and the last column draws its outcome. Shots are grouped by
    distinct basis; each basis gets one outcome table, one inverse-CDF
    draw of all its outcomes and one accumulator update, and its table
    is dropped before the next one is built. The distinct bases come
    lexicographically sorted, so ``measurement_distributions`` reuses the
    rotated prefix each shares with the one before. Deterministic given
    the inputs and the rng state; replaying a seed reproduces the result
    bit for bit.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if state.n != hamiltonian.n:
        raise ValueError("state and Hamiltonian qubit counts differ")

    acc = Accumulator.for_hamiltonian(hamiltonian)
    u = rng.random((shots, sampler.uniforms + 1))
    distinct, inverse = np.unique(sampler.bases(u[:, :-1]), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    draws = u[np.argsort(inverse, kind="stable"), -1]
    splits = np.cumsum(np.bincount(inverse))[:-1]
    tables = measurement_distributions(state, distinct, cumulative=True)
    for codes, basis_draws, cumulative in zip(distinct, np.split(draws, splits), tables):
        outcomes = np.searchsorted(cumulative, basis_draws, side="right")
        acc.update(MeasurementBasis(codes), outcomes)

    energy = hamiltonian.offset + float(np.dot(hamiltonian.coeffs, acc.means))
    return EstimationResult(
        energy=energy,
        per_term=acc,
        shots_used=shots,
        uncovered_terms=acc.uncovered(),
    )


def exact_single_shot_variance(
    hamiltonian: Hamiltonian, state: StateVector, pd: ProductDistribution
) -> float:
    """Exact variance of the inverse-probability one-shot energy estimator.

    The estimator reweights each covered term's ±1 product by its
    coverage probability, which makes a single shot unbiased; this
    routine enumerates every basis (weighted by ``pd``) and every outcome
    (weighted by the exact measurement distribution) to compute its
    variance. Also cross-checks that the enumerated mean matches the
    exact energy to 1e-9. Returns ``math.inf`` when some term can never
    be covered.

    Note: the per-term means of `estimate_energy` condition on coverage
    instead of reweighting. Both are unbiased, but their
    variances differ; this oracle describes the reweighted estimator.
    """
    n = hamiltonian.n
    if n > VARIANCE_ORACLE_MAX_QUBITS:
        raise CapacityError(
            f"variance oracle enumerates 3^n * 2^n states; limit is n <= {VARIANCE_ORACLE_MAX_QUBITS}"
        )
    if pd.n != n or state.n != n:
        raise ValueError("Hamiltonian, state, and distribution qubit counts differ")

    coverages = np.array([pd.coverage_probability(p) for p in hamiltonian.paulis])
    if np.any(coverages == 0.0):
        return math.inf

    coeffs = hamiltonian.coeffs
    codes = hamiltonian.codes
    outcome_indices = np.arange(2**n)
    # Sign of each term's product for every outcome index: parity of the
    # minus-one readouts at the term's non-identity positions.
    term_masks = np.array(
        [sum(1 << (n - 1 - q) for q in range(n) if p.codes[q] != CODE_I) for p in hamiltonian.paulis],
        dtype=np.int64,
    )
    sign_table = 1.0 - 2.0 * (np.bitwise_count(outcome_indices[:, None] & term_masks[None, :]) & 1)

    mean = 0.0
    second_moment = 0.0
    for letters in itertools.product((1, 2, 3), repeat=n):
        basis = MeasurementBasis(np.array(letters, dtype=np.uint8))
        basis_prob = 1.0
        for qubit, code in enumerate(letters):
            basis_prob *= pd[qubit].probs[code - 1]
        if basis_prob == 0.0:
            continue
        covered = ~((codes != CODE_I) & (codes != basis.codes)).any(axis=1)
        if covered.any():
            weights = coeffs[covered] / coverages[covered]
            estimates = hamiltonian.offset + sign_table[:, covered] @ weights
        else:
            estimates = np.full(2**n, hamiltonian.offset)
        outcome_probs = measurement_distribution(state, basis)
        mean += basis_prob * float(outcome_probs @ estimates)
        second_moment += basis_prob * float(outcome_probs @ (estimates * estimates))

    exact = hamiltonian_expectation(state, hamiltonian)
    if abs(mean - exact) > 1e-9:
        raise ArithmeticError(
            f"enumerated estimator mean {mean} differs from exact energy {exact}"
        )
    return max(0.0, second_moment - mean * mean)
