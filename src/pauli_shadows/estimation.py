"""The batched estimation pass.

Every strategy runs the same pass: draw a basis per shot, measure each
shot once, and fold the ±1 product of every covered term into that
term's integer sum and count. A term is covered when each of its
non-identity letters matches the basis. The energy estimate is the
coefficient-weighted sum of the per-term means plus the Hamiltonian's
constant offset. Each strategy is a ``sampling.BasisSampler`` subclass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paulis import CODE_I, Hamiltonian, keep_table
from .sampling import BasisSampler
from .states import StateVector, draw_outcomes

# Cap on cells in one block of shots: its (shot, term) APS stage masks and
# fold product, and its (shot, uniform) draws, each hold at most that many.
_BLOCK_CELLS = 1 << 18


@dataclass
class EstimationResult:
    """Outcome of one estimation run.

    ``sums[t]`` is the sum of term t's ±1 products over the ``counts[t]``
    shots that covered it. ``energy`` equals the constant offset plus the
    coefficient-weighted ``means``; terms never covered contribute zero
    and are listed in ``uncovered_terms`` so callers can flag potentially
    biased runs.
    """

    energy: float
    sums: np.ndarray
    counts: np.ndarray
    uncovered_terms: list[str]

    @property
    def means(self) -> np.ndarray:
        """Mean ±1 product of each term; 0 for terms no shot has covered."""
        return np.divide(self.sums, self.counts, out=np.zeros(len(self.sums)), where=self.counts > 0)


def _fold(codes: np.ndarray, letters: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-term integer sums of ±1 products and coverage counts over a block of shots.

    ``codes`` holds one row of letter codes per term, ``letters`` one
    basis row per shot and ``bits`` each shot's outcome bits as
    ``draw_outcomes`` returns them, bit 1 meaning the readout -1. A
    signed int8 table built from ``keep_table`` gives each (qubit,
    letter, bit) one factor per term: 0 when the letter does not cover
    the term there, -1 when the term acts there and the bit is 1, else
    +1. A shot's product over qubits is then 0 for an uncovered term and
    the term's ±1 product otherwise, so an all-identity term reads +1.
    """
    terms, n = codes.shape
    keep = keep_table(codes)  # (n, 3, terms)
    sign = np.where(codes.T != CODE_I, -1, 1).astype(np.int8)[:, None, :]  # readout -1 of an acting term
    table = np.stack([keep, keep * sign], axis=2).reshape(n, 6, terms)  # int8
    rows = 2 * (letters.astype(np.intp) - 1) + bits  # (shots, n): 2 * (letter - 1) + bit
    product = table[0, rows[:, 0]]
    for qubit in range(1, n):
        product *= table[qubit, rows[:, qubit]]
    return product.sum(axis=0, dtype=np.int64), np.count_nonzero(product, axis=0)


def estimate_energy(
    hamiltonian: Hamiltonian,
    state: StateVector,
    shots: int,
    sampler: BasisSampler,
    rng: np.random.Generator,
) -> EstimationResult:
    """Estimate the energy of ``state`` from ``shots`` single measurements.

    Works through the shots in blocks of
    ``max(1, _BLOCK_CELLS // max(terms, sampler.uniforms + 1))``. Per
    block it draws a (block, ``sampler.uniforms`` + 1) array of uniforms:
    the sampler turns the leading columns of each row into that shot's
    basis, ``draw_outcomes`` turns the last column into its outcome
    bits, and the fold adds the block's per-term sums and counts to the
    totals. ``rng.random`` fills rows in order and the fold is additive,
    so the block size does not change the result.
    Deterministic given the inputs and the rng state; replaying a seed
    reproduces the result bit for bit.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if state.n != hamiltonian.n:
        raise ValueError("state and Hamiltonian qubit counts differ")

    sums, counts = totals = np.zeros((2, hamiltonian.n_terms), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // max(hamiltonian.n_terms, sampler.uniforms + 1))
    for start in range(0, shots, step):
        u = rng.random((min(step, shots - start), sampler.uniforms + 1))
        bases = sampler.bases(u[:, :-1])
        totals += _fold(hamiltonian.codes, bases, draw_outcomes(state, bases, u[:, -1]))  # (sums, counts)

    result = EstimationResult(
        energy=hamiltonian.offset,
        sums=sums,
        counts=counts,
        uncovered_terms=[pauli for pauli, count in zip(hamiltonian.paulis, counts) if count == 0],
    )
    result.energy += float(np.dot(hamiltonian.coeffs, result.means))
    return result
