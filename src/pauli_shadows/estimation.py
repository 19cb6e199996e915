"""The batched estimation pass.

Every strategy runs the same pass over the shots of one or more
repetitions: draw a basis per shot, measure each shot once, and fold the
±1 product of every covered term into that term's integer sum and count
in the shot's repetition. A term is covered when each of its non-identity
letters matches the basis. A repetition's energy estimate is the
coefficient-weighted sum of its per-term means plus the Hamiltonian's
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


def _signed_table(codes: np.ndarray) -> np.ndarray:
    """The (n, 6, terms) int8 table of ``_fold`` for one row of letter codes per term."""
    keep = keep_table(codes)  # (n, 3, terms)
    sign = np.where(codes.T != CODE_I, -1, 1).astype(np.int8)[:, None, :]  # readout -1 of an acting term
    return np.stack([keep, keep * sign], axis=2).reshape(codes.shape[1], 6, len(codes))


def _fold(table: np.ndarray, letters: np.ndarray, bits: np.ndarray, totals: np.ndarray, cuts: list[int]) -> None:
    """Add the per-term (sums, counts) of the shots in rows ``cuts[i]:cuts[i + 1]`` to ``totals[i]``.

    ``letters`` holds one basis row per shot and ``bits`` its outcome bits
    as ``draw_outcomes`` returns them, bit 1 meaning the readout -1. The
    ``_signed_table`` factor of a (qubit, letter, bit) is 0 where the
    letter does not cover a term, -1 where the term acts and the bit is 1,
    and +1 otherwise, so a shot's int8 product of factors over the qubits
    is 0 for an uncovered term and its ±1 product otherwise (+1 for I...I).
    """
    rows = 2 * (letters.astype(np.intp) - 1) + bits  # (shots, n): 2 * (letter - 1) + bit
    product = table[0, rows[:, 0]]
    for qubit in range(1, len(table)):
        product *= table[qubit, rows[:, qubit]]
    for total, first, end in zip(totals, cuts, cuts[1:]):
        total += product[first:end].sum(axis=0, dtype=np.int64), np.count_nonzero(product[first:end], axis=0)


def estimate_energies(
    hamiltonian: Hamiltonian, state: StateVector, shots: int, sampler: BasisSampler, rngs: list[np.random.Generator]
) -> list[EstimationResult]:
    """``estimate_energy`` with each generator of ``rngs``, in one pass over all their shots.

    Repetition r fills its rows of ``sampler.uniforms`` + 1 uniforms from ``rngs[r]`` in order.
    Blocks of ``max(1, _BLOCK_CELLS // max(terms, sampler.uniforms + 1))`` stacked rows, which
    may cross a repetition boundary, go through ``sampler.bases``, ``draw_outcomes`` (the last
    column) and the fold, whose products of each repetition's rows add to its own sums and
    counts. Rows are independent and the sums integers, so neither the block size nor the
    other repetitions change a result.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if state.n != hamiltonian.n:
        raise ValueError("state and Hamiltonian qubit counts differ")

    table = _signed_table(hamiltonian.codes)
    totals = np.zeros((len(rngs), 2, hamiltonian.n_terms), dtype=np.int64)  # (sums, counts) per repetition
    step = max(1, _BLOCK_CELLS // max(hamiltonian.n_terms, sampler.uniforms + 1))
    for start in range(0, len(rngs) * shots, step):
        u = np.empty((min(step, len(rngs) * shots - start), sampler.uniforms + 1))
        reps = range(start // shots, (start + len(u) - 1) // shots + 1)
        cuts = [max(r * shots - start, 0) for r in reps] + [len(u)]  # reps[i] has rows cuts[i]:cuts[i + 1]
        for r, first, end in zip(reps, cuts, cuts[1:]):
            rngs[r].random(out=u[first:end])
        bases = sampler.bases(u[:, :-1])
        _fold(table, bases, draw_outcomes(state, bases, u[:, -1]), totals[reps.start : reps.stop], cuts)

    results = []
    for sums, counts in totals:
        uncovered = [pauli for pauli, count in zip(hamiltonian.paulis, counts) if count == 0]
        results.append(EstimationResult(hamiltonian.offset, sums, counts, uncovered))
        results[-1].energy += float(np.dot(hamiltonian.coeffs, results[-1].means))
    return results


def estimate_energy(
    hamiltonian: Hamiltonian,
    state: StateVector,
    shots: int,
    sampler: BasisSampler,
    rng: np.random.Generator,
) -> EstimationResult:
    """Estimate the energy of ``state`` from ``shots`` single measurements drawn with ``rng``.

    The one-repetition case of ``estimate_energies``; replaying a seed reproduces the result bit for bit.
    """
    return estimate_energies(hamiltonian, state, shots, sampler, [rng])[0]
