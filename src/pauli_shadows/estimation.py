"""The batched estimation pass.

Every strategy runs the same pass: draw a basis per shot, measure each
shot once, and fold the ±1 product of every covered term into that
term's integer sum and count. A term is covered when each of its
non-identity letters matches the basis. The energy estimate is the
coefficient-weighted sum of the per-term means plus the Hamiltonian's
constant offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .paulis import CODE_I, Hamiltonian
from .states import StateVector, measurement_distributions

# Cap on (shot, term) cells that one slice of the fold holds.
_FOLD_CELLS = 1 << 14


class BasisSampler(Protocol):
    """Maps blocks of uniform draws to measurement bases, one row per shot."""

    uniforms: int  # U[0, 1) draws per shot

    def bases(self, u: np.ndarray) -> np.ndarray: ...


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
    shots_used: int
    uncovered_terms: list[str]

    @property
    def means(self) -> np.ndarray:
        """Mean ±1 product of each term; 0 for terms no shot has covered."""
        return np.divide(self.sums, self.counts, out=np.zeros(len(self.sums)), where=self.counts > 0)


def _fold(codes: np.ndarray, letters: np.ndarray, outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-term integer sums of ±1 products and coverage counts over a block of shots.

    ``codes`` holds one row of letter codes per term, ``letters`` one
    basis row per shot and ``outcomes`` each shot's outcome as the index
    of a computational basis state, with qubit 0 in the most significant
    bit and bit 1 meaning the readout -1. A covered term's product is the
    parity of its non-identity bits, so an all-identity term reads +1.
    Shots go through in slices of at most ``_FOLD_CELLS`` (shot, term)
    cells.
    """
    terms, n = codes.shape
    columns = np.ascontiguousarray(codes.T)  # (n, terms)
    masks = ((columns != CODE_I).astype(np.int64) << np.arange(n - 1, -1, -1)[:, None]).sum(axis=0)
    sums = np.zeros(terms, dtype=np.int64)
    counts = np.zeros(terms, dtype=np.int64)
    step = max(1, _FOLD_CELLS // max(1, terms))
    for start in range(0, len(outcomes), step):
        shot_letters = letters[start : start + step]
        covered = np.ones((len(shot_letters), terms), dtype=bool)
        for qubit, column in enumerate(columns):
            covered &= (column == CODE_I) | (column == shot_letters[:, qubit, None])
        odd = (np.bitwise_count(outcomes[start : start + step, None] & masks) & 1).view(bool)
        hits = np.count_nonzero(covered, axis=0)
        counts += hits
        sums += hits - 2 * np.count_nonzero(covered & odd, axis=0)
    return sums, counts


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
    basis, and the last column draws its outcome. One stable sort puts
    the shots in lexicographic order of their bases, so each distinct
    basis is a run of shots; it gets one outcome table and one
    inverse-CDF draw of all its outcomes, and its table is dropped
    before the next one is built. ``measurement_distributions`` reuses
    the rotated prefix each distinct basis shares with the one before.
    One fold then turns all the shots into per-term sums and counts.
    Deterministic given the inputs and the rng state; replaying a seed
    reproduces the result bit for bit.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if state.n != hamiltonian.n:
        raise ValueError("state and Hamiltonian qubit counts differ")

    u = rng.random((shots, sampler.uniforms + 1))
    bases = sampler.bases(u[:, :-1])
    if bases.shape != (shots, hamiltonian.n):
        raise ValueError(
            f"sampler must give one row of {hamiltonian.n} letter codes per shot, "
            f"got shape {bases.shape}"
        )
    order = np.lexsort(bases.T[::-1])  # rows in lexicographic order, ties in draw order
    bases, draws = bases[order], u[order, -1]
    bounds = np.append(np.flatnonzero(np.r_[True, (bases[1:] != bases[:-1]).any(axis=1)]), shots)
    tables = measurement_distributions(state, bases[bounds[:-1]], cumulative=True)
    outcomes = np.empty(shots, dtype=np.int64)
    for start, stop, cumulative in zip(bounds[:-1], bounds[1:], tables):
        outcomes[start:stop] = np.searchsorted(cumulative, draws[start:stop], side="right")
    sums, counts = _fold(hamiltonian.codes, bases, outcomes)

    result = EstimationResult(
        energy=hamiltonian.offset,
        sums=sums,
        counts=counts,
        shots_used=shots,
        uncovered_terms=[pauli for pauli, count in zip(hamiltonian.paulis, counts) if count == 0],
    )
    result.energy += float(np.dot(hamiltonian.coeffs, result.means))
    return result
