"""Measurement-basis selection strategies.

Three ways to pick product Pauli bases for energy estimation:

* uniform per-qubit letters (classical shadows, CS),
* a fixed locally-biased product distribution fitted to the Hamiltonian
  (LBCS),
* per-shot adaptive selection that conditions each qubit's letter
  distribution on the letters already assigned (APS).

All three share one convex subproblem: minimizing
``c_X/p_X + c_Y/p_Y + c_Z/p_Z`` over the probability simplex, whose
closed-form solution is ``p_B proportional to sqrt(c_B)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .paulis import CODE_I, CODE_X, CODE_Y, CODE_Z, Hamiltonian, MeasurementBasis, PauliOp

PROB_SUM_TOL = 1e-12

# Probability floor applied to per-qubit letters while the LBCS descent is
# running; keeps every coverage probability positive so the per-coordinate
# masses stay finite. Removed from the final answer when safe.
LBCS_PROB_FLOOR = 1e-12


class CostTriple(NamedTuple):
    """Squared-coefficient masses attributed to the X, Y, and Z letters."""

    x: float
    y: float
    z: float


class BasisDistribution:
    """Probabilities for measuring one qubit in the X, Y, or Z basis."""

    __slots__ = ("probs",)

    def __init__(self, probs: Sequence[float]):
        probs = tuple(float(p) for p in probs)
        if len(probs) != 3:
            raise ValueError("a basis distribution needs exactly three probabilities")
        if any(p < 0.0 or p > 1.0 for p in probs):
            raise ValueError(f"probabilities must lie in [0, 1], got {probs}")
        if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {sum(probs)}")
        self.probs = probs

    @classmethod
    def uniform(cls) -> "BasisDistribution":
        return cls((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))

    def __getitem__(self, index: int) -> float:
        return self.probs[index]

    def __iter__(self):
        return iter(self.probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasisDistribution):
            return NotImplemented
        return self.probs == other.probs

    def __repr__(self) -> str:
        return f"BasisDistribution({self.probs})"


class ProductDistribution:
    """Independent per-qubit basis distributions for a whole register."""

    __slots__ = ("per_qubit",)

    def __init__(self, per_qubit: Sequence[BasisDistribution]):
        per_qubit = tuple(per_qubit)
        if not per_qubit:
            raise ValueError("a product distribution needs at least one qubit")
        if not all(isinstance(d, BasisDistribution) for d in per_qubit):
            raise TypeError("per_qubit entries must be BasisDistribution instances")
        self.per_qubit = per_qubit

    @property
    def n(self) -> int:
        return len(self.per_qubit)

    def __len__(self) -> int:
        return len(self.per_qubit)

    def __getitem__(self, qubit: int) -> BasisDistribution:
        return self.per_qubit[qubit]

    def __iter__(self):
        return iter(self.per_qubit)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductDistribution):
            return NotImplemented
        return self.per_qubit == other.per_qubit

    def as_array(self) -> np.ndarray:
        """Probabilities as an (n, 3) array with columns X, Y, Z."""
        return np.array([d.probs for d in self.per_qubit], dtype=np.float64)

    def coverage_probability(self, pauli: PauliOp) -> float:
        """Probability that a sampled basis covers ``pauli``."""
        if pauli.n != self.n:
            raise ValueError("Pauli length does not match distribution length")
        prob = 1.0
        for qubit, code in enumerate(pauli.codes):
            if code != CODE_I:
                prob *= self.per_qubit[qubit].probs[code - 1]
        return prob

    def to_jsonable(self) -> list[list[float]]:
        return [list(d.probs) for d in self.per_qubit]

    def __repr__(self) -> str:
        return f"ProductDistribution(n={self.n})"


def closed_form_distribution(costs: CostTriple | Sequence[float]) -> BasisDistribution:
    """Minimizer of ``sum_B c_B / p_B`` over the probability simplex.

    With every mass zero the objective is flat, so the uniform
    distribution is returned. Letters with zero mass get probability
    exactly 0 (convention c/0 = 0), and are therefore never sampled.
    """
    c = tuple(float(v) for v in costs)
    if len(c) != 3:
        raise ValueError("expected three cost masses")
    if any(v < 0.0 for v in c):
        raise ValueError(f"cost masses must be nonnegative, got {c}")
    roots = tuple(math.sqrt(v) for v in c)
    total = sum(roots)
    if total == 0.0:
        return BasisDistribution.uniform()
    return BasisDistribution(tuple(r / total for r in roots))


@dataclass(frozen=True)
class PartialAssignment:
    """A qubit processing order plus the letters chosen so far.

    ``ordering`` is a bijection on qubits; stage j handles qubit
    ``ordering[j]``. ``assigned[j]`` is the letter code already chosen at
    stage j, so ``len(assigned)`` stages are complete.
    """

    ordering: tuple[int, ...]
    assigned: tuple[int, ...]

    def __post_init__(self):
        n = len(self.ordering)
        if sorted(self.ordering) != list(range(n)):
            raise ValueError("ordering must be a bijection on {0, ..., n-1}")
        if len(self.assigned) > n:
            raise ValueError("more assigned letters than stages")
        if any(code not in (1, 2, 3) for code in self.assigned):
            raise ValueError("assigned letters must be X, Y, or Z codes")


def stage_costs(hamiltonian: Hamiltonian, assignment: PartialAssignment, stage: int) -> CostTriple:
    """Letter masses for the current stage of adaptive basis selection.

    Collects the Hamiltonian terms that act non-trivially on the stage's
    qubit and are still consistent with every previously assigned letter,
    and splits their squared coefficients by the letter at that qubit.
    """
    if not 0 <= stage < len(assignment.ordering):
        raise ValueError(f"stage {stage} out of range")
    if stage > len(assignment.assigned):
        raise ValueError(f"stage {stage} reached before earlier stages were assigned")
    qubit = assignment.ordering[stage]
    masses = [0.0, 0.0, 0.0]
    for alpha, pauli in hamiltonian.terms:
        code = int(pauli.codes[qubit])
        if code == CODE_I:
            continue
        consistent = True
        for done in range(stage):
            prior = int(pauli.codes[assignment.ordering[done]])
            if prior != CODE_I and prior != assignment.assigned[done]:
                consistent = False
                break
        if consistent:
            masses[code - 1] += alpha * alpha
    return CostTriple(*masses)


def uniform_distribution(n: int) -> ProductDistribution:
    """The classical-shadows distribution: every letter of every qubit is 1/3."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return ProductDistribution([BasisDistribution.uniform() for _ in range(n)])


def diagonal_cost(hamiltonian: Hamiltonian, pd: ProductDistribution) -> float:
    """Variance surrogate ``sum_P alpha_P^2 / Pr[P covered]``.

    Returns ``math.inf`` when some term has zero coverage probability.
    The constant offset never contributes (it is measured exactly).
    """
    if hamiltonian.n != pd.n:
        raise ValueError("Hamiltonian and distribution qubit counts differ")
    total = 0.0
    for alpha, pauli in hamiltonian.terms:
        coverage = pd.coverage_probability(pauli)
        if coverage == 0.0:
            return math.inf
        total += alpha * alpha / coverage
    return total


def _lbcs_sweeps(
    hamiltonian: Hamiltonian, max_sweeps: int
) -> Iterator[tuple[np.ndarray, float]]:
    """Yield (raw probability table, floored-table cost) after each sweep.

    One sweep performs a cyclic pass over qubits; each per-qubit update is
    the exact coordinate minimizer given the other (floored) qubits.
    """
    n = hamiltonian.n
    m = hamiltonian.n_terms
    codes = hamiltonian.codes
    masses_all = hamiltonian.coeffs * hamiltonian.coeffs

    raw = np.full((n, 3), 1.0 / 3.0)
    floored = raw.copy()

    # factor[t, q] = floored prob of term t's letter at qubit q (1 where identity)
    nontrivial = codes != CODE_I
    letter_index = np.where(nontrivial, codes.astype(np.int64) - 1, 0)
    qubit_index = np.tile(np.arange(n), (m, 1))

    def term_factors() -> np.ndarray:
        factors = floored[qubit_index, letter_index]
        factors[~nontrivial] = 1.0
        return factors

    factors = term_factors()
    coverage = factors.prod(axis=1)

    for _ in range(max_sweeps):
        for qubit in range(n):
            column = codes[:, qubit]
            active = column != CODE_I
            masses = np.zeros(3)
            if active.any():
                # effective mass: alpha^2 divided by the other qubits' letter
                # probabilities, i.e. coverage with this qubit's factor removed
                partial = masses_all[active] * (factors[active, qubit] / coverage[active])
                masses = np.bincount(column[active] - 1, weights=partial, minlength=3)
            total = masses.sum()
            if total > 0.0:
                roots = np.sqrt(masses)
                new_raw = roots / roots.sum()
            else:
                new_raw = np.full(3, 1.0 / 3.0)
            raw[qubit] = new_raw
            clipped = np.maximum(new_raw, LBCS_PROB_FLOOR)
            floored[qubit] = clipped / clipped.sum()
            if active.any():
                new_factors = floored[qubit, column[active] - 1]
                coverage[active] *= new_factors / factors[active, qubit]
                factors[active, qubit] = new_factors

        cost = float(np.sum(masses_all / coverage))
        yield raw.copy(), cost


def locally_biased_distribution(
    hamiltonian: Hamiltonian, tol: float = 1e-10, max_sweeps: int = 10_000
) -> ProductDistribution:
    """Fit the LBCS product distribution by cyclic coordinate descent.

    Starts from the uniform distribution and sweeps qubits in index
    order; each qubit's triple is replaced by the closed-form coordinate
    minimizer of the diagonal cost. Stops when a full sweep changes the
    cost by less than ``tol * (1 + |cost|)`` or after ``max_sweeps``.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    if hamiltonian.n_terms == 0:
        return uniform_distribution(hamiltonian.n)

    raw = None
    previous_cost = math.inf
    for raw, cost in _lbcs_sweeps(hamiltonian, max_sweeps):
        if abs(previous_cost - cost) < tol * (1.0 + abs(cost)):
            break
        previous_cost = cost

    unfloored = ProductDistribution([BasisDistribution(tuple(row)) for row in raw])
    if math.isfinite(diagonal_cost(hamiltonian, unfloored)):
        return unfloored
    clipped = np.maximum(raw, LBCS_PROB_FLOOR)
    clipped /= clipped.sum(axis=1, keepdims=True)
    return ProductDistribution([BasisDistribution(tuple(row)) for row in clipped])


_LETTER_CODES = np.array([[CODE_X], [CODE_Y], [CODE_Z]])
# Cap on (shot, term) pairs that one slice of adaptive selection handles.
_SLICE_CELLS = 1 << 16


def _thresholds(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative thresholds of (p_X, p_Y, p_Z) rows for one uniform draw each.

    A draw u picks X iff u < t0, Y iff t0 <= u < t1, else Z. A
    zero-probability letter gets a zero-width interval, so it is never
    drawn, even when rounding leaves the row summing slightly below one.
    """
    t0 = probs[..., 0].copy()
    t1 = probs[..., 0] + probs[..., 1]
    t1[probs[..., 2] == 0.0] = 1.0
    t0[(probs[..., 1] == 0.0) & (probs[..., 2] == 0.0)] = 1.0
    return t0, t1


class ProductBasisSampler:
    """Draws measurement bases from a fixed product distribution.

    ``bases`` uses one uniform draw per qubit: column q of a row decides
    qubit q's letter.
    """

    def __init__(self, distribution: ProductDistribution):
        self.distribution = distribution
        self.uniforms = distribution.n
        self._t0, self._t1 = _thresholds(distribution.as_array())

    @property
    def n(self) -> int:
        return self.distribution.n

    def bases(self, u: np.ndarray) -> np.ndarray:
        """Map a (shots, n) block of U[0, 1) draws to (shots, n) letter codes."""
        return (1 + (u >= self._t0) + (u >= self._t1)).astype(np.uint8)

    def sample(self, rng: np.random.Generator) -> MeasurementBasis:
        return MeasurementBasis(self.bases(rng.random((1, self.uniforms)))[0])


class AdaptiveBasisSampler:
    """Draws measurement bases by per-shot adaptive selection (APS).

    ``bases`` uses two uniform draws per qubit. The first n columns of a
    row fix the shot's qubit order (their ``argsort``, a uniformly random
    permutation); column n + j then picks the letter at stage j. All
    shots advance one stage at a time, with a (shots, terms) mask of the
    terms still consistent with each shot's letters, so a block of shots
    costs O(shots * n_terms * n) in vectorized steps.
    """

    def __init__(self, hamiltonian: Hamiltonian):
        self.hamiltonian = hamiltonian
        self.uniforms = 2 * hamiltonian.n
        self._columns = np.ascontiguousarray(hamiltonian.codes.T)  # (n, terms)
        self._masses = hamiltonian.coeffs * hamiltonian.coeffs

    @property
    def n(self) -> int:
        return self.hamiltonian.n

    def bases(self, u: np.ndarray) -> np.ndarray:
        """Map a (shots, 2n) block of U[0, 1) draws to (shots, n) letter codes.

        At each stage a shot's letter probabilities are the closed-form
        simplex solution for the masses of its alive terms at its
        current qubit, uniform when no alive term acts there. Rows are
        independent; they go through in slices of about
        ``_SLICE_CELLS / terms`` shots to bound the stage masks' memory.
        """
        step = max(1, _SLICE_CELLS // max(1, self._masses.size))
        return np.concatenate([self._stages(u[i : i + step]) for i in range(0, max(len(u), 1), step)])

    def _stages(self, u: np.ndarray) -> np.ndarray:
        n = self.hamiltonian.n
        shots = u.shape[0]
        order = np.argsort(u[:, :n], axis=1)
        rows = np.arange(shots)
        codes = np.empty((shots, n), dtype=np.uint8)
        alive = np.ones((shots, self._masses.size), dtype=bool)
        masses = np.broadcast_to(self._masses, (shots, 3, self._masses.size))
        for stage in range(n):
            qubits = order[:, stage]
            column = self._columns[qubits]
            # live[s, l, t]: term t is alive in shot s and has letter l + 1 at its qubit
            live = np.where(alive, column, CODE_I)[:, None, :] == _LETTER_CODES
            roots = np.sqrt(masses.sum(axis=2, where=live))
            roots += roots.sum(axis=1, keepdims=True) == 0.0  # no alive term acts here: uniform
            t0, t1 = _thresholds(roots / roots.sum(axis=1, keepdims=True))
            draws = u[:, n + stage]
            letters = (1 + (draws >= t0) + (draws >= t1)).astype(np.uint8)
            codes[rows, qubits] = letters
            alive &= (column == CODE_I) | (column == letters[:, None])
        return codes

    def sample(self, rng: np.random.Generator) -> MeasurementBasis:
        return MeasurementBasis(self.bases(rng.random((1, self.uniforms)))[0])
