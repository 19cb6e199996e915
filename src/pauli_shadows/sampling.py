"""Measurement-basis selection strategies.

Three ways to pick product Pauli bases for energy estimation:

* uniform per-qubit letters (classical shadows, CS),
* a fixed locally-biased product distribution fitted to the Hamiltonian
  (LBCS),
* per-shot adaptive selection that conditions each qubit's letter
  distribution on the letters already assigned (APS).

A product distribution is a read-only (n, 3) float64 array whose row q
holds qubit q's X, Y and Z probabilities; ``product_distribution``
validates one. All three strategies share one convex subproblem:
minimizing ``c_X/p_X + c_Y/p_Y + c_Z/p_Z`` over the probability
simplex. Its closed-form solution is ``p_B proportional to sqrt(c_B)``,
which ``closed_form_distribution`` computes row by row; LBCS applies it
once per qubit in each sweep, APS at every stage of every shot.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .paulis import CODE_I, CODE_X, CODE_Y, CODE_Z, LETTERS, Hamiltonian

PROB_SUM_TOL = 1e-12

# Probability floor applied to per-qubit letters while the LBCS descent is
# running; keeps every coverage probability positive so the per-coordinate
# masses stay finite. Removed from the final answer when safe.
LBCS_PROB_FLOOR = 1e-12


def product_distribution(table) -> np.ndarray:
    """Validate per-qubit (p_X, p_Y, p_Z) rows as a read-only (n, 3) float64 array.

    Needs n >= 1, every entry in [0, 1] and every row summing to 1
    within ``PROB_SUM_TOL``. Returns a copy.
    """
    probs = np.array(table, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != 3:
        raise ValueError(f"a product distribution is an (n, 3) table, got shape {probs.shape}")
    if probs.shape[0] < 1:
        raise ValueError("a product distribution needs at least one qubit")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > PROB_SUM_TOL):
        raise ValueError("each qubit's probabilities must sum to 1")
    probs.setflags(write=False)
    return probs


def closed_form_distribution(costs) -> np.ndarray:
    """Minimizer of ``sum_B c_B / p_B`` over the simplex, for each row of (..., 3) masses.

    Masses must be finite and nonnegative. A row whose masses are all
    zero has a flat objective and gets the uniform distribution. Letters
    with zero mass get probability exactly 0 (convention c/0 = 0), and
    are therefore never sampled.
    """
    c = np.asarray(costs, dtype=np.float64)
    if c.shape[-1:] != (3,):
        raise ValueError(f"expected three cost masses per row, got shape {c.shape}")
    if not ((c >= 0.0) & (c < math.inf)).all():  # written so that NaN fails too
        raise ValueError("cost masses must be finite and nonnegative")
    roots = np.sqrt(c)
    roots += roots.sum(axis=-1, keepdims=True) == 0.0  # an all-zero row becomes uniform
    return roots / roots.sum(axis=-1, keepdims=True)


def uniform_distribution(n: int) -> np.ndarray:
    """The classical-shadows distribution: every letter of every qubit is 1/3."""
    return product_distribution(np.full((n, 3), 1.0 / 3.0))


def _term_masses(hamiltonian: Hamiltonian) -> np.ndarray:
    """Squared coefficients alpha_P^2, the cost masses of LBCS and APS.

    Raises ``ValueError`` when they overflow: their sum bounds every
    mass that the LBCS descent and the APS stages add up.
    """
    with np.errstate(over="ignore"):
        masses = hamiltonian.coeffs * hamiltonian.coeffs
        total = masses.sum()
    if not total < math.inf:
        raise ValueError(f"cost masses must be finite and nonnegative: the squared coefficients sum to {total}")
    return masses


def _term_factors(codes: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """factors[t, q]: probability under ``probs`` of term t's letter at qubit q, 1 where it is I."""
    nontrivial = codes != CODE_I
    factors = probs[np.arange(codes.shape[1]), np.where(nontrivial, codes.astype(np.int64) - 1, 0)]
    factors[~nontrivial] = 1.0
    return factors


def diagonal_cost(hamiltonian: Hamiltonian, table) -> float:
    """Variance surrogate ``sum_P alpha_P^2 / Pr[P covered]``.

    Returns ``math.inf`` when some term has zero coverage probability,
    and raises ``ValueError`` when the squared coefficients overflow.
    The constant offset never contributes (it is measured exactly).
    """
    probs = product_distribution(table)
    if hamiltonian.n != probs.shape[0]:
        raise ValueError("Hamiltonian and distribution qubit counts differ")
    masses = _term_masses(hamiltonian)
    coverage = _term_factors(hamiltonian.codes, probs).prod(axis=1)
    if np.any(coverage == 0.0):
        return math.inf
    total = 0.0
    for share in (masses / coverage).tolist():
        total += share  # in term order: a pairwise np.sum moves predicted_error's last digit
    return total


def _lbcs_sweeps(
    hamiltonian: Hamiltonian, max_sweeps: int
) -> Iterator[tuple[np.ndarray, float]]:
    """Yield (raw probability table, floored-table cost) after each sweep.

    One sweep performs a cyclic pass over qubits; each per-qubit update is
    the exact coordinate minimizer given the other (floored) qubits.
    """
    n = hamiltonian.n
    codes = hamiltonian.codes
    masses_all = _term_masses(hamiltonian)

    raw = np.full((n, 3), 1.0 / 3.0)
    floored = raw.copy()
    factors = _term_factors(codes, floored)
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
            raw[qubit] = closed_form_distribution(masses)
            clipped = np.maximum(raw[qubit], LBCS_PROB_FLOOR)
            floored[qubit] = clipped / clipped.sum()
            if active.any():
                new_factors = floored[qubit, column[active] - 1]
                coverage[active] *= new_factors / factors[active, qubit]
                factors[active, qubit] = new_factors

        cost = float(np.sum(masses_all / coverage))
        yield raw.copy(), cost


def locally_biased_distribution(
    hamiltonian: Hamiltonian, tol: float = 1e-10, max_sweeps: int = 10_000
) -> np.ndarray:
    """Fit the LBCS product distribution by cyclic coordinate descent.

    Starts from the uniform distribution and sweeps qubits in index
    order; each qubit's triple is replaced by the closed-form coordinate
    minimizer of the diagonal cost. Stops when a full sweep changes the
    cost by less than ``tol * (1 + |cost|)`` or after ``max_sweeps``.
    ``tol`` must be a nonnegative number.
    """
    if not tol >= 0.0:  # written so that NaN fails too: it would run every sweep
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
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

    if math.isfinite(diagonal_cost(hamiltonian, raw)):
        return product_distribution(raw)
    clipped = np.maximum(raw, LBCS_PROB_FLOOR)
    clipped /= clipped.sum(axis=1, keepdims=True)
    return product_distribution(clipped)


_LETTER_CODES = np.array([CODE_X, CODE_Y, CODE_Z])
# Cap on (shot, term) cells in one slice of adaptive selection: its
# alive mask, one qubit group's float copy of it and the gathered keep
# mask each hold that many cells.
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


def _word(codes: np.ndarray) -> str:
    """The basis word of one row of letter codes."""
    return "".join(LETTERS[code] for code in codes.tolist())


class ProductBasisSampler:
    """Draws measurement bases from a fixed product distribution.

    ``bases`` uses one uniform draw per qubit: column q of a row decides
    qubit q's letter.
    """

    def __init__(self, distribution):
        probs = product_distribution(distribution)
        self.uniforms = probs.shape[0]
        self._t0, self._t1 = _thresholds(probs)

    def bases(self, u: np.ndarray) -> np.ndarray:
        """Map a (shots, n) block of U[0, 1) draws to (shots, n) letter codes."""
        return (1 + (u >= self._t0) + (u >= self._t1)).astype(np.uint8)

    def sample(self, rng: np.random.Generator) -> str:
        return _word(self.bases(rng.random((1, self.uniforms)))[0])


class AdaptiveBasisSampler:
    """Draws measurement bases by per-shot adaptive selection (APS).

    ``bases`` uses two uniform draws per qubit. The first n columns of a
    row fix the shot's qubit order (their ``argsort``, a uniformly random
    permutation); column n + j then picks the letter at stage j.

    Two tables, built once from the Hamiltonian, carry the stage work:
    ``weights[q, t, l]`` is term t's mass alpha_t^2 when its letter at
    qubit q is l + 1, else 0, and ``keep[q, l, t]`` says whether term t
    is still consistent once qubit q reads letter l + 1. All shots
    advance one stage at a time with a (shots, terms) bool mask of their
    alive terms. A stage costs one (shots at q, terms) @ (terms, 3)
    matrix product per qubit q that occurs in it, then one gathered
    (shots, terms) keep mask, so a block of shots costs
    O(shots * terms * n) in about n * n vectorized steps. On 8 qubits
    and 500 terms the tables take 94 KiB (float64) and 12 KiB (bool).
    """

    def __init__(self, hamiltonian: Hamiltonian):
        self.hamiltonian = hamiltonian
        self.uniforms = 2 * hamiltonian.n
        columns = hamiltonian.codes.T[:, :, None]  # (n, terms, 1)
        letters = columns == _LETTER_CODES  # (n, terms, 3)
        self._weights = np.where(letters, _term_masses(hamiltonian)[:, None], 0.0)
        self._keep = np.ascontiguousarray((letters | (columns == CODE_I)).transpose(0, 2, 1))

    def bases(self, u: np.ndarray) -> np.ndarray:
        """Map a (shots, 2n) block of U[0, 1) draws to (shots, n) letter codes.

        At each stage a shot's letter probabilities are the closed-form
        simplex solution for the masses of its alive terms at its
        current qubit, uniform when no alive term acts there. Rows are
        independent; they go through in slices of about
        ``_SLICE_CELLS / terms`` shots to bound the stage masks' memory.
        """
        step = max(1, _SLICE_CELLS // max(1, self.hamiltonian.n_terms))
        return np.concatenate([self._stages(u[i : i + step]) for i in range(0, max(len(u), 1), step)])

    def _stages(self, u: np.ndarray) -> np.ndarray:
        n = self.hamiltonian.n
        shots = u.shape[0]
        order = np.argsort(u[:, :n], axis=1)
        rows = np.arange(shots)
        codes = np.empty((shots, n), dtype=np.uint8)
        alive = np.ones((shots, self.hamiltonian.n_terms), dtype=bool)
        masses = np.empty((shots, 3))
        for stage in range(n):
            qubits = order[:, stage]
            for qubit in np.flatnonzero(np.bincount(qubits, minlength=n)):  # qubits in this stage
                at = qubits == qubit
                masses[at] = alive[at].astype(np.float64) @ self._weights[qubit]
            t0, t1 = _thresholds(closed_form_distribution(masses))
            draws = u[:, n + stage]
            letters = (1 + (draws >= t0) + (draws >= t1)).astype(np.uint8)
            codes[rows, qubits] = letters
            alive &= self._keep[qubits, letters - 1]
        return codes

    def sample(self, rng: np.random.Generator) -> str:
        return _word(self.bases(rng.random((1, self.uniforms)))[0])
