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

import numpy as np

from .paulis import CODE_I, CODE_X, CODE_Y, CODE_Z, LETTERS, Hamiltonian, keep_table

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


def _finite(total: float, what: str) -> float:
    """``total``, or the ``ValueError`` of overflowing cost masses when it is not finite."""
    if not total < math.inf:
        raise ValueError(f"cost masses must be finite and nonnegative: {what} sum to {total}")
    return total


def _term_masses(hamiltonian: Hamiltonian) -> np.ndarray:
    """Squared coefficients alpha_P^2, the cost masses of LBCS and APS.

    Raises ``ValueError`` when they overflow: their sum bounds every
    mass that the APS stages add up.
    """
    with np.errstate(over="ignore"):
        masses = hamiltonian.coeffs * hamiltonian.coeffs
        _finite(masses.sum(), "the squared coefficients")
    return masses


def _term_factors(codes: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """factors[t, q]: probability under ``probs`` of term t's letter at qubit q, 1 where it is I."""
    return np.insert(probs, CODE_I, 1.0, axis=1)[np.arange(codes.shape[1]), codes]


def diagonal_cost(hamiltonian: Hamiltonian, table) -> float:
    """Variance surrogate ``sum_P alpha_P^2 / Pr[P covered]``.

    Returns ``math.inf`` when some term has zero coverage probability,
    and raises ``ValueError`` when the squared coefficients or the cost
    overflow. The constant offset never contributes (it is measured exactly).
    """
    probs = product_distribution(table)
    if hamiltonian.n != probs.shape[0]:
        raise ValueError("Hamiltonian and distribution qubit counts differ")
    masses = _term_masses(hamiltonian)
    coverage = _term_factors(hamiltonian.codes, probs).prod(axis=1)
    if np.any(coverage == 0.0):
        return math.inf
    with np.errstate(over="ignore"):
        return _finite(float(np.sum(masses / coverage)), "the diagonal cost's shares")


def locally_biased_distribution(
    hamiltonian: Hamiltonian, tol: float = 1e-10, max_sweeps: int = 10_000
) -> np.ndarray:
    """Fit the LBCS product distribution by cyclic coordinate descent.

    Starts from the uniform distribution and sweeps qubits in index
    order; each qubit's triple is replaced by the closed-form coordinate
    minimizer of the diagonal cost given the other qubits' triples,
    floored at ``LBCS_PROB_FLOOR``. Stops when a full sweep changes the
    floored cost by less than ``tol * (1 + |cost|)`` or after
    ``max_sweeps``; returns the unfloored table unless it leaves a term
    uncovered. ``tol`` must be a nonnegative number.
    """
    if not tol >= 0.0:  # written so that NaN fails too: it would run every sweep
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")

    codes = hamiltonian.codes
    masses_all = _term_masses(hamiltonian)
    acting = [(rows, codes[rows, qubit] - 1) for qubit, rows in enumerate(map(np.flatnonzero, codes.T))]
    raw = np.full((hamiltonian.n, 3), 1.0 / 3.0)
    floored = raw.copy()
    coverage = _term_factors(codes, floored).prod(axis=1)
    previous_cost = math.inf
    with np.errstate(over="ignore"):  # closed_form_distribution and _finite raise on overflow
        for _ in range(max_sweeps):
            for qubit, (rows, letters) in enumerate(acting):
                # effective mass: alpha^2 divided by the other qubits' letter
                # probabilities, i.e. coverage with this qubit's factor removed
                old = floored[qubit, letters]
                partial = masses_all[rows] * (old / coverage[rows])
                raw[qubit] = closed_form_distribution(np.bincount(letters, weights=partial, minlength=3))
                clipped = np.maximum(raw[qubit], LBCS_PROB_FLOOR)
                floored[qubit] = clipped / clipped.sum()
                coverage[rows] *= floored[qubit, letters] / old

            cost = _finite(float(np.sum(masses_all / coverage)), "the floored table's shares")
            if abs(previous_cost - cost) < tol * (1.0 + abs(cost)):
                break
            previous_cost = cost
    covered = _term_factors(codes, raw).prod(axis=1).all()
    return product_distribution(raw if covered else floored)


_LETTER_CODES = np.array([CODE_X, CODE_Y, CODE_Z])


def _draw_letters(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Letter codes (uint8, 1 to 3 for X to Z) that U[0, 1) draws ``u`` pick from (p_X, p_Y, p_Z) rows.

    Cumulative thresholds: a draw picks X iff u < t0, Y iff t0 <= u < t1,
    else Z. A zero-probability letter gets a zero-width interval, so it is
    never drawn, even when rounding leaves the row summing slightly below one.
    """
    t0 = probs[..., 0].copy()
    t1 = probs[..., 0] + probs[..., 1]
    t1[probs[..., 2] == 0.0] = 1.0
    t0[(probs[..., 1] == 0.0) & (probs[..., 2] == 0.0)] = 1.0
    return (1 + (u >= t0) + (u >= t1)).astype(np.uint8)


class BasisSampler:
    """Maps blocks of uniform draws to measurement bases, one row per shot; a subclass defines ``bases``."""

    uniforms: int  # U[0, 1) draws per shot

    def bases(self, u: np.ndarray) -> np.ndarray:
        """Map a (shots, ``uniforms``) block of U[0, 1) draws to (shots, n) letter codes."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> str:
        """One basis word such as ``"XZY"``: ``bases`` of one row of ``uniforms`` draws of ``rng``."""
        return "".join(LETTERS[code] for code in self.bases(rng.random((1, self.uniforms)))[0].tolist())


class ProductBasisSampler(BasisSampler):
    """Draws measurement bases from a fixed product distribution.

    ``bases`` uses one uniform draw per qubit: column q of a row decides
    qubit q's letter.
    """

    def __init__(self, distribution):
        self._probs = product_distribution(distribution)
        self.uniforms = self._probs.shape[0]

    def bases(self, u: np.ndarray) -> np.ndarray:
        """Map a (shots, n) block of U[0, 1) draws to (shots, n) letter codes."""
        return _draw_letters(self._probs, u)


class AdaptiveBasisSampler(BasisSampler):
    """Draws measurement bases by per-shot adaptive selection (APS).

    ``bases`` uses two uniform draws per qubit. The first n columns of a
    row fix the shot's qubit order (their ``argsort``, a uniformly random
    permutation); column n + j then picks the letter at stage j.

    Two tables, built once from the Hamiltonian, carry the stage work:
    ``weights[q, t, l]`` is term t's mass alpha_t^2 when its letter at qubit
    q is l + 1, else 0, and ``keep`` is ``keep_table`` of the codes, the
    covering rule that the estimator's fold shares. All shots of a block,
    which ``estimate_energies`` bounds in cells and fills from one or more
    repetitions, advance one stage at a time with a (shots, terms) bool mask
    of their alive terms. A stage costs one (shots at q, terms) @ (terms, 3)
    matrix product per qubit q that occurs in it, then one gathered (shots,
    terms) keep mask, so a block of shots costs O(shots * terms * n) in
    about n * n vectorized steps. On 8 qubits and 500 terms the tables take
    94 KiB (float64) and 12 KiB (bool).
    """

    def __init__(self, hamiltonian: Hamiltonian):
        self.hamiltonian = hamiltonian
        self.uniforms = 2 * hamiltonian.n
        letters = hamiltonian.codes.T[:, :, None] == _LETTER_CODES  # (n, terms, 3)
        self._weights = np.where(letters, _term_masses(hamiltonian)[:, None], 0.0)
        self._keep = keep_table(hamiltonian.codes)

    def bases(self, u: np.ndarray) -> np.ndarray:
        """Map a (shots, 2n) block of U[0, 1) draws to (shots, n) letter codes.

        At each stage a shot's letter probabilities are the closed-form
        simplex solution for the masses of its alive terms at its
        current qubit, uniform when no alive term acts there. Rows are
        independent, so the caller bounds the stage masks' memory by the
        number of rows it passes.
        """
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
            letters = _draw_letters(closed_form_distribution(masses), u[:, n + stage])
            codes[rows, qubits] = letters
            alive &= self._keep[qubits, letters - 1]
        return codes
