"""Independent oracles shared by the test suite.

Everything here deliberately avoids the library's own vectorized code
paths: matrices are built with dense Kronecker products, distributions
by brute-force enumeration, and optima by grid search, so agreement with
the package is meaningful evidence of correctness.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from pauli_shadows import (
    CapacityError,
    Hamiltonian,
    StateVector,
    closed_form_distribution,
    hamiltonian_expectation,
    measurement_distribution,
)
from pauli_shadows.paulis import CODE_I, CODE_X, CODE_Y, CODE_Z

SQ2 = 1.0 / math.sqrt(2.0)

VARIANCE_ORACLE_MAX_QUBITS = 4

DENSE_LETTER = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Rotation taking each basis' eigenvectors to the computational basis.
DENSE_ROTATION = {
    "X": np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex),
    "Y": np.array([[SQ2, -1j * SQ2], [SQ2, 1j * SQ2]], dtype=complex),
    "Z": np.eye(2, dtype=complex),
}

BELL_AMPLITUDES = np.array([SQ2, 0.0, 0.0, SQ2], dtype=complex)


def dense_pauli(letters: str) -> np.ndarray:
    """Kronecker-product matrix of a Pauli string, qubit 0 first."""
    matrix = np.eye(1, dtype=complex)
    for letter in letters:
        matrix = np.kron(matrix, DENSE_LETTER[letter])
    return matrix


def dense_hamiltonian(hamiltonian: Hamiltonian) -> np.ndarray:
    dim = 2**hamiltonian.n
    matrix = hamiltonian.offset * np.eye(dim, dtype=complex)
    for alpha, pauli in hamiltonian.terms:
        matrix += alpha * dense_pauli(pauli)
    return matrix


def dense_measurement_probs(amplitudes: np.ndarray, basis_letters: str) -> np.ndarray:
    """Outcome probabilities via one dense rotation matrix."""
    rotation = np.eye(1, dtype=complex)
    for letter in basis_letters:
        rotation = np.kron(rotation, DENSE_ROTATION[letter])
    rotated = rotation @ amplitudes
    return np.abs(rotated) ** 2


# Each rotation into the computational frame times sqrt(2), written as
# [[1, a], [1, b]]: the Hadamard for X, phase-dagger then Hadamard for Y.
# Entry k of the column (a, b) scales the bit-1 amplitude in output bit k.
_HALF_SLICE_FACTORS = {
    CODE_X: np.array([[1.0], [-1.0]], dtype=np.complex128),
    CODE_Y: np.array([[-1.0j], [1.0j]], dtype=np.complex128),
}


def reshape_loop_probs(amplitudes: np.ndarray, codes) -> np.ndarray:
    """Outcome probabilities by rotating each non-Z qubit in place on a ``reshape(2**qubit, 2, -1)`` view.

    It makes the same exact products by ±1 and ±i as the library's
    leading-qubit kernel, in another amplitude order, so the two must
    agree bit for bit.
    """
    psi = amplitudes
    rotations = 0
    for qubit, code in enumerate(np.asarray(codes).tolist()):
        if code == CODE_Z:
            continue
        block = psi.reshape(2**qubit, 2, -1)
        psi = (block[:, 1:] * _HALF_SLICE_FACTORS[code] + block[:, :1]).reshape(-1)
        rotations += 1
    probs = np.abs(psi) ** 2
    probs *= 0.5**rotations
    return probs


def all_bases(n: int) -> list[str]:
    return ["".join(w) for w in itertools.product("XYZ", repeat=n)]


def product_of_sigmas(index: int, n: int, pauli: str) -> int:
    """±1 product of the outcome's readouts over the string's non-I qubits."""
    product = 1
    for qubit, letter in enumerate(pauli):
        if letter == "I":
            continue
        bit = (index >> (n - 1 - qubit)) & 1
        product *= 1 - 2 * bit
    return product


def covers_reference(basis_letters: str, pauli_letters: str) -> bool:
    """Letter-by-letter re-statement of the covering rule."""
    return all(p == "I" or p == b for b, p in zip(basis_letters, pauli_letters))


def simplex_grid(step_count: int) -> np.ndarray:
    """All (p_x, p_y, p_z) with entries i/step_count summing to 1."""
    points = []
    for i in range(step_count + 1):
        for j in range(step_count + 1 - i):
            points.append((i / step_count, j / step_count, (step_count - i - j) / step_count))
    return np.array(points)


def grid_objective_minimum(costs, grid: np.ndarray) -> float:
    """Brute-force minimum of sum_B c_B / p_B over a simplex grid."""
    total = np.zeros(len(grid))
    for column, c in enumerate(costs):
        if c == 0.0:
            continue
        with np.errstate(divide="ignore"):
            total = total + c / grid[:, column]
    return float(total.min())


def exact_adaptive_distribution(
    hamiltonian: Hamiltonian, ordering: tuple[int, ...] | None = None
) -> dict[str, float]:
    """Exact basis distribution of adaptive selection, by full enumeration.

    Walks every qubit ordering (uniformly weighted unless one is fixed)
    and every letter choice, recomputing the stage masses from scratch
    with plain loops. Returns letter-string -> probability.
    """
    n = hamiltonian.n
    orderings = [ordering] if ordering is not None else list(itertools.permutations(range(n)))
    result: dict[str, float] = {}

    def stage_distribution(order, chosen, stage):
        qubit = order[stage]
        masses = {"X": 0.0, "Y": 0.0, "Z": 0.0}
        for alpha, letters in hamiltonian.terms:
            if letters[qubit] == "I":
                continue
            if any(
                letters[order[j]] != "I" and letters[order[j]] != chosen[j] for j in range(stage)
            ):
                continue
            masses[letters[qubit]] += alpha * alpha
        total = sum(masses.values())
        if total == 0.0:
            return {"X": 1 / 3, "Y": 1 / 3, "Z": 1 / 3}
        roots = {k: math.sqrt(v) for k, v in masses.items()}
        scale = sum(roots.values())
        return {k: v / scale for k, v in roots.items()}

    for order in orderings:
        def walk(stage, chosen, probability):
            if stage == n:
                letters = [""] * n
                for j, qubit in enumerate(order):
                    letters[qubit] = chosen[j]
                word = "".join(letters)
                result[word] = result.get(word, 0.0) + probability / len(orderings)
                return
            dist = stage_distribution(order, chosen, stage)
            for letter, p in dist.items():
                if p > 0.0:
                    walk(stage + 1, chosen + [letter], probability * p)

        walk(0, [], 1.0)
    return result


def reference_aps_bases(hamiltonian: Hamiltonian, u: np.ndarray) -> np.ndarray:
    """Adaptive selection of ``AdaptiveBasisSampler.bases`` with a masked sum over every term.

    All rows in one pass, each stage's letter masses summed by
    ``np.sum(where=)`` over a (shots, 3, terms) mask of the alive terms
    that carry each letter at the shot's qubit. The sampler's letter
    draws must agree with it exactly.
    """
    n = hamiltonian.n
    shots = u.shape[0]
    columns = np.ascontiguousarray(hamiltonian.codes.T)  # (n, terms)
    letter_codes = np.array([[CODE_X], [CODE_Y], [CODE_Z]])
    order = np.argsort(u[:, :n], axis=1)
    rows = np.arange(shots)
    codes = np.empty((shots, n), dtype=np.uint8)
    alive = np.ones((shots, hamiltonian.n_terms), dtype=bool)
    masses = np.broadcast_to(hamiltonian.coeffs * hamiltonian.coeffs, (shots, 3, hamiltonian.n_terms))
    for stage in range(n):
        qubits = order[:, stage]
        column = columns[qubits]
        # live[s, l, t]: term t is alive in shot s and has letter l + 1 at its qubit
        live = np.where(alive, column, CODE_I)[:, None, :] == letter_codes
        probs = closed_form_distribution(masses.sum(axis=2, where=live))
        t0 = probs[:, 0].copy()
        t1 = probs[:, 0] + probs[:, 1]
        t1[probs[:, 2] == 0.0] = 1.0
        t0[(probs[:, 1] == 0.0) & (probs[:, 2] == 0.0)] = 1.0
        draws = u[:, n + stage]
        letters = (1 + (draws >= t0) + (draws >= t1)).astype(np.uint8)
        codes[rows, qubits] = letters
        alive &= (column == CODE_I) | (column == letters[:, None])
    return codes


def coverage_count(pauli_letters: str, n: int) -> Fraction:
    """Fraction of all 3^n bases covering the string, counted exactly."""
    covering = 0
    for word in itertools.product("XYZ", repeat=n):
        if covers_reference("".join(word), pauli_letters):
            covering += 1
    return Fraction(covering, 3**n)


def random_hamiltonian(
    rng: np.random.Generator,
    n: int,
    n_terms: int,
    max_weight: int | None = None,
    coeff_range: tuple[float, float] = (0.05, 1.0),
) -> Hamiltonian:
    """Random test Hamiltonian with distinct non-identity strings."""
    max_weight = max_weight or n
    n_terms = min(n_terms, 4**n - 1)  # only that many distinct strings exist
    terms = {}
    while len(terms) < n_terms:
        weight = int(rng.integers(1, max_weight + 1))
        qubits = rng.choice(n, size=weight, replace=False)
        letters = ["I"] * n
        for qubit in qubits:
            letters[qubit] = "XYZ"[rng.integers(3)]
        word = "".join(letters)
        if word not in terms:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            terms[word] = sign * float(rng.uniform(*coeff_range))
    return Hamiltonian(n, [(alpha, word) for word, alpha in terms.items()])


def random_state_amplitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return amps / np.linalg.norm(amps)


def reference_estimate(
    hamiltonian: Hamiltonian, state: StateVector, shots: int, sampler, rng: np.random.Generator
) -> tuple[float, list[int], list[int]]:
    """Per-shot reference of `estimate_energy`; returns (energy, per-term sums, per-term counts).

    Each shot calls ``sampler.sample``, then draws its outcome with one
    ``rng.random()`` from the dense outcome distribution, then folds the
    covered terms' ±1 products into plain-Python sums. That consumes the
    random stream in the batched pass's row layout, so one seed gives
    both the same shots.
    """
    n = hamiltonian.n
    sums = [0] * hamiltonian.n_terms
    counts = [0] * hamiltonian.n_terms
    for _ in range(shots):
        basis = sampler.sample(rng)
        cumulative = np.cumsum(dense_measurement_probs(state.amplitudes, basis))
        index = int(np.searchsorted(cumulative / cumulative[-1], rng.random(), side="right"))
        for term, (_, pauli) in enumerate(hamiltonian.terms):
            if covers_reference(basis, pauli):
                sums[term] += product_of_sigmas(index, n, pauli)
                counts[term] += 1
    energy = hamiltonian.offset + sum(
        alpha * (total / count if count else 0.0)
        for (alpha, _), total, count in zip(hamiltonian.terms, sums, counts)
    )
    return energy, sums, counts


def coverage_probability(pd, pauli: str) -> float:
    """Probability that a basis drawn from the (n, 3) table ``pd`` covers ``pauli``."""
    prob = 1.0
    for qubit, letter in enumerate(pauli):
        if letter != "I":
            prob *= float(pd[qubit]["XYZ".index(letter)])
    return prob


def exact_single_shot_variance(hamiltonian: Hamiltonian, state: StateVector, pd) -> float:
    """Exact variance of the inverse-probability one-shot energy estimator.

    The estimator reweights each covered term's ±1 product by its
    coverage probability under the (n, 3) table ``pd``, which makes a
    single shot unbiased; this routine enumerates every basis (weighted
    by ``pd``) and every outcome (weighted by the exact measurement
    distribution) to compute its variance. Also cross-checks that the
    enumerated mean matches the exact energy to 1e-9. Returns
    ``math.inf`` when some term can never be covered.

    Note: the per-term means of `estimate_energy` condition on coverage
    instead of reweighting. Both are unbiased, but their
    variances differ; this oracle describes the reweighted estimator.
    """
    n = hamiltonian.n
    if n > VARIANCE_ORACLE_MAX_QUBITS:
        raise CapacityError(
            f"variance oracle enumerates 3^n * 2^n states; limit is n <= {VARIANCE_ORACLE_MAX_QUBITS}"
        )
    if len(pd) != n or state.n != n:
        raise ValueError("Hamiltonian, state, and distribution qubit counts differ")

    coverages = np.array([coverage_probability(pd, p) for p in hamiltonian.paulis])
    if np.any(coverages == 0.0):
        return math.inf

    coeffs = hamiltonian.coeffs
    codes = hamiltonian.codes
    outcome_indices = np.arange(2**n)
    # Sign of each term's product for every outcome index: parity of the
    # minus-one readouts at the term's non-identity positions.
    term_masks = np.array(
        [sum(1 << (n - 1 - q) for q in range(n) if p[q] != "I") for p in hamiltonian.paulis],
        dtype=np.int64,
    )
    sign_table = 1.0 - 2.0 * (np.bitwise_count(outcome_indices[:, None] & term_masks[None, :]) & 1)

    mean = 0.0
    second_moment = 0.0
    for letters in itertools.product((1, 2, 3), repeat=n):
        basis = "".join("IXYZ"[code] for code in letters)
        basis_prob = 1.0
        for qubit, code in enumerate(letters):
            basis_prob *= float(pd[qubit][code - 1])
        if basis_prob == 0.0:
            continue
        covered = ~((codes != CODE_I) & (codes != np.array(letters))).any(axis=1)
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
