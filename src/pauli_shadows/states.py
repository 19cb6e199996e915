"""Dense pure-state simulation.

Provides Pauli expectations, sampling of product-basis measurement
outcomes, exact outcome distributions for small systems, and a
matrix-free Lanczos ground-state solver. Amplitude index convention:
qubit 0 is the most significant bit of the basis-state index.
"""

from __future__ import annotations

import numpy as np

from .paulis import CODE_X, CODE_Y, CODE_Z, Hamiltonian, MeasurementBasis, PauliOp

NORM_TOL = 1e-10
# Wide enough that amplitudes rounded to a few decimals still load;
# anything worse is treated as a corrupt file rather than renormalized.
LOAD_NORM_TOL = 1e-4
MAX_TABLE_QUBITS = 20

# Rotations into the computational frame, each times sqrt(2), written as
# [[1, a], [1, b]]: the Hadamard for X, phase-dagger then Hadamard for Y.
# Entry k of the column (a, b) scales the bit-1 amplitude in output bit k.
_HALF_SLICE_FACTORS = {
    CODE_X: np.array([[1.0], [-1.0]], dtype=np.complex128),
    CODE_Y: np.array([[-1.0j], [1.0j]], dtype=np.complex128),
}


class CapacityError(ValueError):
    """The requested dense table would exceed the supported qubit count."""


class GroundStateConvergenceError(RuntimeError):
    """Lanczos failed to reach the requested residual."""

    def __init__(self, message: str, best_energy: float, best_residual: float):
        super().__init__(message)
        self.best_energy = best_energy
        self.best_residual = best_residual


class StateVector:
    """A normalized pure state of n qubits as 2^n complex amplitudes."""

    __slots__ = ("n", "amplitudes")

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
            raise ValueError("amplitude vector length must be a power of two, at least 2")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        self.amplitudes = amps
        self.n = amps.size.bit_length() - 1

    @classmethod
    def zero_state(cls, n: int) -> "StateVector":
        """The computational basis state |0...0>."""
        amps = np.zeros(2**n, dtype=np.complex128)
        amps[0] = 1.0
        return cls(amps)

    def __repr__(self) -> str:
        return f"StateVector(n={self.n})"


class ShotOutcome:
    """Per-qubit ±1 eigenvalue readouts from one product-basis measurement."""

    __slots__ = ("sigmas",)

    def __init__(self, sigmas):
        arr = np.asarray(sigmas, dtype=np.int8)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("sigmas must be a non-empty vector")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("each sigma must be +1 or -1")
        arr = arr.copy()
        arr.setflags(write=False)
        self.sigmas = arr

    def __len__(self) -> int:
        return self.sigmas.size

    def __iter__(self):
        return iter(int(s) for s in self.sigmas)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShotOutcome):
            return NotImplemented
        return np.array_equal(self.sigmas, other.sigmas)

    def __repr__(self) -> str:
        return f"ShotOutcome({tuple(int(s) for s in self.sigmas)})"


def sigmas_from_index(index: int, n: int) -> np.ndarray:
    """Map a basis-state index to ±1 readouts (bit 0 -> +1, bit 1 -> -1)."""
    shifts = np.arange(n - 1, -1, -1)
    bits = (index >> shifts) & 1
    return (1 - 2 * bits).astype(np.int8)


def _check_lengths(state: StateVector, op) -> None:
    if state.n != op.n:
        raise ValueError(f"length mismatch: state has {state.n} qubits, operator has {op.n}")


def _pauli_masks(codes: np.ndarray) -> tuple[int, int, int]:
    """Bit masks (flip, sign, y_count) for applying a Pauli string by index arithmetic."""
    n = codes.size
    flip = 0
    sign = 0
    y_count = 0
    for qubit, code in enumerate(codes):
        bit = 1 << (n - 1 - qubit)
        if code == CODE_X:
            flip |= bit
        elif code == CODE_Y:
            flip |= bit
            sign |= bit
            y_count += 1
        elif code == CODE_Z:
            sign |= bit
    return flip, sign, y_count


def _apply_pauli_raw(amplitudes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Apply a Pauli string to a raw amplitude vector (no normalization checks)."""
    flip, sign, y_count = _pauli_masks(codes)
    dim = amplitudes.size
    indices = np.arange(dim)
    parity = np.bitwise_count(indices & sign) & 1
    phases = (1.0 - 2.0 * parity) * (1j ** (y_count % 4))
    out = np.empty_like(amplitudes)
    out[indices ^ flip] = amplitudes * phases
    return out


def apply_pauli(state: StateVector, pauli: PauliOp) -> StateVector:
    """Return P|psi> with the standard phases (Y|0> = i|1>, Y|1> = -i|0>)."""
    _check_lengths(state, pauli)
    return StateVector(_apply_pauli_raw(state.amplitudes, pauli.codes))


def expectation(state: StateVector, pauli: PauliOp) -> float:
    """Exact <psi|P|psi>; always real and in [-1, 1] for a normalized state."""
    _check_lengths(state, pauli)
    value = np.vdot(state.amplitudes, _apply_pauli_raw(state.amplitudes, pauli.codes))
    if abs(value.imag) > NORM_TOL:
        raise ArithmeticError(f"expectation has non-real part {value.imag}")
    return float(min(1.0, max(-1.0, value.real)))


def _apply_hamiltonian_raw(amplitudes: np.ndarray, hamiltonian: Hamiltonian) -> np.ndarray:
    """Sum of coefficient-weighted Pauli applications, excluding the offset."""
    out = np.zeros_like(amplitudes)
    for alpha, pauli in hamiltonian.terms:
        out += alpha * _apply_pauli_raw(amplitudes, pauli.codes)
    return out


def hamiltonian_expectation(state: StateVector, hamiltonian: Hamiltonian) -> float:
    """Exact energy <psi|H|psi>, including the constant offset."""
    if state.n != hamiltonian.n:
        raise ValueError("state and Hamiltonian qubit counts differ")
    value = np.vdot(state.amplitudes, _apply_hamiltonian_raw(state.amplitudes, hamiltonian))
    return float(value.real) + hamiltonian.offset


def measurement_distribution(state: StateVector, basis: MeasurementBasis) -> np.ndarray:
    """Exact outcome probabilities of measuring every qubit in ``basis``.

    Entry k is the probability of the outcome whose qubit-i readout is
    ``sigmas_from_index(k, n)[i]`` (bit 0 of the index -> +1, bit 1 -> -1,
    qubit 0 as the most significant bit). Entries sum to 1 within 1e-10.
    """
    _check_lengths(state, basis)
    if state.n > MAX_TABLE_QUBITS:
        raise CapacityError(f"outcome table needs 2^{state.n} entries; limit is 2^{MAX_TABLE_QUBITS}")
    psi = state.amplitudes
    rotations = 0
    for qubit, code in enumerate(basis.codes.tolist()):
        if code == CODE_Z:
            continue
        # Both half-slices of the qubit's axis at once: bit-0 + (a, b) * bit-1.
        block = psi.reshape(2**qubit, 2, -1)
        psi = (block[:, 1:] * _HALF_SLICE_FACTORS[code] + block[:, :1]).reshape(-1)
        rotations += 1
    probs = np.abs(psi) ** 2
    probs *= 0.5**rotations  # the sqrt(2) per rotation, undone exactly
    return probs


def measurement_cumulative(state: StateVector, basis: MeasurementBasis) -> np.ndarray:
    """Normalized cumulative outcome distribution used for inverse-CDF sampling."""
    cumulative = np.cumsum(measurement_distribution(state, basis))
    cumulative /= cumulative[-1]
    return cumulative


def sample_measurement(state: StateVector, basis: MeasurementBasis, rng: np.random.Generator) -> ShotOutcome:
    """Measure every qubit of ``state`` in ``basis``, returning ±1 readouts.

    The state is re-prepared for every call, so sampling is a pure
    function of (state, basis, rng stream).
    """
    index = int(np.searchsorted(measurement_cumulative(state, basis), rng.random(), side="right"))
    return ShotOutcome(sigmas_from_index(index, state.n))


_LANCZOS_SEED = 0x1A2C05


def ground_state(
    hamiltonian: Hamiltonian, tol: float = 1e-8, max_iter: int = 500
) -> tuple[float, StateVector]:
    """Lowest eigenpair of a Pauli-sum Hamiltonian, computed matrix-free.

    Runs Lanczos with full reorthogonalization from a deterministic
    seeded start vector, so repeated calls return the same state even
    when the ground space is degenerate. The returned energy includes the
    constant offset and satisfies ``|H|psi> - E|psi>| <= tol``.
    """
    if hamiltonian.n > MAX_TABLE_QUBITS:
        raise CapacityError(f"ground_state supports at most {MAX_TABLE_QUBITS} qubits")
    if hamiltonian.n_terms == 0:
        return hamiltonian.offset, StateVector.zero_state(hamiltonian.n)

    dim = 2**hamiltonian.n
    rng = np.random.default_rng(_LANCZOS_SEED)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    start /= np.linalg.norm(start)

    basis_vectors: list[np.ndarray] = [start]
    diag: list[float] = []
    offdiag: list[float] = []
    best_energy = np.inf
    best_residual = np.inf

    def ritz_ground() -> tuple[float, np.ndarray]:
        k = len(diag)
        tri = np.diag(np.asarray(diag))
        if k > 1:
            off = np.asarray(offdiag[: k - 1])
            tri += np.diag(off, 1) + np.diag(off, -1)
        values, vectors = np.linalg.eigh(tri)
        return float(values[0]), vectors[:, 0]

    w = _apply_hamiltonian_raw(basis_vectors[0], hamiltonian)
    for iteration in range(max_iter):
        v = basis_vectors[-1]
        alpha = float(np.vdot(v, w).real)
        diag.append(alpha)
        w = w - alpha * v
        if len(basis_vectors) > 1:
            w = w - offdiag[-1] * basis_vectors[-2]
        # Full reorthogonalization, twice for numerical safety.
        for _ in range(2):
            for u in basis_vectors:
                w = w - np.vdot(u, w) * u

        theta, y = ritz_ground()
        candidate = np.zeros(dim, dtype=np.complex128)
        for coeff, u in zip(y, basis_vectors):
            candidate += coeff * u
        candidate /= np.linalg.norm(candidate)
        residual = float(np.linalg.norm(_apply_hamiltonian_raw(candidate, hamiltonian) - theta * candidate))
        if residual < best_residual:
            best_residual = residual
            best_energy = theta + hamiltonian.offset
        if residual <= tol:
            return theta + hamiltonian.offset, StateVector(candidate)

        beta = float(np.linalg.norm(w))
        if beta < 1e-13 or len(basis_vectors) == dim:
            # Krylov space exhausted; the Ritz pair cannot improve further.
            break
        offdiag.append(beta)
        basis_vectors.append(w / beta)
        w = _apply_hamiltonian_raw(basis_vectors[-1], hamiltonian)

    raise GroundStateConvergenceError(
        f"Lanczos did not reach residual {tol} within {max_iter} iterations "
        f"(best residual {best_residual:.3e})",
        best_energy=best_energy,
        best_residual=best_residual,
    )


def load_state(text: str, n: int) -> StateVector:
    """Parse a state file: 2^n lines of ``<re> <im>``, qubit 0 as the MSB.

    ``#`` starts a comment and blank lines are skipped. Inputs whose norm
    deviates from 1 by at most ``LOAD_NORM_TOL`` are renormalized; larger
    deviations (including the zero vector) are rejected.
    """
    values: list[complex] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {line_number}: expected '<re> <im>', got {raw.strip()!r}")
        try:
            re_part, im_part = float(fields[0]), float(fields[1])
        except ValueError:
            raise ValueError(f"line {line_number}: bad amplitude {raw.strip()!r}") from None
        if not (np.isfinite(re_part) and np.isfinite(im_part)):
            raise ValueError(f"line {line_number}: non-finite amplitude")
        values.append(complex(re_part, im_part))

    expected = 2**n
    if len(values) != expected:
        raise ValueError(f"expected {expected} amplitude lines for n={n}, found {len(values)}")
    amps = np.asarray(values, dtype=np.complex128)
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > LOAD_NORM_TOL:
        raise ValueError(f"state norm {norm} deviates from 1 by more than {LOAD_NORM_TOL}")
    return StateVector(amps / norm)
