"""Dense pure-state simulation.

Provides Pauli expectations, sampling of product-basis measurement
outcomes, exact outcome distributions for small systems, and a
matrix-free Lanczos ground-state solver. Amplitude index convention:
qubit 0 is the most significant bit of the basis-state index.
"""

from __future__ import annotations

import math

import numpy as np

from .paulis import CODE_X, CODE_Y, CODE_Z, Hamiltonian, MeasurementBasis, PauliOp

NORM_TOL = 1e-10
# Wide enough that amplitudes rounded to a few decimals still load;
# anything worse is treated as a corrupt file rather than renormalized.
LOAD_NORM_TOL = 1e-4
MAX_TABLE_QUBITS = 20

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
        if (np.abs(arr) != 1).any():
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


_SIGMAS = np.array([1, -1], dtype=np.int8)


def sigmas_from_index(index: int, n: int) -> np.ndarray:
    """Map a basis-state index to ±1 readouts (bit 0 -> +1, bit 1 -> -1)."""
    return _SIGMAS[(index >> np.arange(n - 1, -1, -1)) & 1]


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


# Y|b> = i(-1)^b |1-b> = -i(-1)^(1-b) |1-b>: read on the output index, each Y
# is a Z sign times -i, so a term with y Y letters carries (-i)^y.
_Y_PHASES = np.array([1.0, -1.0j, -1.0, 1.0j])


def _compile_hamiltonian(hamiltonian: Hamiltonian) -> list[tuple[tuple[slice, ...], np.ndarray]]:
    """Group H's terms by flip (X/Y) mask f, so that ``(H v)[k] = sum_g d_g[k] v[k ^ f_g]``.

    Each group is (flip, d): ``flip`` indexes the (2,)*n view of v so
    that it reverses the flipped qubits' axes, which reads v[k ^ f]. d
    depends only on the qubits where some term of the group has a Y or
    Z, so it is stored over those alone, with size-1 axes elsewhere, as
    the Walsh-Hadamard transform of the group's coefficients placed at
    their sign masks. The offset is not included.
    """
    codes = hamiltonian.codes
    flips = (codes == CODE_X) | (codes == CODE_Y)
    signs = (codes == CODE_Y) | (codes == CODE_Z)
    coeffs = hamiltonian.coeffs * _Y_PHASES[np.count_nonzero(codes == CODE_Y, axis=1) % 4]
    rows_of: dict[bytes, list[int]] = {}
    for row, flip in enumerate(flips):
        rows_of.setdefault(flip.tobytes(), []).append(row)
    groups = []
    for rows in rows_of.values():
        support = signs[rows].any(axis=0)
        m = int(np.count_nonzero(support))
        weights = 1 << np.arange(m - 1, -1, -1)
        diag = np.zeros(2**m, dtype=np.complex128)
        diag[signs[rows][:, support] @ weights] = coeffs[rows]  # strings of a group differ in signs
        for qubit in range(m):
            block = diag.reshape(2**qubit, 2, -1)
            diag = np.concatenate((block[:, :1] + block[:, 1:], block[:, :1] - block[:, 1:]), axis=1)
        flip_index = tuple(slice(None, None, -1) if f else slice(None) for f in flips[rows[0]])
        groups.append((flip_index, diag.reshape([2 if q else 1 for q in support])))
    return groups


def _apply_compiled(amplitudes: np.ndarray, groups: list[tuple[tuple[slice, ...], np.ndarray]]) -> np.ndarray:
    """H v for a Hamiltonian compiled by ``_compile_hamiltonian``, excluding the offset."""
    psi = amplitudes.reshape((2,) * (amplitudes.size.bit_length() - 1))
    out = np.zeros_like(psi)
    for flip_index, diag in groups:
        out += diag * psi[flip_index]
    return out.reshape(-1)


def _apply_hamiltonian_raw(amplitudes: np.ndarray, hamiltonian: Hamiltonian) -> np.ndarray:
    """H v excluding the offset, compiled for this one application."""
    return _apply_compiled(amplitudes, _compile_hamiltonian(hamiltonian))


def hamiltonian_expectation(state: StateVector, hamiltonian: Hamiltonian) -> float:
    """Exact energy <psi|H|psi>, including the constant offset."""
    if state.n != hamiltonian.n:
        raise ValueError("state and Hamiltonian qubit counts differ")
    value = np.vdot(state.amplitudes, _apply_hamiltonian_raw(state.amplitudes, hamiltonian))
    return float(value.real) + hamiltonian.offset


def _rotate_leading(psi: np.ndarray, code: int) -> np.ndarray:
    """Rotate the leading qubit to the computational frame (times sqrt(2) unless Z) and make it last.

    The halves a (bit 0) and b (bit 1) become the columns of a (half, 2)
    output: X is (a + b, a - b), Y the same after b *= -i, Z a plain move.
    Every product is by ±1 or ±i, so each step is exact.
    """
    half = psi.size // 2
    a, b = psi[:half], psi[half:]
    out = np.empty((half, 2), dtype=np.complex128)
    if code == CODE_Z:
        out[:, 0], out[:, 1] = a, b
    else:
        if code == CODE_Y:
            b = b * -1j
        np.add(a, b, out=out[:, 0])
        np.subtract(a, b, out=out[:, 1])
    return out.reshape(-1)


def measurement_distributions(state: StateVector, rows: np.ndarray, cumulative: bool = False):
    """Yield the outcome table of each row of letter codes (its normalized cumsum if ``cumulative``).

    A table rotates the n qubits in turn with ``_rotate_leading``, which
    leaves the amplitudes in their original order. A stack keeps the n + 1
    partially rotated states (16 * 2^n bytes each), and each row restarts
    at its first letter that differs from the previous row's, so rows in
    lexicographic order share their rotated prefixes.
    """
    n = state.n
    if n > MAX_TABLE_QUBITS:
        raise CapacityError(f"outcome table needs 2^{n} entries; limit is 2^{MAX_TABLE_QUBITS}")
    stack = [state.amplitudes]
    previous: list[int] = []
    for row in rows:
        codes = row.tolist()
        depth = next((q for q, (old, new) in enumerate(zip(previous, codes)) if old != new), len(previous))
        del stack[depth + 1 :]
        for code in codes[depth:]:
            stack.append(_rotate_leading(stack[-1], code))
        previous = codes
        table = np.abs(stack[-1]) ** 2
        table *= 0.5 ** (n - codes.count(CODE_Z))  # the sqrt(2) per X/Y rotation, undone exactly
        if cumulative:
            table = np.cumsum(table)
            table /= table[-1]
        yield table


def measurement_distribution(state: StateVector, basis: MeasurementBasis) -> np.ndarray:
    """Exact outcome probabilities of measuring every qubit in ``basis``.

    Entry k is the probability of the outcome whose qubit-i readout is
    ``sigmas_from_index(k, n)[i]`` (bit 0 of the index -> +1, bit 1 -> -1,
    qubit 0 as the most significant bit). Entries sum to 1 within 1e-10.
    The one-row case of ``measurement_distributions``.
    """
    _check_lengths(state, basis)
    return next(measurement_distributions(state, basis.codes[None]))


def measurement_cumulative(state: StateVector, basis: MeasurementBasis) -> np.ndarray:
    """Normalized cumulative outcome distribution used for inverse-CDF sampling."""
    _check_lengths(state, basis)
    return next(measurement_distributions(state, basis.codes[None], cumulative=True))


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
    when the ground space is degenerate. H is compiled once and applied
    once per iteration; the Ritz vector is formed only once the residual
    estimate ``|beta_k y_k[-1]|`` reaches ``tol``, and one more
    application confirms it. The returned energy includes the constant
    offset and satisfies ``|H|psi> - E|psi>| <= tol``.

    The Krylov basis keeps one 16 * 2^n-byte vector per iteration: 64 KiB
    at 12 qubits, 16 MiB at 20 qubits.
    """
    if hamiltonian.n > MAX_TABLE_QUBITS:
        raise CapacityError(f"ground_state supports at most {MAX_TABLE_QUBITS} qubits")
    if hamiltonian.n_terms == 0:
        return hamiltonian.offset, StateVector.zero_state(hamiltonian.n)

    groups = _compile_hamiltonian(hamiltonian)
    dim = 2**hamiltonian.n
    rng = np.random.default_rng(_LANCZOS_SEED)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    start /= np.linalg.norm(start)

    basis_vectors: list[np.ndarray] = [start]
    diag: list[float] = []
    offdiag: list[float] = []

    w = _apply_compiled(start, groups)
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
        beta = float(np.linalg.norm(w))

        tri = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
        values, vectors = np.linalg.eigh(tri)
        theta, y = float(values[0]), vectors[:, 0]
        # Krylov space exhausted: the Ritz pair cannot improve further.
        exhausted = beta < 1e-13 or len(basis_vectors) == dim
        last = exhausted or iteration == max_iter - 1
        if last or abs(beta * y[-1]) <= tol:
            candidate = np.zeros(dim, dtype=np.complex128)
            for coeff, u in zip(y, basis_vectors):
                candidate += coeff * u
            candidate /= np.linalg.norm(candidate)
            residual = float(np.linalg.norm(_apply_compiled(candidate, groups) - theta * candidate))
            if residual <= tol:
                return theta + hamiltonian.offset, StateVector(candidate)
            if last:
                raise GroundStateConvergenceError(
                    f"Lanczos did not reach residual {tol} within {iteration + 1} iterations "
                    f"(residual {residual:.3e})",
                    best_energy=theta + hamiltonian.offset,
                    best_residual=residual,
                )

        offdiag.append(beta)
        basis_vectors.append(w / beta)
        w = _apply_compiled(basis_vectors[-1], groups)
    raise GroundStateConvergenceError(
        f"Lanczos ran no iteration (max_iter={max_iter})", best_energy=np.inf, best_residual=np.inf
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
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
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
