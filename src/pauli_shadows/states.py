"""Dense pure-state simulation.

``_compile`` turns rows of Pauli letter codes with coefficients into
stacks of flip groups and ``_apply_compiled`` applies them along
contiguous rows of a low block of qubits: one string for
``expectation``, the whole Hamiltonian for ``hamiltonian_expectation``
and ``ground_state``. A stack costs one gather of at most
``_STACK_CELLS`` (2^12) amplitudes and a sum over its groups; a stack of
one group, the only kind from 12 qubits up, skips that sum, which would
only add work there. One rotation kernel, ``_rotate_leading``, which
rotates the leading qubit of each row of an array in place, serves the
exact tables of ``measurement_distribution`` and ``sample_measurement``,
the table-free, breadth-first ``draw_outcomes`` and, as a Hadamard
butterfly, ``_compile``.
Amplitude index convention: qubit 0 is the most significant bit of the
basis-state index.
"""

from __future__ import annotations

import numpy as np

from .paulis import CODE_X, CODE_Y, CODE_Z, Hamiltonian, letter_codes

NORM_TOL = 1e-10
# Wide enough that amplitudes rounded to a few decimals still load;
# anything worse is treated as a corrupt file rather than renormalized.
LOAD_NORM_TOL = 1e-4
MAX_TABLE_QUBITS = 20
# Cap on the amplitudes that one qubit step of ``draw_outcomes`` rotates, unless its shots share one prefix.
_DRAW_CELLS = 1 << 15
_LOW_QUBITS = 7  # qubits in the low block of ``_compile``'s layout: inner loops run over 2^7 amplitudes
_STACK_CELLS = 1 << 12  # amplitudes that one stack of flip groups gathers at most
_BLOCK_ROWS = 32  # Krylov vectors per block of ``ground_state``'s basis

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
        if not abs(norm - 1.0) <= NORM_TOL:  # written so that a NaN norm fails too
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


_SIGMAS = np.array([1, -1], dtype=np.int8)


def sigmas_from_index(index: int, n: int) -> np.ndarray:
    """Map a basis-state index to ±1 readouts (bit 0 -> +1, bit 1 -> -1)."""
    return _SIGMAS[(index >> np.arange(n - 1, -1, -1)) & 1]


# Y|b> = i(-1)^b |1-b> = -i(-1)^(1-b) |1-b>: read on the output index, each Y
# is a Z sign times -i, so a string with y Y letters carries (-i)^y.
_Y_PHASES = np.array([1.0, -1.0j, -1.0, 1.0j])
_Stacks = list[tuple[tuple[slice, ...], np.ndarray, np.ndarray]]  # (flip, perms, d) per stack of flip groups


def _compile(codes: np.ndarray, coeffs: np.ndarray) -> _Stacks:
    """Compile ``O = sum_j coeffs[j] P_j`` over rows of letter codes (I allowed) into stacks of flip groups.

    Rows are grouped by flip (X/Y) mask f, so that ``(O v)[k] = sum_g d_g[k] v[k ^ f_g]`` on the
    (2,)*(n-L) + (2^L,) view of v, whose last axis is the low block of ``L = min(n, _LOW_QUBITS)``
    qubits. A group's d has a size-1 axis on each high qubit where no row of the group has a Y or Z,
    and on the low axis if no row has one there. Every d is a vector over its m stored qubits (its
    supported high ones, then all L low ones if its low axis is 2^L long) in one flat array, in order
    of m, shape and high flip, and is the Walsh-Hadamard transform of the group's coefficients at
    their sign masks: X rotation b of ``_rotate_leading`` turns qubit m - b of each d with m >= b.
    Up to ``G = max(1, _STACK_CELLS >> n)`` adjacent groups of one shape and high flip form a stack
    (flip, perms, d): ``flip`` reverses the flipped high axes, row g of perms is ``j -> j ^ f_low`` of
    group g, and d views the stack's run of the flat array with a G axis before the last. A one-group
    stack, the only kind from n = 12, has a 1-D perm and no G axis: a sum over a G axis of length 1
    made an application on ``wide``'s 12 qubits about 50 % slower.
    """
    n, low = codes.shape[1], min(codes.shape[1], _LOW_QUBITS)
    flips = (codes == CODE_X) | (codes == CODE_Y)
    signs = (codes == CODE_Y) | (codes == CODE_Z)
    coeffs = coeffs * _Y_PHASES[np.count_nonzero(codes == CODE_Y, axis=1) % 4]
    weights = 1 << np.arange(n - 1, -1, -1)
    keys, group = np.unique(flips @ weights, return_inverse=True)
    support = np.bincount((group[:, None] * n + np.arange(n))[signs], minlength=len(keys) * n).reshape(-1, n) > 0
    high_support, widths = support[:, :-low], np.where(support[:, -low:].any(axis=1), low, 0)
    counts = np.count_nonzero(high_support, axis=1) + widths
    shapes = (high_support @ weights[:-low]) * 2 + (widths > 0)
    sizes, order = 1 << counts, np.lexsort((shapes, counts))  # keys are sorted, so high flips are too
    firsts = np.cumsum(sizes[order]) - sizes[order]
    bases = firsts[np.argsort(order)]
    # A sign bit on a high qubit sits above those on the group's later supported high qubits and its low block.
    shifts = np.cumsum(high_support[:, ::-1], axis=1)[:, ::-1] - high_support + widths[:, None]
    flat = np.zeros(int(sizes.sum()), dtype=np.complex128)
    flat[bases[group] + (signs[:, :-low] << shifts[group]).sum(axis=1) + (signs @ weights) % (1 << low)] = coeffs
    starts = firsts[np.searchsorted(counts[order], np.arange(1, counts.max(initial=0) + 1))]
    for bits, start in enumerate(starts.tolist(), 1):
        _rotate_leading(flat[start:].reshape(-1, 1 << bits), CODE_X)
    perms = np.arange(1 << low) ^ (keys % (1 << low))[:, None]
    # Groups of one shape and high flip are adjacent; each such run is cut into stacks of at most cap.
    classes = (shapes[order] << (n - low)) + (keys[order] >> low)
    heads = np.flatnonzero(np.diff(classes, prepend=-1)).tolist() + [len(order)]
    cap, stacks, order = max(1, _STACK_CELLS >> n), [], order.tolist()
    spans = list(zip(keys.tolist(), bases.tolist(), sizes.tolist(), widths.tolist(), high_support.tolist()))
    directions = (slice(None), slice(None, None, -1))  # a high axis as it is, or reversed where it is flipped
    for head, end in zip(heads, heads[1:]):
        for first in range(head, end, cap):
            members = order[first : min(first + cap, end)]
            key, base, size, width, high = spans[members[0]]
            flip = tuple(directions[key >> q & 1] for q in range(n - 1, low - 1, -1))
            shape = [2 if s else 1 for s in high] + [1 << width]
            if len(members) == 1:
                stacks.append((flip, perms[members[0]], flat[base : base + size].reshape(shape)))
            else:
                d = flat[base : base + len(members) * size].reshape([-1] + shape)
                stacks.append((flip, perms[members], np.moveaxis(d, 0, -2)))
    return stacks


def _apply_compiled(amplitudes: np.ndarray, stacks: _Stacks) -> np.ndarray:
    """O v for an operator compiled by ``_compile``: per stack, one gather of the low permutations of the
    contiguous (2^(n-L), 2^L) view of v (a one-group stack's into a reused buffer), then d times its
    reversed high axes, summed over G if G > 1."""
    low = min(amplitudes.size.bit_length() - 1, _LOW_QUBITS)
    rows = amplitudes.reshape(-1, 1 << low)
    buffer, high = np.empty_like(rows), (2,) * (len(rows).bit_length() - 1)
    view = buffer.reshape(high + (1 << low,))
    out = np.zeros_like(view)
    for flip_index, perm, diag in stacks:
        if perm.ndim == 1:
            rows.take(perm, axis=1, out=buffer, mode="clip")  # "clip": no buffered copy of out
            out += diag * view[flip_index]
        else:
            out += (diag * rows.take(perm, axis=1).reshape(high + perm.shape)[flip_index]).sum(axis=-2)
    return out.reshape(-1)


def expectation(state: StateVector, pauli: str) -> float:
    """Exact <psi|P|psi> for the word P (I allowed); always real and in [-1, 1] for a normalized state."""
    codes = letter_codes(pauli)
    if state.n != codes.size:
        raise ValueError(f"length mismatch: state has {state.n} qubits, operator has {codes.size}")
    value = np.vdot(state.amplitudes, _apply_compiled(state.amplitudes, _compile(codes[None], np.ones(1))))
    if abs(value.imag) > NORM_TOL:
        raise ArithmeticError(f"expectation has non-real part {value.imag}")
    return float(min(1.0, max(-1.0, value.real)))


def hamiltonian_expectation(state: StateVector, hamiltonian: Hamiltonian) -> float:
    """Exact energy <psi|H|psi>, including the constant offset."""
    if state.n != hamiltonian.n:
        raise ValueError("state and Hamiltonian qubit counts differ")
    stacks = _compile(hamiltonian.codes, hamiltonian.coeffs)
    value = np.vdot(state.amplitudes, _apply_compiled(state.amplitudes, stacks))
    return float(value.real) + hamiltonian.offset


def _rotate_leading(psi: np.ndarray, code: int) -> None:
    """Rotate the leading qubit of each row of a stack to the computational frame in place (times sqrt(2) unless Z).

    The halves a (bit 0) and b (bit 1) of each 2^m-long row keep their
    place: X makes them (a + b, a - b), Y the same after b *= -i, Z
    leaves them. Products by ±1 or ±i are exact.
    """
    if code != CODE_Z:
        pair = psi.reshape(*psi.shape[:-1], 2, psi.shape[-1] // 2)
        a, b = pair[..., 0, :], pair[..., 1, :]
        if code == CODE_Y:
            b *= -1j
        difference = a - b
        a += b
        b[...] = difference


def measurement_distribution(state: StateVector, basis: str) -> np.ndarray:
    """Exact outcome probabilities of measuring every qubit in the basis word ``basis`` (over XYZ).

    Entry k is the probability of the outcome whose qubit-i readout is
    ``sigmas_from_index(k, n)[i]`` (bit 0 of the index -> +1, bit 1 -> -1,
    qubit 0 as the most significant bit). Entries sum to 1 within 1e-10.
    Qubit q's rotation acts in place on the 2^q rows of a copy of the
    state, so after the last qubit its entries are the table in index order.
    """
    codes = letter_codes(basis)
    if codes.size != state.n or not codes.all():
        raise ValueError(f"a basis of a {state.n}-qubit state is {state.n} letters over XYZ, got {basis!r}")
    if state.n > MAX_TABLE_QUBITS:
        raise CapacityError(f"outcome table needs 2^{state.n} entries; limit is 2^{MAX_TABLE_QUBITS}")
    psi = state.amplitudes.copy()
    for qubit, code in enumerate(codes.tolist()):
        _rotate_leading(psi.reshape(2**qubit, -1), code)
    table = np.abs(psi) ** 2
    table *= 0.5 ** (state.n - basis.count("Z"))  # the sqrt(2) per X/Y rotation, undone exactly
    return table


def sample_measurement(state: StateVector, basis: str, rng: np.random.Generator) -> np.ndarray:
    """Measure every qubit of ``state`` in ``basis``: one inverse-CDF draw, as ``sigmas_from_index`` readouts.

    The state is re-prepared for every call, so sampling is a pure
    function of (state, basis, rng stream).
    """
    cumulative = np.cumsum(measurement_distribution(state, basis))
    cumulative /= cumulative[-1]
    return sigmas_from_index(int(np.searchsorted(cumulative, rng.random(), side="right")), state.n)


def draw_outcomes(state: StateVector, bases: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcome bits of each row of X/Y/Z letter codes in ``bases`` for its uniform in ``u``.

    Bit q of a shot's row in the (shots, n) uint8 result is its qubit-q
    readout, 1 meaning -1. Bits are drawn qubit by qubit, qubit 0 first,
    with no outcome table, in one breadth-first pass over all the shots.
    Shots that share a (letter, bit) prefix share one row of a stack of
    partly rotated vectors. A shot reads bit 1 when its ``u`` times the
    total mass reaches the mass below its prefix plus the mass of bit 0;
    a zero-mass branch is never taken. When a qubit's rotated rows would
    hold more than ``_DRAW_CELLS`` amplitudes, the shots split in two by
    prefix key, and each half goes on from that qubit with the same parents.
    """
    if bases.ndim != 2 or bases.shape[1] != state.n or u.shape != bases.shape[:1]:
        raise ValueError(f"bases must have shape (k, {state.n}) and u (k,), got {bases.shape}, {u.shape}")
    if not ((bases >= CODE_X) & (bases <= CODE_Z)).all():
        raise ValueError("a basis row holds only X/Y/Z letter codes")
    if state.n > MAX_TABLE_QUBITS:
        raise CapacityError(f"the outcome draw supports at most {MAX_TABLE_QUBITS} qubits")
    draws = u * np.vdot(state.amplitudes, state.amplitudes).real  # u times the total mass
    outcomes = np.empty(bases.shape, dtype=np.uint8)
    # A part: its first qubit, its shots, their stack of vectors, a scale per pair of rows of the
    # stack, the row each shot has reached and the mass of the outcomes before each shot's prefix.
    every = np.arange(len(bases))
    parts = [(0, every, state.amplitudes[None], np.ones(1), np.zeros_like(every), np.zeros(len(bases)))]
    while parts:
        first, shots, vectors, scales, node, below = parts.pop()
        for qubit in range(first, state.n):
            keys, child = np.unique(bases[shots, qubit].astype(np.int64) * len(vectors) + node, return_inverse=True)
            if len(keys) > 1 and len(keys) << (state.n - qubit) > _DRAW_CELLS:
                low = child < len(keys) // 2
                parts += [(qubit, shots[half], vectors, scales, node[half], below[half]) for half in (~low, low)]
                break
            codes, parents = np.divmod(keys, len(vectors))  # sorted letter first
            vectors = vectors[parents]  # a row per key, rotated in place letter by letter
            x_end, y_end = np.searchsorted(codes, (CODE_Y, CODE_Z))
            _rotate_leading(vectors[:x_end], CODE_X)
            _rotate_leading(vectors[x_end:y_end], CODE_Y)
            vectors = vectors.reshape(2 * len(keys), -1)  # key k, bit b: row 2k + b
            scales = scales[parents >> 1] * np.where(codes == CODE_Z, 1.0, 0.5)  # undo the sqrt(2) of X/Y
            masses = np.abs(vectors)
            masses **= 2
            masses = masses.sum(axis=-1).reshape(-1, 2) * scales[:, None]
            mass0, mass1 = masses[child, 0], masses[child, 1]
            bit = (mass1 > 0) & (draws[shots] >= below + mass0)  # draws >= below always
            below += np.where(bit, mass0, 0.0)
            outcomes[shots, qubit] = bit
            node = 2 * child + bit
    return outcomes


_LANCZOS_SEED = 0x1A2C05


def ground_state(
    hamiltonian: Hamiltonian, tol: float = 1e-8, max_iter: int = 500
) -> tuple[float, StateVector]:
    """Lowest eigenpair of a Pauli-sum Hamiltonian, computed matrix-free.

    Runs Lanczos from a deterministic seeded start vector, so repeated
    calls return the same state even when the ground space is
    degenerate. Full reorthogonalization is its only orthogonalization:
    two classical Gram-Schmidt passes, one projection per block of the
    basis each. H is compiled once and applied once per iteration; the
    Ritz vector is formed, block by block, only once the residual
    estimate ``|beta_k y_k[-1]|`` reaches ``tol``, and one more
    application confirms it. The returned energy is <psi|H|psi> of the
    returned state plus the offset, and ``|H|psi> - E|psi>| <= tol``.

    The Krylov basis is kept in blocks of ``_BLOCK_ROWS`` vectors, each
    allocated when needed and filled in place. A vector takes 16 * 2^n
    bytes: 64 KiB at 12 qubits, 16 MiB at 20 qubits.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if hamiltonian.n > MAX_TABLE_QUBITS:
        raise CapacityError(f"ground_state supports at most {MAX_TABLE_QUBITS} qubits")

    stacks = _compile(hamiltonian.codes, hamiltonian.coeffs)
    dim = 2**hamiltonian.n
    rng = np.random.default_rng(_LANCZOS_SEED)
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    beta = float(np.linalg.norm(w))
    blocks, diag, offdiag = [], [], []

    for size in range(1, max_iter + 1):  # size: the Krylov vectors stored, w / beta the last
        if (size - 1) % _BLOCK_ROWS == 0:
            blocks.append(np.empty((_BLOCK_ROWS, dim), dtype=np.complex128))
        vector = np.divide(w, beta, out=blocks[-1][(size - 1) % _BLOCK_ROWS])
        w = _apply_compiled(vector, stacks)
        diag.append(float(np.vdot(vector, w).real))
        # Full reorthogonalization, twice for numerical safety, also removes the three-term recurrence's terms.
        for _ in range(2):
            for number, block in enumerate(blocks):
                rows = block[: size - number * _BLOCK_ROWS]
                w -= np.conj(rows @ w.conj()) @ rows
        beta = float(np.linalg.norm(w))

        tri = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
        values, vectors = np.linalg.eigh(tri)
        theta, y = float(values[0]), vectors[:, 0]
        # Past an exhausted Krylov space (beta ~ 0 or full dimension) the Ritz pair cannot improve.
        last = beta < 1e-13 or size == dim or size == max_iter
        if last or abs(beta * y[-1]) <= tol:
            parts = np.split(y, range(_BLOCK_ROWS, size, _BLOCK_ROWS))
            candidate = sum(part @ block[: len(part)] for part, block in zip(parts, blocks))
            candidate /= np.linalg.norm(candidate)
            image = _apply_compiled(candidate, stacks)
            residual = float(np.linalg.norm(image - theta * candidate))
            if residual <= tol:
                return float(np.vdot(candidate, image).real) + hamiltonian.offset, StateVector(candidate)
            if last:
                raise GroundStateConvergenceError(
                    f"Lanczos did not reach residual {tol} within {size} iterations "
                    f"(residual {residual:.3e})",
                    best_energy=theta + hamiltonian.offset,
                    best_residual=residual,
                )

        offdiag.append(beta)


def load_state(text: str, n: int) -> StateVector:
    """Parse a state file: 2^n lines of ``<re> <im>``, qubit 0 as the MSB.

    ``#`` starts a comment and blank lines are skipped. Every file is read
    in one pass: each line is cut at ``#`` and split, and all fields are
    converted at once. Only if a line has a field count other than 0 or 2,
    or a field is not a finite number, are the lines scanned again, to
    name the first bad one. Inputs whose norm deviates from 1 by at most
    ``LOAD_NORM_TOL`` are renormalized; larger deviations (including the
    zero vector) are rejected.
    """
    if n > MAX_TABLE_QUBITS:
        raise CapacityError(f"a state file supports at most {MAX_TABLE_QUBITS} qubits")
    # Lines are kept as strings: 2^n kept lists of fields would set off the garbage collector.
    lines = [raw.partition("#")[0] for raw in text.splitlines()]
    try:
        values = np.array(" ".join(lines).split(), dtype=np.float64)
        valid = set(map(len, map(str.split, lines))) <= {0, 2} and np.isfinite(values).all()
    except ValueError:
        valid = False
    if not valid:  # a second scan names the first bad line, in file order
        for line_number, (raw, fields) in enumerate(zip(text.splitlines(), map(str.split, lines)), start=1):
            if len(fields) not in (0, 2):
                raise ValueError(f"line {line_number}: expected '<re> <im>', got {raw.strip()!r}")
            try:
                pair = np.array(fields, dtype=np.float64)  # the pass's own conversion, so the scan finds its fault
            except ValueError:
                raise ValueError(f"line {line_number}: bad amplitude {raw.strip()!r}") from None
            if not np.isfinite(pair).all():
                raise ValueError(f"line {line_number}: non-finite amplitude")

    expected = 2**n
    if len(values) != 2 * expected:
        raise ValueError(f"expected {expected} amplitude lines for n={n}, found {len(values) // 2}")
    amps = values.view(np.complex128)  # (re, im) pairs
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > LOAD_NORM_TOL:
        raise ValueError(f"state norm {norm} deviates from 1 by more than {LOAD_NORM_TOL}")
    return StateVector(amps / norm)
