"""Pauli strings, the covering relation, and Hamiltonian file ingestion.

Letters are stored as per-qubit integer codes (I=0, X=1, Y=2, Z=3) in
read-only uint8 arrays, so equality checks and covering tests are single
vectorized passes over the string.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

LETTERS = "IXYZ"
CODE_I, CODE_X, CODE_Y, CODE_Z = 0, 1, 2, 3

# Coefficients whose magnitude falls below this after merging duplicate
# strings are treated as exact cancellations and dropped.
MERGE_THRESHOLD = 1e-12

_CODE_OF = {letter: code for code, letter in enumerate(LETTERS)}


class HamiltonianFormatError(ValueError):
    """A Hamiltonian file line could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyHamiltonianError(ValueError):
    """Parsing left no terms and no constant offset (e.g. full cancellation)."""


def _as_codes(letters, allowed_min: int) -> np.ndarray:
    """Normalize a letter spec (string, code sequence, or array) to uint8 codes."""
    if isinstance(letters, str):
        try:
            codes = np.array([_CODE_OF[ch] for ch in letters], dtype=np.uint8)
        except KeyError as exc:
            raise ValueError(f"invalid Pauli letter {exc.args[0]!r}") from None
    else:
        codes = np.array(letters, dtype=np.uint8)
        if codes.ndim != 1:
            raise ValueError("letter codes must be one-dimensional")
        if codes.size and codes.max(initial=0) > CODE_Z:
            raise ValueError("letter codes must lie in {0, 1, 2, 3}")
    if codes.size < 1:
        raise ValueError("a Pauli string needs at least one qubit")
    if codes.size and codes.min() < allowed_min:
        raise ValueError("identity letters are not allowed here")
    codes.setflags(write=False)
    return codes


class PauliOp:
    """An n-qubit Pauli string over {I, X, Y, Z}, qubit 0 first.

    Immutable and hashable, so strings can key dictionaries; hashing and
    equality cost O(n).

    >>> p = PauliOp("XIZ")
    >>> p.weight()
    2
    """

    __slots__ = ("codes", "_hash")

    def __init__(self, letters: str | Sequence[int] | np.ndarray):
        if isinstance(letters, PauliOp):
            self.codes = letters.codes
        else:
            self.codes = _as_codes(letters, allowed_min=CODE_I)
        self._hash = None

    @property
    def n(self) -> int:
        return self.codes.size

    def weight(self) -> int:
        """Number of non-identity letters."""
        return int(np.count_nonzero(self.codes))

    def is_identity(self) -> bool:
        return not self.codes.any()

    def __len__(self) -> int:
        return self.codes.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOp):
            return NotImplemented
        return np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.codes.tobytes())
        return self._hash

    def __str__(self) -> str:
        return "".join(LETTERS[c] for c in self.codes)

    def __repr__(self) -> str:
        return f"PauliOp({str(self)!r})"

    def __reduce__(self):
        # Rebuild from the letter string so cached hashes never cross
        # process boundaries (str hashing is per-process).
        return (self.__class__, (str(self),))


class MeasurementBasis:
    """A product measurement setting: one letter from {X, Y, Z} per qubit."""

    __slots__ = ("codes",)

    def __init__(self, letters: str | Sequence[int] | np.ndarray):
        if isinstance(letters, MeasurementBasis):
            self.codes = letters.codes
        else:
            self.codes = _as_codes(letters, allowed_min=CODE_X)

    @property
    def n(self) -> int:
        return self.codes.size

    def __len__(self) -> int:
        return self.codes.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasurementBasis):
            return NotImplemented
        return np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash((MeasurementBasis, self.codes.tobytes()))

    def __str__(self) -> str:
        return "".join(LETTERS[c] for c in self.codes)

    def __repr__(self) -> str:
        return f"MeasurementBasis({str(self)!r})"

    def __reduce__(self):
        return (self.__class__, (str(self),))


def covers(basis: MeasurementBasis, pauli: PauliOp) -> bool:
    """True iff every non-identity letter of ``pauli`` matches ``basis``.

    A covered observable can be read off from the measurement record of
    ``basis``; an uncovered one cannot.
    """
    if basis.n != pauli.n:
        raise ValueError(f"length mismatch: basis has {basis.n} qubits, Pauli has {pauli.n}")
    p = pauli.codes
    return bool(np.all((p == CODE_I) | (p == basis.codes)))


class Hamiltonian:
    """A real linear combination of Pauli strings on n qubits.

    ``terms`` holds the non-identity strings with their coefficients; the
    all-identity component, if any, lives in ``offset`` (it is covered by
    every basis and measured with zero variance, so estimators add it back
    as an exact constant).

    Instances are immutable; the cached ``coeffs``/``codes`` arrays give
    samplers and estimators vectorized access to all terms at once.
    """

    __slots__ = ("n", "terms", "offset", "coeffs", "codes")

    def __init__(self, n: int, terms: Iterable[tuple[float, PauliOp]], offset: float = 0.0):
        if n < 1:
            raise ValueError("a Hamiltonian needs at least one qubit")
        if not np.isfinite(offset):
            raise ValueError("constant offset must be finite")
        term_list: list[tuple[float, PauliOp]] = []
        seen: set[PauliOp] = set()
        for alpha, pauli in terms:
            alpha = float(alpha)
            if not np.isfinite(alpha) or alpha == 0.0:
                raise ValueError(f"coefficient of {pauli} must be finite and nonzero")
            if pauli.n != n:
                raise ValueError(f"term {pauli} has length {pauli.n}, expected {n}")
            if pauli.is_identity():
                raise ValueError("the all-identity string belongs in the offset, not in terms")
            if pauli in seen:
                raise ValueError(f"duplicate term {pauli}")
            seen.add(pauli)
            term_list.append((alpha, pauli))

        self.n = int(n)
        self.terms = tuple(term_list)
        self.offset = float(offset)
        self.coeffs = np.array([a for a, _ in term_list], dtype=np.float64)
        codes = np.zeros((len(term_list), n), dtype=np.uint8)
        for row, (_, pauli) in enumerate(term_list):
            codes[row] = pauli.codes
        self.coeffs.setflags(write=False)
        codes.setflags(write=False)
        self.codes = codes

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def paulis(self) -> tuple[PauliOp, ...]:
        return tuple(p for _, p in self.terms)

    def __repr__(self) -> str:
        return f"Hamiltonian(n={self.n}, n_terms={self.n_terms}, offset={self.offset})"

    def __reduce__(self):
        return (self.__class__, (self.n, list(self.terms), self.offset))


def parse_hamiltonian(text: str) -> Hamiltonian:
    """Parse the one-term-per-line Hamiltonian format.

    Each line is ``<coefficient> <pauli-string>`` with the string a word
    over {I, X, Y, Z}; ``#`` starts a comment and blank lines are skipped.
    All strings must share one length, which defines the qubit count.
    Duplicate strings are merged by summing coefficients; merged
    coefficients below ``MERGE_THRESHOLD`` in magnitude are dropped.
    """
    n: int | None = None
    merged: dict[str, float] = {}
    order: list[str] = []

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise HamiltonianFormatError(
                f"expected '<coefficient> <pauli-string>', got {raw.strip()!r}", line_number
            )
        coeff_text, word = fields
        try:
            alpha = float(coeff_text)
        except ValueError:
            raise HamiltonianFormatError(f"bad coefficient {coeff_text!r}", line_number) from None
        if not np.isfinite(alpha):
            raise HamiltonianFormatError(f"non-finite coefficient {coeff_text!r}", line_number)
        bad = set(word) - set(LETTERS)
        if bad:
            raise HamiltonianFormatError(
                f"bad letter {sorted(bad)[0]!r} in Pauli string {word!r}", line_number
            )
        if n is None:
            n = len(word)
        elif len(word) != n:
            raise HamiltonianFormatError(
                f"Pauli string {word!r} has length {len(word)}, expected {n}", line_number
            )
        if word not in merged:
            merged[word] = 0.0
            order.append(word)
        merged[word] += alpha

    if n is None:
        raise EmptyHamiltonianError("no Hamiltonian terms found")

    offset = 0.0
    terms: list[tuple[float, PauliOp]] = []
    identity = "I" * n
    for word in order:
        alpha = merged[word]
        if abs(alpha) < MERGE_THRESHOLD:
            continue
        if word == identity:
            offset = alpha
        else:
            terms.append((alpha, PauliOp(word)))

    if not terms and offset == 0.0:
        raise EmptyHamiltonianError("all terms cancelled or fell below the merge threshold")
    return Hamiltonian(n, terms, offset=offset)


def serialize_hamiltonian(hamiltonian: Hamiltonian) -> str:
    """Render a Hamiltonian back into the text format parsed by `parse_hamiltonian`."""
    lines = []
    if hamiltonian.offset != 0.0:
        lines.append(f"{hamiltonian.offset!r} {'I' * hamiltonian.n}")
    for alpha, pauli in hamiltonian.terms:
        lines.append(f"{alpha!r} {pauli}")
    return "\n".join(lines) + "\n"


def load_hamiltonian(path) -> Hamiltonian:
    """Read and parse a Hamiltonian file, adding the filename to any error.

    The error keeps its type and attributes, so a format error still
    carries its ``line_number``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse_hamiltonian(text)
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
