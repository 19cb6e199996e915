"""Pauli words and Hamiltonian file ingestion.

A Pauli word is a plain ``str`` over IXYZ, qubit 0 first, and a
measurement basis is a word over XYZ; words compare, hash and print as
strings. ``letter_codes`` is the one check a word passes on its way to
the numeric code: it returns the per-qubit codes I=0, X=1, Y=2, Z=3 as
a read-only uint8 array. A ``Hamiltonian`` keeps its terms as
(coefficient, word) pairs and their codes as one (terms, n) array, and
``keep_table`` states the covering rule on such codes, once for all.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

LETTERS = "IXYZ"
CODE_I, CODE_X, CODE_Y, CODE_Z = 0, 1, 2, 3

# Coefficients whose magnitude falls below this after merging duplicate
# strings are treated as exact cancellations and dropped.
MERGE_THRESHOLD = 1e-12

_TO_CODE = str.maketrans({letter: chr(code) for code, letter in enumerate(LETTERS)})


class HamiltonianFormatError(ValueError):
    """A Hamiltonian file line could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyHamiltonianError(ValueError):
    """Parsing left no terms and no constant offset (e.g. full cancellation)."""


def letter_codes(word: str) -> np.ndarray:
    """Per-qubit codes of a Pauli word over IXYZ, qubit 0 first, as read-only uint8.

    Raises ``ValueError`` unless ``word`` is a nonempty ``str`` over IXYZ.

    >>> letter_codes("XIZ")
    array([1, 0, 3], dtype=uint8)
    """
    if not isinstance(word, str) or not word:
        raise ValueError(f"a Pauli word is a nonempty str over IXYZ, got {word!r}")
    rest = word.strip(LETTERS)  # empty iff every letter lies in IXYZ
    if rest:
        raise ValueError(f"invalid Pauli letter {rest[0]!r} in {word!r}")
    # A view of immutable bytes, so the array is read-only.
    return np.frombuffer(word.translate(_TO_CODE).encode(), dtype=np.uint8)


def keep_table(codes: np.ndarray) -> np.ndarray:
    """C-contiguous (n, 3, terms) bool keep[q, l, t]: term t has I or letter code l + 1 at qubit q.

    A basis covers term t iff keep[q, its code at q - 1, t] holds at every qubit q.
    """
    columns = np.ascontiguousarray(codes.T)[:, None, :]  # (n, 1, terms)
    return (columns == CODE_I) | (columns == np.array([[CODE_X], [CODE_Y], [CODE_Z]]))


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

    def __init__(self, n: int, terms: Iterable[tuple[float, str]], offset: float = 0.0):
        if n < 1:
            raise ValueError("a Hamiltonian needs at least one qubit")
        if not np.isfinite(offset):
            raise ValueError("constant offset must be finite")
        coeff_of: dict[str, float] = {}
        for alpha, word in terms:
            alpha = float(alpha)
            codes = letter_codes(word)
            if not math.isfinite(alpha) or alpha == 0.0:
                raise ValueError(f"coefficient of {word} must be finite and nonzero")
            if codes.size != n:
                raise ValueError(f"term {word} has length {codes.size}, expected {n}")
            if not word.strip("I"):
                raise ValueError("the all-identity string belongs in the offset, not in terms")
            if word in coeff_of:
                raise ValueError(f"duplicate term {word}")
            coeff_of[word] = alpha

        self.n = int(n)
        self.terms = tuple((alpha, word) for word, alpha in coeff_of.items())
        self.offset = float(offset)
        self.coeffs = np.array(list(coeff_of.values()), dtype=np.float64)
        self.coeffs.setflags(write=False)
        self.codes = np.frombuffer("".join(coeff_of).translate(_TO_CODE).encode(), dtype=np.uint8).reshape(-1, n)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def paulis(self) -> tuple[str, ...]:
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
    merged: dict[str, float] = {}  # word -> summed coefficient, in order of first appearance

    for line_number, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 2:
            raise HamiltonianFormatError(
                f"expected '<coefficient> <pauli-string>', got {raw.strip()!r}", line_number
            )
        coeff_text, word = fields
        try:
            alpha = float(coeff_text)
        except ValueError:
            raise HamiltonianFormatError(f"bad coefficient {coeff_text!r}", line_number) from None
        if not math.isfinite(alpha):
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
        merged[word] = merged.get(word, 0.0) + alpha

    if n is None:
        raise EmptyHamiltonianError("no Hamiltonian terms found")

    offset = merged.pop("I" * n, 0.0)
    offset = offset if abs(offset) >= MERGE_THRESHOLD else 0.0
    terms = [(alpha, word) for word, alpha in merged.items() if abs(alpha) >= MERGE_THRESHOLD]

    if not terms and offset == 0.0:
        raise EmptyHamiltonianError("all terms cancelled or fell below the merge threshold")
    return Hamiltonian(n, terms, offset=offset)


def read_file(path, parse, *args):
    """Return ``parse(text, *args)`` of a UTF-8 file, adding the filename to any error.

    A parse error keeps its type and attributes, so a format error still
    carries its ``line_number``; a file that is not UTF-8 raises a plain ``ValueError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle.read(), *args)
    except UnicodeDecodeError as exc:  # prints its own fields, not its args, so it cannot carry the filename
        raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_hamiltonian(path) -> Hamiltonian:
    """Read and parse a Hamiltonian file; errors name the file (see ``read_file``)."""
    return read_file(path, parse_hamiltonian)
