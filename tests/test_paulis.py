"""Tests for Pauli strings, covering, and Hamiltonian parsing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_shadows import (
    EmptyHamiltonianError,
    Hamiltonian,
    HamiltonianFormatError,
    StateVector,
    load_hamiltonian,
    measurement_distribution,
    parse_hamiltonian,
    sample_measurement,
)
from pauli_shadows.paulis import keep_table, letter_codes

from helpers import all_bases, coverage_count, covers_reference, serialize_hamiltonian

pauli_words = st.text(alphabet="IXYZ", min_size=1, max_size=6)
basis_words = st.text(alphabet="XYZ", min_size=1, max_size=6)


class TestPauliOp:
    """A Pauli operator is a word over IXYZ; ``letter_codes`` checks it and gives its codes."""

    def test_letters_roundtrip(self):
        codes = letter_codes("XIZY")
        assert codes.dtype == np.uint8
        assert codes.tolist() == [1, 0, 3, 2]
        assert "".join("IXYZ"[c] for c in codes) == "XIZY"

    def test_rejects_bad_letters(self):
        for bad in ("XQ", "xz", "X Z", "XÅ"):
            with pytest.raises(ValueError, match="invalid Pauli letter"):
                letter_codes(bad)

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError, match="nonempty"):
            letter_codes("")

    def test_rejects_non_str(self):
        for not_a_word in ([0, 3], np.array([1, 2], dtype=np.uint8), b"XZ", None, 3):
            with pytest.raises(ValueError, match="nonempty str"):
                letter_codes(not_a_word)

    def test_codes_are_read_only(self):
        codes = letter_codes("XY")
        with pytest.raises(ValueError):
            codes[0] = 2


class TestMeasurementBasis:
    """A measurement basis is a word over XYZ."""

    def test_rejects_identity(self):
        state = StateVector.zero_state(3)
        with pytest.raises(ValueError):
            measurement_distribution(state, "XIZ")
        with pytest.raises(ValueError):
            sample_measurement(state, "XIZ", np.random.default_rng(0))

    def test_letters(self):
        assert letter_codes("ZYX").tolist() == [3, 2, 1]


class TestCovers:
    def test_examples(self):
        assert covers_reference("XYZ", "XIZ") is True
        assert covers_reference("ZYZ", "XIZ") is False
        assert covers_reference("XYZ", "III") is True

    @given(basis_words, st.data())
    def test_monotone_under_identity_substitution(self, basis_word, data):
        n = len(basis_word)
        pauli_word = data.draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
        if not covers_reference(basis_word, pauli_word):
            return
        for i, letter in enumerate(pauli_word):
            if letter != "I":
                weakened = pauli_word[:i] + "I" + pauli_word[i + 1 :]
                assert covers_reference(basis_word, weakened)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_uniform_coverage_probability_is_three_to_minus_weight(self, n):
        rng = np.random.default_rng(202 + n)
        for _ in range(5):
            word = "".join(rng.choice(list("IXYZ"), size=n))
            weight = n - word.count("I")
            covering = sum(covers_reference(b, word) for b in all_bases(n))
            assert covering == 3 ** (n - weight)
            assert coverage_count(word, n) * 3**weight == 1


class TestKeepTable:
    """``keep_table`` is the covering rule that APS and the estimator's fold share."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_covers_reference_on_every_word_and_basis(self, n):
        words = ["".join(w) for w in itertools.product("IXYZ", repeat=n)]
        keep = keep_table(np.stack([letter_codes(word) for word in words]))
        assert keep.shape == (n, 3, len(words)) and keep.dtype == bool
        assert keep.flags.c_contiguous
        for basis in all_bases(n):
            # a basis covers term t iff every qubit q keeps t under the basis letter at q
            covered = np.all([keep[q, code - 1] for q, code in enumerate(letter_codes(basis))], axis=0)
            assert covered.tolist() == [covers_reference(basis, word) for word in words]


class TestHamiltonian:
    def test_basic_construction(self):
        h = Hamiltonian(2, [(0.5, "XZ"), (-0.25, "ZI")])
        assert h.n == 2 and h.n_terms == 2 and h.offset == 0.0
        np.testing.assert_allclose(h.coeffs, [0.5, -0.25])

    def test_rejects_no_qubits(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            Hamiltonian(0, [])

    @pytest.mark.parametrize("offset", [math.nan, math.inf])
    def test_rejects_non_finite_offset(self, offset):
        with pytest.raises(ValueError, match="constant offset must be finite"):
            Hamiltonian(1, [], offset=offset)

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            Hamiltonian(1, [(0.0, "X")])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Hamiltonian(1, [(1.0, "X"), (2.0, "X")])

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            Hamiltonian(2, [(1.0, "XQ")])
        with pytest.raises(ValueError):
            Hamiltonian(2, [(1.0, "xz")])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Hamiltonian(2, [(1.0, "X")])

    def test_identity_goes_to_offset(self):
        with pytest.raises(ValueError):
            Hamiltonian(2, [(1.0, "II")])
        h = Hamiltonian(2, [(1.0, "XI")], offset=0.5)
        assert h.offset == 0.5


class TestParseHamiltonian:
    def test_two_term_example(self):
        h = parse_hamiltonian("0.5 XZ\n-0.25 ZI")
        assert h.n == 2
        assert h.terms == ((0.5, "XZ"), (-0.25, "ZI"))

    def test_cancellation_is_an_error(self):
        with pytest.raises(EmptyHamiltonianError):
            parse_hamiltonian("1.0 XI\n-1.0 XI")

    def test_four_qubit_example(self):
        h = parse_hamiltonian("0.1 XYZI\n0.2 IIZZ")
        assert h.n == 4 and h.n_terms == 2

    def test_comments_and_blank_lines(self):
        h = parse_hamiltonian("# heading\n\n0.5 XZ  # inline\n\n-0.25 ZI\n")
        assert h.n_terms == 2

    def test_merges_duplicates(self):
        h = parse_hamiltonian("0.5 XZ\n0.25 XZ")
        assert h.terms == ((0.75, "XZ"),)

    def test_identity_term_becomes_offset(self):
        h = parse_hamiltonian("2.5 II\n1.0 XI")
        assert h.offset == 2.5
        assert h.paulis == ("XI",)

    def test_identity_only_file_is_valid(self):
        h = parse_hamiltonian("0.75 III")
        assert h.offset == 0.75 and h.n_terms == 0

    def test_sub_threshold_identity_gives_zero_offset(self):
        for text in ("1e-13 II\n1.0 XI", "0.5 II\n-0.5 II\n1.0 XI", "-1e-13 II\n1.0 XI"):
            h = parse_hamiltonian(text)
            assert h.offset == 0.0 and math.copysign(1.0, h.offset) == 1.0
            assert h.terms == ((1.0, "XI"),)

    def test_drops_tiny_merged_coefficients(self):
        h = parse_hamiltonian("1.0 XI\n-0.9999999999999999 XI\n1.0 ZI")
        assert h.paulis == ("ZI",)

    def test_bad_letter_reports_line(self):
        with pytest.raises(HamiltonianFormatError) as excinfo:
            parse_hamiltonian("0.5 XZ\n0.5 XQ")
        assert excinfo.value.line_number == 2

    def test_bad_coefficient_reports_line(self):
        with pytest.raises(HamiltonianFormatError) as excinfo:
            parse_hamiltonian("abc XZ")
        assert excinfo.value.line_number == 1

    def test_rejects_non_finite_coefficient(self):
        with pytest.raises(HamiltonianFormatError):
            parse_hamiltonian("inf XZ")

    def test_missing_coefficient(self):
        with pytest.raises(HamiltonianFormatError):
            parse_hamiltonian("XZ")

    def test_inconsistent_length(self):
        with pytest.raises(HamiltonianFormatError) as excinfo:
            parse_hamiltonian("0.5 XZ\n0.5 XZZ")
        assert excinfo.value.line_number == 2

    def test_empty_input(self):
        with pytest.raises(EmptyHamiltonianError):
            parse_hamiltonian("# nothing\n\n")

    def test_file_error_keeps_path_and_line(self, tmp_path):
        path = tmp_path / "bad.ham"
        path.write_text("0.5 XZ\n0.5 XQ\n")
        with pytest.raises(HamiltonianFormatError) as excinfo:
            load_hamiltonian(path)
        assert excinfo.value.line_number == 2
        assert str(excinfo.value) == f"{path}: line 2: bad letter 'Q' in Pauli string 'XQ'"


@st.composite
def hamiltonian_texts(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    lines = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=-4.0, max_value=4.0).filter(lambda a: abs(a) > 1e-6),
                st.text(alphabet="IXYZ", min_size=n, max_size=n),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return "\n".join(f"{alpha!r} {word}" for alpha, word in lines)


class TestRoundTrip:
    @given(hamiltonian_texts())
    @settings(max_examples=150)
    def test_parse_serialize_parse_is_identity(self, text):
        try:
            first = parse_hamiltonian(text)
        except EmptyHamiltonianError:
            return
        second = parse_hamiltonian(serialize_hamiltonian(first))
        assert second.n == first.n
        assert second.offset == first.offset
        assert dict((p, a) for a, p in second.terms) == dict(
            (p, a) for a, p in first.terms
        )
