"""Tests for Pauli strings, covering, and Hamiltonian parsing."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_shadows import (
    EmptyHamiltonianError,
    Hamiltonian,
    HamiltonianFormatError,
    MeasurementBasis,
    PauliOp,
    load_hamiltonian,
    parse_hamiltonian,
)
from pauli_shadows.paulis import covers, serialize_hamiltonian

from helpers import all_bases, coverage_count, covers_reference

pauli_words = st.text(alphabet="IXYZ", min_size=1, max_size=6)
basis_words = st.text(alphabet="XYZ", min_size=1, max_size=6)


class TestPauliOp:
    def test_letters_roundtrip(self):
        assert str(PauliOp("XIZY")) == "XIZY"

    def test_weight(self):
        assert PauliOp("III").weight() == 0
        assert PauliOp("XIZ").weight() == 2
        assert PauliOp("YYYY").weight() == 4

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            PauliOp("XQ")
        with pytest.raises(ValueError):
            PauliOp("")
        with pytest.raises(ValueError):
            PauliOp([0, 4])

    def test_equality_and_hash(self):
        assert PauliOp("XI") == PauliOp([1, 0])
        assert PauliOp("XI") != PauliOp("IX")
        assert hash(PauliOp("XYZ")) == hash(PauliOp("XYZ"))
        assert {PauliOp("XY"): 1}[PauliOp("XY")] == 1

    def test_codes_are_read_only(self):
        p = PauliOp("XY")
        with pytest.raises(ValueError):
            p.codes[0] = 2


class TestMeasurementBasis:
    def test_rejects_identity(self):
        with pytest.raises(ValueError):
            MeasurementBasis("XIZ")

    def test_letters(self):
        assert str(MeasurementBasis("ZYX")) == "ZYX"


class TestLetterStrings:
    @pytest.mark.parametrize("letters", [PauliOp("XIZY"), MeasurementBasis("ZYX")])
    def test_pickle_round_trip_keeps_equality_and_hash(self, letters):
        copy = pickle.loads(pickle.dumps(letters))
        assert type(copy) is type(letters)
        assert copy == letters
        assert hash(copy) == hash(letters)

    def test_pauli_and_basis_never_compare_equal(self):
        assert PauliOp("XY") != MeasurementBasis("XY")
        assert MeasurementBasis("XY") != PauliOp("XY")
        assert repr(MeasurementBasis("XY")) == "MeasurementBasis('XY')"


class TestCovers:
    def test_examples(self):
        assert covers(MeasurementBasis("XYZ"), PauliOp("XIZ")) is True
        assert covers(MeasurementBasis("ZYZ"), PauliOp("XIZ")) is False
        assert covers(MeasurementBasis("XYZ"), PauliOp("III")) is True

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            covers(MeasurementBasis("XY"), PauliOp("XYZ"))

    @given(basis_words, st.data())
    def test_matches_reference(self, basis_word, data):
        pauli_word = data.draw(
            st.text(alphabet="IXYZ", min_size=len(basis_word), max_size=len(basis_word))
        )
        expected = covers_reference(basis_word, pauli_word)
        assert covers(MeasurementBasis(basis_word), PauliOp(pauli_word)) == expected

    @given(basis_words, st.data())
    def test_monotone_under_identity_substitution(self, basis_word, data):
        n = len(basis_word)
        pauli_word = data.draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
        basis = MeasurementBasis(basis_word)
        pauli = PauliOp(pauli_word)
        if not covers(basis, pauli):
            return
        for i, letter in enumerate(pauli_word):
            if letter != "I":
                weakened = PauliOp(pauli_word[:i] + "I" + pauli_word[i + 1 :])
                assert covers(basis, weakened)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_uniform_coverage_probability_is_three_to_minus_weight(self, n):
        rng = np.random.default_rng(202 + n)
        for _ in range(5):
            word = "".join(rng.choice(list("IXYZ"), size=n))
            pauli = PauliOp(word)
            covering = sum(covers(b, pauli) for b in all_bases(n))
            assert covering == 3 ** (n - pauli.weight())
            assert coverage_count(word, n) * 3 ** pauli.weight() == 1


class TestHamiltonian:
    def test_basic_construction(self):
        h = Hamiltonian(2, [(0.5, PauliOp("XZ")), (-0.25, PauliOp("ZI"))])
        assert h.n == 2 and h.n_terms == 2 and h.offset == 0.0
        np.testing.assert_allclose(h.coeffs, [0.5, -0.25])

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            Hamiltonian(1, [(0.0, PauliOp("X"))])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Hamiltonian(1, [(1.0, PauliOp("X")), (2.0, PauliOp("X"))])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Hamiltonian(2, [(1.0, PauliOp("X"))])

    def test_identity_goes_to_offset(self):
        with pytest.raises(ValueError):
            Hamiltonian(2, [(1.0, PauliOp("II"))])
        h = Hamiltonian(2, [(1.0, PauliOp("XI"))], offset=0.5)
        assert h.offset == 0.5


class TestParseHamiltonian:
    def test_two_term_example(self):
        h = parse_hamiltonian("0.5 XZ\n-0.25 ZI")
        assert h.n == 2
        assert h.terms == ((0.5, PauliOp("XZ")), (-0.25, PauliOp("ZI")))

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
        assert h.terms == ((0.75, PauliOp("XZ")),)

    def test_identity_term_becomes_offset(self):
        h = parse_hamiltonian("2.5 II\n1.0 XI")
        assert h.offset == 2.5
        assert h.paulis == (PauliOp("XI"),)

    def test_identity_only_file_is_valid(self):
        h = parse_hamiltonian("0.75 III")
        assert h.offset == 0.75 and h.n_terms == 0

    def test_drops_tiny_merged_coefficients(self):
        h = parse_hamiltonian("1.0 XI\n-0.9999999999999999 XI\n1.0 ZI")
        assert h.paulis == (PauliOp("ZI"),)

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
        assert dict((str(p), a) for a, p in second.terms) == dict(
            (str(p), a) for a, p in first.terms
        )
