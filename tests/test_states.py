"""Tests for the dense statevector simulation."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_shadows import (
    GroundStateConvergenceError,
    Hamiltonian,
    ProductBasisSampler,
    StateVector,
    estimate_energy,
    expectation,
    ground_state,
    hamiltonian_expectation,
    load_hamiltonian,
    measurement_distribution,
    parse_hamiltonian,
    sample_measurement,
    uniform_distribution,
)
from pauli_shadows import states
from pauli_shadows.states import apply_pauli, load_state, sigmas_from_index

from helpers import (
    BELL_AMPLITUDES,
    all_bases,
    dense_hamiltonian,
    dense_measurement_probs,
    dense_pauli,
    product_of_sigmas,
    random_state_amplitudes,
    reshape_loop_probs,
)

SQ2 = 1.0 / math.sqrt(2.0)
FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def bell_state():
    return StateVector(BELL_AMPLITUDES)


def plus_state():
    return StateVector([SQ2, SQ2])


class TestStateVector:
    def test_zero_state(self):
        s = StateVector.zero_state(3)
        assert s.n == 3
        assert s.amplitudes[0] == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])
        with pytest.raises(ValueError):
            StateVector([np.nan, 0.0])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 0.0, 0.0])


class TestApplyPauli:
    def test_z_on_zero(self):
        out = apply_pauli(StateVector.zero_state(1), "Z")
        np.testing.assert_allclose(out.amplitudes, [1.0, 0.0])

    def test_x_on_zero(self):
        out = apply_pauli(StateVector.zero_state(1), "X")
        np.testing.assert_allclose(out.amplitudes, [0.0, 1.0])

    def test_y_on_zero(self):
        out = apply_pauli(StateVector.zero_state(1), "Y")
        np.testing.assert_allclose(out.amplitudes, [0.0, 1.0j])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_pauli(StateVector.zero_state(2), "X")

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            for word in ["I" * n] + ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(10)]:
                amps = random_state_amplitudes(rng, n)
                out = apply_pauli(StateVector(amps), word)
                np.testing.assert_allclose(out.amplitudes, dense_pauli(word) @ amps, atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            amps = random_state_amplitudes(rng, n)
            word = "".join(rng.choice(list("IXYZ"), size=n))
            state = StateVector(amps)
            twice = apply_pauli(apply_pauli(state, word), word)
            np.testing.assert_allclose(twice.amplitudes, amps, atol=1e-12)


class TestExpectation:
    def test_zero_state_z(self):
        assert expectation(StateVector.zero_state(1), "Z") == pytest.approx(1.0)

    def test_plus_state_x(self):
        assert expectation(plus_state(), "X") == pytest.approx(1.0)

    def test_bell_correlations(self):
        assert expectation(bell_state(), "XX") == pytest.approx(1.0)
        assert expectation(bell_state(), "ZZ") == pytest.approx(1.0)

    def test_matches_dense_oracle_and_range(self):
        rng = np.random.default_rng(13)
        for trial in range(36):
            n = trial % 6 + 1
            amps = random_state_amplitudes(rng, n)
            word = "I" * n if trial < 6 else "".join(rng.choice(list("IXYZ"), size=n))
            value = expectation(StateVector(amps), word)
            oracle = np.vdot(amps, dense_pauli(word) @ amps).real
            assert value == pytest.approx(oracle, abs=1e-10)
            assert -1.0 <= value <= 1.0


class TestMeasurementDistribution:
    def test_zero_state_z(self):
        probs = measurement_distribution(StateVector.zero_state(1), "Z")
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_plus_state_z(self):
        probs = measurement_distribution(plus_state(), "Z")
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_bell_xx(self):
        # Exact four-amplitude computation: rotating both qubits by the
        # X-frame map sends (|00>+|11>)/sqrt(2) back to itself.
        probs = measurement_distribution(bell_state(), "XX")
        np.testing.assert_allclose(probs, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_bell_zz(self):
        probs = measurement_distribution(bell_state(), "ZZ")
        np.testing.assert_allclose(probs, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_sigma_index_convention(self):
        sigmas = sigmas_from_index(2, 2)  # binary 10: qubit 0 read as -1
        assert list(sigmas) == [-1, 1]

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 5):
            amps = random_state_amplitudes(rng, n)
            state = StateVector(amps)
            for basis in all_bases(n):
                probs = measurement_distribution(state, basis)
                np.testing.assert_allclose(
                    probs, dense_measurement_probs(amps, basis), atol=1e-12
                )
                assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_covered_products_reproduce_expectations(self):
        # Weighting each outcome's ±1 product by its probability recovers
        # the exact expectation for every covered string.
        rng = np.random.default_rng(15)
        for n in (1, 2, 3):
            amps = random_state_amplitudes(rng, n)
            state = StateVector(amps)
            for basis in all_bases(n):
                probs = measurement_distribution(state, basis)
                for word_codes in np.ndindex(*(4,) * n):
                    word = "".join("IXYZ"[c] for c in word_codes)
                    if not all(w == "I" or w == b for w, b in zip(word, basis)):
                        continue
                    weighted = sum(
                        p * product_of_sigmas(i, n, word) for i, p in enumerate(probs)
                    )
                    assert weighted == pytest.approx(expectation(state, word), abs=1e-10)


@st.composite
def sorted_basis_rows(draw):
    """Sorted distinct basis rows of 1-10 qubits: families sharing long prefixes, and the all-Z row."""
    n = draw(st.integers(1, 10))
    letters = st.integers(1, 3)
    rows = {(3,) * n}
    for _ in range(draw(st.integers(1, 4))):
        stem = draw(st.lists(letters, min_size=n, max_size=n))
        for _ in range(draw(st.integers(1, 5))):
            keep = draw(st.integers(0, n))
            rows.add(tuple(stem[:keep] + draw(st.lists(letters, min_size=n - keep, max_size=n - keep))))
    return n, np.array(sorted(rows), dtype=np.uint8)


def _trie_nodes(rows) -> int:
    """Distinct non-empty prefixes of the rows."""
    return len({tuple(row[:depth]) for row in rows.tolist() for depth in range(1, len(row) + 1)})


class TestOutcomeTables:
    @given(case=sorted_basis_rows(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_tables_match_reshape_loop_bit_for_bit(self, case, seed):
        n, rows = case
        state = StateVector(random_state_amplitudes(np.random.default_rng(seed), n))
        tables = list(states.measurement_distributions(state, rows))
        cumulatives = list(states.measurement_distributions(state, rows, cumulative=True))
        assert len(tables) == len(cumulatives) == len(rows)
        for row, table, cumulative in zip(rows, tables, cumulatives):
            oracle = reshape_loop_probs(state.amplitudes, row)
            assert np.array_equal(table, oracle)
            assert np.array_equal(cumulative, np.cumsum(oracle) / np.cumsum(oracle)[-1])
            assert np.array_equal(measurement_distribution(state, "".join("IXYZ"[c] for c in row)), oracle)

    def test_sorted_rows_share_rotated_prefixes(self, monkeypatch):
        # estimate_energy rotates each node of the trie of its distinct
        # bases once: one leading-qubit rotation per distinct prefix.
        calls = []
        rotate = states._rotate_leading

        def counting_rotate(psi, code):
            calls.append(code)
            return rotate(psi, code)

        h = load_hamiltonian(FIXTURE_DIR / "fixture_c_8q.ham")
        _, state = ground_state(h)
        sampler = ProductBasisSampler(uniform_distribution(h.n))
        shots = 1000
        u = np.random.default_rng(2).random((shots, sampler.uniforms + 1))
        rows = np.unique(sampler.bases(u[:, :-1]), axis=0)
        monkeypatch.setattr(states, "_rotate_leading", counting_rotate)
        estimate_energy(h, state, shots, sampler, np.random.default_rng(2))
        assert len(calls) == _trie_nodes(rows)
        assert len(calls) < h.n * len(rows)

    def test_row_width_must_match_state(self):
        zero = StateVector.zero_state(2)
        with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
            next(states.measurement_distributions(zero, np.full((1, 3), 3, dtype=np.uint8)))
        with pytest.raises(ValueError):
            sample_measurement(zero, "ZZZ", np.random.default_rng(0))

    def test_rows_must_hold_basis_letters(self):
        # Codes 0 (I) and 4 name no measurement basis; neither may be rotated as X.
        zero = StateVector.zero_state(2)
        for row in ([0, 3], [4, 3], [3, 0]):
            with pytest.raises(ValueError, match="X/Y/Z"):
                next(states.measurement_distributions(zero, np.array([row], dtype=np.uint8)))


class TestSampleMeasurement:
    def test_deterministic_z(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            outcome = sample_measurement(StateVector.zero_state(1), "Z", rng)
            assert list(outcome) == [1]

    def test_zero_state_x_is_unbiased(self):
        rng = np.random.default_rng(1)
        draws = 20000
        plus = sum(
            sample_measurement(StateVector.zero_state(1), "X", rng)[0] == 1
            for _ in range(draws)
        )
        se = math.sqrt(draws * 0.25)
        assert abs(plus - draws / 2) < 4 * se

    def test_bell_zz_outcomes(self):
        rng = np.random.default_rng(2)
        state = bell_state()
        basis = "ZZ"
        counts = {(1, 1): 0, (-1, -1): 0}
        draws = 20000
        for _ in range(draws):
            outcome = sample_measurement(state, basis, rng)
            pair = (int(outcome[0]), int(outcome[1]))
            assert pair[0] * pair[1] == 1  # product is always +1
            counts[pair] += 1
        se = math.sqrt(draws * 0.25)
        assert abs(counts[(1, 1)] - draws / 2) < 4 * se

    def test_empirical_frequencies_match_distribution(self):
        rng = np.random.default_rng(3)
        amps = random_state_amplitudes(rng, 3)
        state = StateVector(amps)
        basis = "XYZ"
        probs = measurement_distribution(state, basis)
        draws = 30000
        counts = np.zeros(8)
        for _ in range(draws):
            outcome = sample_measurement(state, basis, rng)
            index = sum((1 - int(s)) // 2 << (2 - q) for q, s in enumerate(outcome))
            counts[index] += 1
        for k in range(8):
            se = math.sqrt(max(draws * probs[k] * (1 - probs[k]), 1.0))
            assert abs(counts[k] - draws * probs[k]) <= 4 * se


class TestGroundState:
    def test_single_qubit_z(self):
        energy, state = ground_state(parse_hamiltonian("1.0 Z"))
        assert energy == pytest.approx(-1.0, abs=1e-9)
        assert abs(state.amplitudes[1]) == pytest.approx(1.0, abs=1e-8)

    def test_single_qubit_x(self):
        energy, state = ground_state(parse_hamiltonian("1.0 X"))
        assert energy == pytest.approx(-1.0, abs=1e-9)
        assert expectation(state, "X") == pytest.approx(-1.0, abs=1e-9)

    def test_two_qubit_matches_dense_oracle(self):
        h = parse_hamiltonian("0.5 ZZ\n0.3 XI")
        energy, state = ground_state(h)
        dense_energy = np.linalg.eigvalsh(dense_hamiltonian(h))[0]
        assert energy == pytest.approx(dense_energy, abs=1e-8)
        assert hamiltonian_expectation(state, h) == pytest.approx(dense_energy, abs=1e-8)

    def test_random_hamiltonians_match_dense_oracle(self):
        from helpers import random_hamiltonian

        rng = np.random.default_rng(21)
        for _ in range(5):
            h = random_hamiltonian(rng, 3, 6)
            energy, state = ground_state(h)
            dense_energy = np.linalg.eigvalsh(dense_hamiltonian(h))[0]
            assert energy == pytest.approx(dense_energy, abs=1e-8)
            residual = dense_hamiltonian(h) @ state.amplitudes - energy * state.amplitudes
            assert np.linalg.norm(residual) <= 1e-7

    def test_offset_shifts_energy(self):
        base = parse_hamiltonian("1.0 Z")
        shifted = parse_hamiltonian("1.0 Z\n0.25 I")
        assert ground_state(shifted)[0] == pytest.approx(ground_state(base)[0] + 0.25, abs=1e-9)

    def test_identity_only(self):
        energy, state = ground_state(parse_hamiltonian("0.75 II"))
        assert energy == 0.75
        assert state.n == 2

    def test_term_order_invariance(self):
        text = "0.5 ZZI\n0.3 XII\n-0.2 IYX\n0.1 ZIZ"
        lines = text.splitlines()
        reference = ground_state(parse_hamiltonian(text))[0]
        permuted = ground_state(parse_hamiltonian("\n".join(reversed(lines))))[0]
        assert permuted == pytest.approx(reference, abs=1e-9)

    def test_non_convergence_raises(self):
        from helpers import random_hamiltonian

        h = random_hamiltonian(np.random.default_rng(22), 3, 8)
        with pytest.raises(GroundStateConvergenceError) as excinfo:
            ground_state(h, tol=1e-12, max_iter=1)
        # The last Ritz pair is measured before raising, not left at inf.
        assert math.isfinite(excinfo.value.best_residual)
        assert excinfo.value.best_residual > 1e-12
        assert math.isfinite(excinfo.value.best_energy)

    def test_rejects_max_iter_below_one(self):
        h = Hamiltonian(1, [(1.0, "Z")])
        for max_iter in (0, -1):
            with pytest.raises(ValueError, match="max_iter"):
                ground_state(h, max_iter=max_iter)

    def test_one_application_per_iteration(self, monkeypatch):
        # Each Lanczos iteration solves the tridiagonal once (eigh) and may
        # apply H once; one more application confirms the returned pair.
        counts = {"applies": 0, "iterations": 0}
        apply, eigh = states._apply_compiled, np.linalg.eigh

        def counting_apply(*args):
            counts["applies"] += 1
            return apply(*args)

        def counting_eigh(*args):
            counts["iterations"] += 1
            return eigh(*args)

        monkeypatch.setattr(states, "_apply_compiled", counting_apply)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        h = load_hamiltonian(FIXTURE_DIR / "fixture_c_8q.ham")
        energy, state = ground_state(h)
        assert counts["iterations"] >= 2
        assert counts["applies"] <= counts["iterations"] + 1
        residual = dense_hamiltonian(h) @ state.amplitudes - energy * state.amplitudes
        assert np.linalg.norm(residual) <= 1e-8


def _operator_test_hamiltonian(rng: np.random.Generator, n: int, n_terms: int) -> Hamiltonian:
    """Random terms biased towards Y, several sharing one flip mask, and an all-Z group over every qubit."""
    words = set()
    for _ in range(n_terms):  # Y-heavy strings
        words.add("".join(rng.choice(list("IXYZ"), size=n, p=[0.2, 0.15, 0.45, 0.2])))
    flipped = rng.random(n) < 0.5
    for _ in range(4):  # one shared flip mask: X/Y on `flipped`, I/Z elsewhere
        words.add("".join(rng.choice(list("XY" if f else "IZ")) for f in flipped))
    words.add("Z" * n)  # with the single-Z strings: flip mask 0, sign support on every qubit
    words.update("I" * q + "Z" + "I" * (n - q - 1) for q in range(n))
    words.discard("I" * n)
    return Hamiltonian(n, [(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0), w) for w in sorted(words)])


class TestCompiledOperator:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), n_terms=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_matrix(self, seed, n, n_terms):
        rng = np.random.default_rng(seed)
        h = _operator_test_hamiltonian(rng, n, n_terms)
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        compiled = states._apply_compiled(v, states._compile(h.codes, h.coeffs))
        assert np.max(np.abs(compiled - dense_hamiltonian(h) @ v)) <= 1e-12


class TestLoadState:
    def test_zero_state(self):
        state = load_state("1 0\n0 0\n", 1)
        np.testing.assert_allclose(state.amplitudes, [1.0, 0.0])

    def test_renormalizes_small_error(self):
        state = load_state("0.7071 0\n0.7071 0\n", 1)
        np.testing.assert_allclose(state.amplitudes, [SQ2, SQ2], atol=1e-6)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            load_state("0 0\n0 0\n", 1)

    def test_gross_norm_violation_rejected(self):
        with pytest.raises(ValueError):
            load_state("0.5 0\n0.5 0\n", 1)

    def test_wrong_line_count(self):
        with pytest.raises(ValueError):
            load_state("1 0\n", 1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            load_state("nan 0\n0 0\n", 1)

    def test_comments_and_imaginary_parts(self):
        state = load_state("# a Y eigenstate\n0.7071067811865476 0\n0 0.7071067811865476\n", 1)
        assert expectation(state, "Y") == pytest.approx(1.0, abs=1e-9)

    def test_first_bad_line_is_named(self):
        with pytest.raises(ValueError, match="line 4: expected"):
            load_state("# header\n0.6 0\n\n0.8 0 0\n", 1)

    def test_parse_is_exact(self):
        amps = random_state_amplitudes(np.random.default_rng(16), 6)
        lines = [f"{float(a.real)!r} {float(a.imag)!r}  # amplitude {k}\n\n" for k, a in enumerate(amps)]
        state = load_state("# six qubits\n" + "".join(lines), 6)
        assert np.array_equal(state.amplitudes, amps / np.linalg.norm(amps))
