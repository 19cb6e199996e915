"""Tests for the dense statevector simulation."""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_shadows import (
    CapacityError,
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
from pauli_shadows.paulis import CODE_X, CODE_Y, letter_codes
from pauli_shadows.states import load_state, sigmas_from_index

from helpers import (
    BELL_AMPLITUDES,
    all_bases,
    apply_hamiltonian,
    dense_hamiltonian,
    dense_measurement_probs,
    dense_pauli,
    pauli_permutation,
    product_of_sigmas,
    random_hamiltonian,
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


def _compiled_word(word: str):
    """The compiled operator of one Pauli word with coefficient 1."""
    return states._compile(letter_codes(word)[None], np.ones(1))


class TestApplyPauli:
    """P|psi> for one Pauli word, through the compiled operator of that word."""

    def test_z_on_zero(self):
        out = states._apply_compiled(StateVector.zero_state(1).amplitudes, _compiled_word("Z"))
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_x_on_zero(self):
        out = states._apply_compiled(StateVector.zero_state(1).amplitudes, _compiled_word("X"))
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_y_on_zero(self):
        out = states._apply_compiled(StateVector.zero_state(1).amplitudes, _compiled_word("Y"))
        np.testing.assert_allclose(out, [0.0, 1.0j])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            for word in ["I" * n] + ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(10)]:
                amps = random_state_amplitudes(rng, n)
                out = states._apply_compiled(amps, _compiled_word(word))
                np.testing.assert_allclose(out, dense_pauli(word) @ amps, atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            amps = random_state_amplitudes(rng, n)
            word = "".join(rng.choice(list("IXYZ"), size=n))
            once = states._apply_compiled(amps, _compiled_word(word))
            twice = states._apply_compiled(once, _compiled_word(word))
            np.testing.assert_allclose(twice, amps, atol=1e-12)


class TestExpectation:
    def test_zero_state_z(self):
        assert expectation(StateVector.zero_state(1), "Z") == pytest.approx(1.0)

    def test_plus_state_x(self):
        assert expectation(plus_state(), "X") == pytest.approx(1.0)

    def test_bell_correlations(self):
        assert expectation(bell_state(), "XX") == pytest.approx(1.0)
        assert expectation(bell_state(), "ZZ") == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            expectation(StateVector.zero_state(2), "X")
        with pytest.raises(ValueError, match="qubit counts differ"):
            hamiltonian_expectation(StateVector.zero_state(2), parse_hamiltonian("1.0 Z"))

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


def sparsify(rng: np.random.Generator, amplitudes: np.ndarray) -> np.ndarray:
    """``amplitudes`` with about 70% of them zeroed and one set to 1, renormalized: some branches have zero mass."""
    amplitudes[rng.random(amplitudes.size) < 0.7] = 0.0
    amplitudes[rng.integers(amplitudes.size)] = 1.0
    return amplitudes / np.linalg.norm(amplitudes)


def assert_searchsorted_outcomes(state, bases, u, drawn):
    """Each drawn outcome is the one ``searchsorted`` picks on its basis' oracle cumulative table."""
    cumulatives = {}
    for row, uniform, outcome in zip(bases, u, drawn @ (1 << np.arange(state.n - 1, -1, -1))):
        key = row.tobytes()
        if key not in cumulatives:
            cumulatives[key] = np.cumsum(reshape_loop_probs(state.amplitudes, row))
            cumulatives[key] /= cumulatives[key][-1]
        assert outcome == np.searchsorted(cumulatives[key], uniform, side="right")


class TestOutcomeTables:
    @given(case=sorted_basis_rows(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_tables_match_reshape_loop_bit_for_bit(self, case, seed):
        n, rows = case
        state = StateVector(random_state_amplitudes(np.random.default_rng(seed), n))
        for row in rows:
            oracle = reshape_loop_probs(state.amplitudes, row)
            assert np.array_equal(measurement_distribution(state, "".join("IXYZ"[c] for c in row)), oracle)

    @given(
        case=sorted_basis_rows(),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "basis", "sparse"]),
        cells=st.sampled_from([None, 1, 64, 1024]),
    )
    @settings(max_examples=120, deadline=None)
    def test_draw_matches_searchsorted_on_oracle_table(self, case, seed, kind, cells):
        # A basis state |k> read in Z, or a random state with zeroed
        # amplitudes, has branches with p0 = 0 and p0 = 1; a small
        # _DRAW_CELLS splits the shots into many parts.
        n, rows = case
        rng = np.random.default_rng(seed)
        amplitudes = random_state_amplitudes(rng, n)
        if kind == "basis":
            amplitudes = np.zeros(2**n)
            amplitudes[rng.integers(2**n)] = 1.0
        elif kind == "sparse":
            amplitudes = sparsify(rng, amplitudes)
        state = StateVector(amplitudes)
        bases = rows[rng.integers(len(rows), size=200)]
        u = rng.random(len(bases))
        u[:2] = 0.0, np.nextafter(1.0, 0.0)
        with pytest.MonkeyPatch.context() as patch:
            if cells is not None:
                patch.setattr(states, "_DRAW_CELLS", cells)
            drawn = states.draw_outcomes(state, bases, u)
        assert_searchsorted_outcomes(state, bases, u, drawn)

    def test_draw_splits_below_the_root_as_the_oracle_draws(self, monkeypatch):
        # 2000 shots from six bases on 10 qubits with a budget of 2^9
        # amplitudes: parts of several shots split again at qubits >= 2.
        rng = np.random.default_rng(19)
        n = 10
        state = StateVector(random_state_amplitudes(rng, n))
        families = rng.integers(1, 4, size=(6, n)).astype(np.uint8)
        bases = families[rng.integers(len(families), size=2000)]
        u = rng.random(len(bases))
        u[:2] = 0.0, np.nextafter(1.0, 0.0)
        rotate, calls = states._rotate_leading, []  # (qubit, rows) per rotation

        def recording_rotate(psi, code):
            calls.append((n + 1 - psi.shape[-1].bit_length(), len(psi)))
            rotate(psi, code)

        monkeypatch.setattr(states, "_rotate_leading", recording_rotate)
        monkeypatch.setattr(states, "_DRAW_CELLS", 2**9)
        drawn = states.draw_outcomes(state, bases, u)
        assert_searchsorted_outcomes(state, bases, u, drawn)
        for qubit in range(2, n):  # more than one part, and parts of more than one key, at each qubit >= 2
            rows = [count for at, count in calls if at == qubit]
            assert len(rows) > 2 and max(rows) > 1

    @pytest.mark.parametrize("kind", ["random", "sparse"])
    def test_draw_does_not_depend_on_the_budget(self, kind):
        rng = np.random.default_rng(23)
        for n in range(6, 13):
            amplitudes = random_state_amplitudes(rng, n)
            state = StateVector(amplitudes if kind == "random" else sparsify(rng, amplitudes))
            families = rng.integers(1, 4, size=(4, n)).astype(np.uint8)
            bases = np.concatenate(
                (rng.integers(1, 4, size=(200, n)).astype(np.uint8), families[rng.integers(len(families), size=200)])
            )
            u = rng.random(len(bases))
            u[:2] = 0.0, np.nextafter(1.0, 0.0)
            expected = states.draw_outcomes(state, bases, u)
            for cells in (1, 2**6, 2**10):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(states, "_DRAW_CELLS", cells)
                    assert np.array_equal(states.draw_outcomes(state, bases, u), expected), (n, cells)

    def test_draw_rotates_each_prefix_once_within_the_budget(self, monkeypatch):
        # Shots that share a (letter, bit) prefix share its rotation, and a
        # split hands each prefix to one part, so in one call qubit q rotates
        # at most one row per prefix, 3 * 6**q of them, and never more rows
        # than there are shots. Each rotation works on rows of its step's
        # stack, which holds at most _DRAW_CELLS amplitudes unless the step
        # has a single prefix key (one 2^(n-q) row per bit).
        h = load_hamiltonian(FIXTURE_DIR / "fixture_c_8q.ham")
        _, state = ground_state(h)
        rng = np.random.default_rng(2)
        shots = 1000
        bases = rng.integers(1, 4, size=(shots, h.n)).astype(np.uint8)
        u = rng.random(shots)
        rotate, calls = states._rotate_leading, []  # (qubit, rows, amplitudes of the step's stack)

        def recording_rotate(psi, code):
            calls.append((h.n + 1 - psi.shape[-1].bit_length(), len(psi), psi.base.size))
            rotate(psi, code)

        monkeypatch.setattr(states, "_rotate_leading", recording_rotate)
        unsplit = states.draw_outcomes(state, bases, u)
        # The default budget holds each step of 1000 shots on 8 qubits: one X and one Y rotation per qubit.
        assert [at for at, _, _ in calls] == [q for q in range(h.n) for _ in range(2)]
        for cells in (states._DRAW_CELLS, 2**11):  # 2^11: the shots split from qubit 1 on
            calls.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(states, "_DRAW_CELLS", cells)
                assert np.array_equal(states.draw_outcomes(state, bases, u), unsplit)
            for q in range(h.n):
                assert 0 < sum(rows for at, rows, _ in calls if at == q) <= min(shots, 3 * 6**q)
            assert all(stack <= max(cells, 2 ** (h.n - at)) for at, _, stack in calls)
        assert sum(at == 0 for at, _, _ in calls) == 2 and sum(at == 1 for at, _, _ in calls) > 2

    def test_row_width_must_match_state(self):
        zero = StateVector.zero_state(2)
        with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
            states.draw_outcomes(zero, np.full((1, 3), 3, dtype=np.uint8), np.zeros(1))
        with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
            states.draw_outcomes(zero, np.full((1, 2), 3, dtype=np.uint8), np.zeros(2))
        with pytest.raises(ValueError):
            sample_measurement(zero, "ZZZ", np.random.default_rng(0))

    def test_rows_must_hold_basis_letters(self):
        # Codes 0 (I) and 4 name no measurement basis; neither may be rotated as X.
        zero = StateVector.zero_state(2)
        for row in ([0, 3], [4, 3], [3, 0]):
            with pytest.raises(ValueError, match="X/Y/Z"):
                states.draw_outcomes(zero, np.array([row], dtype=np.uint8), np.zeros(1))


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
        # Tight tolerances test the Lanczos step whose only orthogonalization is the reorthogonalization.
        for tol in (1e-8, 1e-10, 1e-12):
            rng = np.random.default_rng(21)
            for _ in range(5):
                h = random_hamiltonian(rng, 3, 6)
                energy, state = ground_state(h, tol=tol)
                dense_energy = np.linalg.eigvalsh(dense_hamiltonian(h))[0]
                assert energy == pytest.approx(dense_energy, abs=1e-8)
                residual = dense_hamiltonian(h) @ state.amplitudes - energy * state.amplitudes
                assert np.linalg.norm(residual) <= tol

    def test_krylov_basis_across_block_boundaries(self, monkeypatch):
        # Three vectors per block: every solve here fills several blocks, the last one in part.
        monkeypatch.setattr(states, "_BLOCK_ROWS", 3)
        rng = np.random.default_rng(23)
        for n, tol in ((4, 1e-10), (5, 1e-12), (6, 1e-12)):
            h = random_hamiltonian(rng, n, 3 * n)
            energy, state = ground_state(h, tol=tol)
            dense_energy = np.linalg.eigvalsh(dense_hamiltonian(h))[0]
            assert energy == pytest.approx(dense_energy, abs=1e-8)
            residual = dense_hamiltonian(h) @ state.amplitudes - energy * state.amplitudes
            assert np.linalg.norm(residual) <= tol

    def test_many_terms_on_few_qubits(self):
        # The shape of the dense-terms benchmark workload: 500 strings on 8 qubits, run in stacks of groups.
        h = random_hamiltonian(np.random.default_rng(24), 8, 500, max_weight=4)
        tol = 1e-8
        energy, state = ground_state(h, tol=tol)
        dense = dense_hamiltonian(h)
        assert energy == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-8)
        assert np.linalg.norm(dense @ state.amplitudes - energy * state.amplitudes) <= tol
        assert energy == hamiltonian_expectation(state, h)

    def test_residual_at_twelve_qubits(self):
        # The shape of the wide benchmark workload, where every stack is one group and H's matrix takes 256 MiB.
        h = random_hamiltonian(np.random.default_rng(25), 12, 200, max_weight=4)
        tol = 1e-8
        energy, state = ground_state(h, tol=tol)
        assert np.linalg.norm(apply_hamiltonian(h, state.amplitudes) - energy * state.amplitudes) <= tol
        assert energy == hamiltonian_expectation(state, h)

    def test_energy_is_expectation_of_returned_state(self):
        for name in ("fixture_a_6q.ham", "fixture_b_7q.ham", "fixture_c_8q.ham"):
            h = load_hamiltonian(FIXTURE_DIR / name)
            energy, state = ground_state(h)
            assert energy == hamiltonian_expectation(state, h)

    def test_offset_shifts_energy(self):
        base = parse_hamiltonian("1.0 Z")
        shifted = parse_hamiltonian("1.0 Z\n0.25 I")
        assert ground_state(shifted)[0] == pytest.approx(ground_state(base)[0] + 0.25, abs=1e-9)

    def test_identity_only(self):
        energy, state = ground_state(parse_hamiltonian("0.75 II"))
        assert energy == 0.75
        assert state.n == 2

    def test_degenerate_ground_space_gives_the_same_state(self):
        # -1 on both |10> and |11>: the seeded start vector picks one state of the ground space.
        h = parse_hamiltonian("1.0 ZI")
        (first_energy, first), (second_energy, second) = ground_state(h), ground_state(h)
        assert first_energy == second_energy == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_array_equal(first.amplitudes, second.amplitudes)

    def test_term_order_invariance(self):
        text = "0.5 ZZI\n0.3 XII\n-0.2 IYX\n0.1 ZIZ"
        lines = text.splitlines()
        reference = ground_state(parse_hamiltonian(text))[0]
        permuted = ground_state(parse_hamiltonian("\n".join(reversed(lines))))[0]
        assert permuted == pytest.approx(reference, abs=1e-9)

    def test_non_convergence_raises(self):
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


class TestCapacity:
    """The dense simulator's qubit cap, ``MAX_TABLE_QUBITS``, on each path that holds 2^n amplitudes."""

    def test_ground_state_refuses_before_allocating(self):
        h = Hamiltonian(21, [(1.0, "Z" + "I" * 20)])
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                ground_state(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 2^21-amplitude start vector alone is 32 MiB

    @pytest.fixture
    def cap_three(self, monkeypatch):
        monkeypatch.setattr(states, "MAX_TABLE_QUBITS", 3)

    def test_tables_and_draws_stop_above_the_cap(self, cap_three):
        rng = np.random.default_rng(3)
        big = StateVector(random_state_amplitudes(rng, 4))
        with pytest.raises(CapacityError):
            measurement_distribution(big, "XYZX")
        with pytest.raises(CapacityError):
            sample_measurement(big, "XYZX", rng)
        with pytest.raises(CapacityError):
            states.draw_outcomes(big, np.full((2, 4), 3, dtype=np.uint8), np.zeros(2))
        h = Hamiltonian(4, [(1.0, "ZZII"), (0.5, "IXXI")])
        with pytest.raises(CapacityError):
            estimate_energy(h, big, 10, ProductBasisSampler(uniform_distribution(4)), rng)

    def test_the_cap_itself_is_allowed(self, cap_three):
        rng = np.random.default_rng(4)
        state = StateVector(random_state_amplitudes(rng, 3))
        assert measurement_distribution(state, "XYZ").sum() == pytest.approx(1.0, abs=1e-10)
        assert states.draw_outcomes(state, np.full((2, 3), 3, dtype=np.uint8), np.zeros(2)).shape == (2, 3)
        h = Hamiltonian(3, [(1.0, "ZZI")])
        assert math.isfinite(estimate_energy(h, state, 10, ProductBasisSampler(uniform_distribution(3)), rng).energy)

    def test_load_state_refuses_above_the_cap(self, cap_three):
        # Before parsing: a state file above the cap would otherwise be read, and H applied, before the draw refuses.
        with pytest.raises(CapacityError):
            load_state("0.25 0\n" * 16, 4)
        assert load_state("1 0\n" + "0 0\n" * 7, 3).n == 3


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

    def test_matches_dense_matrix_across_the_low_block_split(self, monkeypatch):
        # A 2-qubit low block gives n >= 3 a high part. "Y...X", alone in its group, flips qubit 0
        # (high) and the last qubit (low) with a sign on qubit 0 only; the all-Z string puts the
        # flip-0 group's sign support on every qubit. Each n asserts that the groups have all three.
        monkeypatch.setattr(states, "_LOW_QUBITS", 2)
        reversed_axis, flip_mask = slice(None, None, -1), str.maketrans("IXYZ", "0110")
        rng = np.random.default_rng(17)
        for n in range(1, 9):
            for _ in range(4):
                terms = {word: alpha for alpha, word in _operator_test_hamiltonian(rng, n, 12).terms}
                if n >= 3:
                    special = "Y" + "I" * (n - 2) + "X"
                    own = special.translate(flip_mask)
                    terms = {word: alpha for word, alpha in terms.items() if word.translate(flip_mask) != own}
                    terms[special] = 0.4
                h = Hamiltonian(n, [(alpha, word) for word, alpha in terms.items()])
                stacks = states._compile(h.codes, h.coeffs)
                groups = list(_flip_groups(stacks))
                if n >= 3:
                    assert any(perm[0] and reversed_axis in flip for flip, perm, _ in groups)
                    assert any(diag.shape[-1] == 1 for _, _, diag in groups)
                    (flip_zero,) = [diag for flip, perm, diag in groups if not perm[0] and reversed_axis not in flip]
                    assert flip_zero.shape == (2,) * (n - 2) + (4,)
                # Every d is stored once, at its own size, in one flat array: the 1-wide ones hold no
                # 2^L-wide rows, and a stack's d is a view of its run of that array, not a copy.
                flat = stacks[0][2].base
                assert all(diag.base is flat for _, _, diag in stacks)
                assert sum(diag.size for _, _, diag in stacks) == flat.size
                v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
                compiled = states._apply_compiled(v, stacks)
                assert np.max(np.abs(compiled - dense_hamiltonian(h) @ v)) <= 1e-12

    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_stacks_of_many_groups_match_dense_matrix(self, n):
        # Weight-4 strings on few qubits: many groups share a high flip and a diagonal shape.
        h = random_hamiltonian(np.random.default_rng(n), n, 20, max_weight=4)
        stacks = states._compile(h.codes, h.coeffs)
        depths = [len(perm) if perm.ndim == 2 else 1 for _, perm, _ in stacks]
        assert max(depths) > 1
        assert all(depth << n <= 1 << 12 for depth in depths)  # amplitudes one stack gathers
        assert sum(depths) == len(np.unique(np.isin(h.codes, (CODE_X, CODE_Y)), axis=0))
        v = random_state_amplitudes(np.random.default_rng(n + 1), n)
        assert np.max(np.abs(states._apply_compiled(v, stacks) - dense_hamiltonian(h) @ v)) <= 1e-12

    def test_every_stack_is_one_group_from_twelve_qubits(self):
        h = random_hamiltonian(np.random.default_rng(12), 12, 60, max_weight=4)
        assert all(perm.ndim == 1 for _, perm, _ in states._compile(h.codes, h.coeffs))

    @pytest.mark.parametrize("n", [12, 13])
    def test_one_group_stacks_match_the_permutation_oracle(self, n):
        # Every stack is one group over the 7-qubit low block and n - 7 high axes; the all-Y strings
        # flip every axis, and put a Y sign on every high axis or on every low qubit.
        rng = np.random.default_rng(n + 30)
        terms = list(random_hamiltonian(rng, n, 200, max_weight=4).terms)
        terms += [(0.3, "Y" * n), (-0.6, "Y" * (n - 7) + "I" * 7), (0.45, "I" * (n - 7) + "Y" * 7)]
        h = Hamiltonian(n, terms)
        stacks = states._compile(h.codes, h.coeffs)
        assert all(perm.ndim == 1 for _, perm, _ in stacks)
        v = random_state_amplitudes(rng, n)
        assert np.max(np.abs(states._apply_compiled(v, stacks) - apply_hamiltonian(h, v))) <= 1e-12


def _flip_groups(stacks):
    """(flip, perm, d) of each flip group of ``_compile``'s stacks."""
    for flip, perms, diag in stacks:
        if perms.ndim == 1:
            yield flip, perms, diag
        else:
            yield from ((flip, perm, diag[..., g, :]) for g, perm in enumerate(perms))


class TestPermutationOracle:
    def test_every_word_up_to_three_qubits_matches_its_kronecker_product(self):
        for n in (1, 2, 3):
            index = np.arange(2**n)
            for word in map("".join, itertools.product("IXYZ", repeat=n)):
                flip, phases = pauli_permutation(word)
                matrix = np.zeros((2**n, 2**n), dtype=complex)
                matrix[index ^ flip, index] = phases
                assert np.array_equal(matrix, dense_pauli(word)), word

    def test_scattered_matrix_and_matrix_free_apply_match_the_kronecker_sum(self):
        rng = np.random.default_rng(26)
        for n in range(1, 6):
            for _ in range(3):
                h = Hamiltonian(n, random_hamiltonian(rng, n, 3 * n).terms, offset=0.25)
                kronecker = h.offset * np.eye(2**n, dtype=complex)
                for alpha, word in h.terms:
                    kronecker += alpha * dense_pauli(word)
                assert np.array_equal(dense_hamiltonian(h), kronecker)
                v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
                assert np.max(np.abs(apply_hamiltonian(h, v) - kronecker @ v)) <= 1e-12


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
        with pytest.raises(ValueError, match="line 1: bad amplitude '1 x'"):
            load_state("1 x\n0 0\n", 1)

    def test_whole_file_parse_keeps_the_line_rules(self):
        # Two fields a line, not two fields per amplitude anywhere in the file.
        with pytest.raises(ValueError, match="line 1: expected"):
            load_state("0.6 0 0.8\n0\n", 1)
        # A form feed ends a line, as str.splitlines says, though str.split reads it as a space.
        with pytest.raises(ValueError, match="line 1: expected"):
            load_state("0.6\x0c0\n0.8 0\n", 1)
        with pytest.raises(ValueError, match="line 2: non-finite amplitude"):
            load_state("0.6 0\n0.8 inf\n", 1)
        crlf = load_state("0.6 0\r\n0 0.8\r\n", 1)
        assert crlf.amplitudes.tolist() == [0.6, 0.8j]

    def test_parse_is_exact(self):
        amps = random_state_amplitudes(np.random.default_rng(16), 6)
        lines = [f"{float(a.real)!r} {float(a.imag)!r}  # amplitude {k}\n\n" for k, a in enumerate(amps)]
        state = load_state("# six qubits\n" + "".join(lines), 6)
        assert np.array_equal(state.amplitudes, amps / np.linalg.norm(amps))

    def test_first_bad_line_in_file_order_whatever_the_fault_of_a_later_one(self):
        with pytest.raises(ValueError, match="line 2: bad amplitude '0.8 x'"):
            load_state("0.6 0\n0.8 x\n\n0 0 0\n", 1)
        with pytest.raises(ValueError, match="line 2: expected"):
            load_state("0.6 0\n0.8\n0 x\n", 1)

    def test_comments_blank_lines_and_crlf_read_as_the_plain_file(self):
        amps = random_state_amplitudes(np.random.default_rng(27), 4)
        pairs = [f"{float(a.real)!r} {float(a.imag)!r}" for a in amps]
        plain = load_state("".join(pair + "\n" for pair in pairs), 4)
        marked = load_state("# four qubits\r\n\r\n" + "".join(f"{p}  # {k}\r\n\r\n" for k, p in enumerate(pairs)), 4)
        assert plain.amplitudes.tobytes() == marked.amplitudes.tobytes()
