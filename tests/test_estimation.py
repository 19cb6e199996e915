"""Tests for the estimation pass, its per-term fold, and the exact variance oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_shadows import (
    AdaptiveBasisSampler,
    CapacityError,
    ProductBasisSampler,
    StateVector,
    estimate_energy,
    expectation,
    ground_state,
    hamiltonian_expectation,
    locally_biased_distribution,
    measurement_distribution,
    parse_hamiltonian,
    uniform_distribution,
)
from pauli_shadows.estimation import _fold
from pauli_shadows.paulis import covers, letter_codes

from helpers import (
    BELL_AMPLITUDES,
    all_bases,
    coverage_probability,
    exact_single_shot_variance,
    product_of_sigmas,
    random_hamiltonian,
    random_state_amplitudes,
    reference_estimate,
)


def z_pd(n):
    return np.array([[0.0, 0.0, 1.0]] * n)


def fold(terms, shots):
    """``_fold`` over term strings and (basis, outcome index) shots, as plain lists."""
    codes = np.stack([letter_codes(word) for word in terms])
    letters = np.stack([letter_codes(basis) for basis, _ in shots])
    outcomes = np.array([outcome for _, outcome in shots], dtype=np.int64)
    sums, counts = _fold(codes, letters, outcomes)
    return sums.tolist(), counts.tolist()


class TestAccumulator:
    # The per-term fold. Outcome indices put qubit 0 in the most
    # significant bit; a set bit is the readout -1.

    def test_first_sample(self):
        assert fold(["Z"], [("Z", 0)]) == ([1], [1])

    def test_mean_of_two(self):
        assert fold(["Z"], [("Z", 0), ("Z", 1)]) == ([0], [2])

    def test_uncovered_key_is_untouched(self):
        shots = [("XZ", 0), ("XZ", 0), ("XZ", 0), ("XZ", 1)]
        assert fold(["XZ"], shots) == ([2], [4])
        assert fold(["XZ"], shots + [("XY", 1)]) == ([2], [4])

    def test_identity_key_gets_plus_one(self):
        assert fold(["II"], [("XY", 3)]) == ([1], [1])

    def test_product_over_covered_positions(self):
        assert fold(["XIZ"], [("XYZ", 0b110)]) == ([-1], [1])  # middle qubit excluded

    def test_uncovered_listing(self):
        assert fold(["X", "Z"], [("Z", 0)]) == ([0, 1], [0, 1])

class TestEstimateEnergy:
    def test_deterministic_z_term(self):
        h = parse_hamiltonian("1.0 Z")
        state = StateVector.zero_state(1)
        rng = np.random.default_rng(0)
        for sampler in (
            ProductBasisSampler(uniform_distribution(1)),
            ProductBasisSampler(z_pd(1)),
            AdaptiveBasisSampler(h),
        ):
            result = estimate_energy(h, state, 10, sampler, rng)
            assert result.energy == 1.0
            assert result.shots_used == 10

    def test_identity_only_hamiltonian(self):
        h = parse_hamiltonian("0.375 II")
        state = StateVector.zero_state(2)
        rng = np.random.default_rng(1)
        result = estimate_energy(h, state, 7, AdaptiveBasisSampler(h), rng)
        assert result.energy == 0.375
        assert result.uncovered_terms == []

    def test_bell_fixture_lands_in_oracle_band(self):
        h = parse_hamiltonian("0.5 XX\n0.25 ZI")
        state = StateVector(BELL_AMPLITUDES)
        pd = uniform_distribution(2)
        exact = hamiltonian_expectation(state, h)
        assert exact == pytest.approx(0.5, abs=1e-12)
        variance = exact_single_shot_variance(h, state, pd)
        shots = 100_000
        rng = np.random.default_rng(2)
        result = estimate_energy(h, state, shots, ProductBasisSampler(pd), rng)
        assert abs(result.energy - exact) <= 4.0 * math.sqrt(variance / shots)

    def test_never_covered_terms_contribute_zero(self):
        h = parse_hamiltonian("1.0 X\n0.5 Z")
        state = StateVector.zero_state(1)
        rng = np.random.default_rng(3)
        result = estimate_energy(h, state, 50, ProductBasisSampler(z_pd(1)), rng)
        assert result.uncovered_terms == ["X"]
        assert result.energy == 0.5  # Z reads +1 every shot; X contributes 0

    def test_seed_replay_is_bit_identical(self):
        h = parse_hamiltonian("1.0 XX\n0.5 ZI\n-0.3 IY")
        _, state = ground_state(h)
        for make_sampler in (
            lambda: AdaptiveBasisSampler(h),
            lambda: ProductBasisSampler(uniform_distribution(2)),
        ):
            runs = [
                estimate_energy(h, state, 500, make_sampler(), np.random.default_rng(123))
                for _ in range(2)
            ]
            assert runs[0].energy == runs[1].energy
            np.testing.assert_array_equal(runs[0].sums, runs[1].sums)
            np.testing.assert_array_equal(runs[0].counts, runs[1].counts)

    def test_energy_identity_over_accumulator(self):
        h = parse_hamiltonian("0.7 XI\n0.5 ZZ\n0.3 IY\n0.2 II")
        _, state = ground_state(h)
        rng = np.random.default_rng(4)
        result = estimate_energy(h, state, 300, ProductBasisSampler(uniform_distribution(2)), rng)
        recomputed = h.offset + sum(alpha * mean for (alpha, _), mean in zip(h.terms, result.means))
        assert result.energy == pytest.approx(recomputed, abs=1e-14)

    def test_convergence_at_large_shots(self):
        h = parse_hamiltonian("0.6 XZ\n-0.4 ZI\n0.2 IY")
        _, state = ground_state(h)
        pd = uniform_distribution(2)
        exact = hamiltonian_expectation(state, h)
        variance = exact_single_shot_variance(h, state, pd)
        shots = 1_000_000
        rng = np.random.default_rng(5)
        result = estimate_energy(h, state, shots, ProductBasisSampler(pd), rng)
        assert abs(result.energy - exact) <= 4.0 * math.sqrt(variance / shots)

    def test_rejects_bad_arguments(self):
        h = parse_hamiltonian("1.0 Z")
        state = StateVector.zero_state(1)
        with pytest.raises(ValueError):
            estimate_energy(h, state, 0, ProductBasisSampler(uniform_distribution(1)), np.random.default_rng(0))
        with pytest.raises(ValueError):
            estimate_energy(h, StateVector.zero_state(2), 5, ProductBasisSampler(uniform_distribution(1)), np.random.default_rng(0))
        # A sampler whose bases are narrower or wider than the Hamiltonian.
        zz = parse_hamiltonian("1.0 ZZ")
        for width in (1, 3):
            with pytest.raises(ValueError):
                estimate_energy(zz, StateVector.zero_state(2), 5, ProductBasisSampler(z_pd(width)), np.random.default_rng(0))

        class IdentityLetterSampler:  # letter code 0 is I, which is no basis
            uniforms = 1

            def bases(self, u):
                return np.zeros((len(u), 1), dtype=np.uint8)

        with pytest.raises(ValueError):
            estimate_energy(h, state, 5, IdentityLetterSampler(), np.random.default_rng(0))


class TestReferenceEquivalence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        n_terms=st.integers(1, 8),
        shots=st.integers(1, 300),
        method=st.sampled_from(["cs", "lbcs", "aps"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_pass_matches_per_shot_loop(self, seed, n, n_terms, shots, method):
        # The reference draws one basis per shot through `sample`, so this
        # also pins that `bases` over k rows equals k calls of `sample`.
        rng = np.random.default_rng(seed)
        h = random_hamiltonian(rng, n, n_terms)
        state = StateVector(random_state_amplitudes(rng, n))
        samplers = {
            "cs": lambda: ProductBasisSampler(uniform_distribution(n)),
            "lbcs": lambda: ProductBasisSampler(locally_biased_distribution(h)),
            "aps": lambda: AdaptiveBasisSampler(h),
        }
        result = estimate_energy(h, state, shots, samplers[method](), np.random.default_rng(seed))
        energy, sums, counts = reference_estimate(h, state, shots, samplers[method](), np.random.default_rng(seed))
        assert abs(result.energy - energy) <= 1e-12
        assert result.sums.tolist() == sums
        assert result.counts.tolist() == counts

    def test_fold_slices_match_per_shot_loop(self):
        # 1500 shots of 40 terms take several slices of the fold.
        rng = np.random.default_rng(10)
        h = random_hamiltonian(rng, 4, 40)
        state = StateVector(random_state_amplitudes(rng, 4))
        result = estimate_energy(h, state, 1500, ProductBasisSampler(uniform_distribution(4)), np.random.default_rng(11))
        energy, sums, counts = reference_estimate(
            h, state, 1500, ProductBasisSampler(uniform_distribution(4)), np.random.default_rng(11)
        )
        assert abs(result.energy - energy) <= 1e-12
        assert result.sums.tolist() == sums
        assert result.counts.tolist() == counts


class TestConditionalMeans:
    def test_enumerated_conditional_mean_is_unbiased(self):
        # For a fixed product distribution, conditioning the product of
        # readouts on coverage leaves its mean at the exact expectation.
        rng = np.random.default_rng(6)
        for n in (1, 2):
            state = StateVector(random_state_amplitudes(rng, n))
            pd = rng.dirichlet((1.5, 1.5, 1.5), size=n)
            for word_codes in np.ndindex(*(4,) * n):
                word = "".join("IXYZ"[c] for c in word_codes)
                cover_prob = coverage_probability(pd, word)
                if cover_prob <= 0.0:
                    continue
                weighted = 0.0
                total = 0.0
                for basis in all_bases(n):
                    if not covers(basis, word):
                        continue
                    basis_prob = 1.0
                    for q in range(n):
                        basis_prob *= pd[q]["XYZ".index(basis[q])]
                    probs = measurement_distribution(state, basis)
                    inner = sum(p * product_of_sigmas(i, n, word) for i, p in enumerate(probs))
                    weighted += basis_prob * inner
                    total += basis_prob
                assert total == pytest.approx(cover_prob, abs=1e-12)
                assert weighted / total == pytest.approx(expectation(state, word), abs=1e-10)

    def test_adaptive_running_means_are_unbiased(self):
        # APS bases are not product-distributed, but coverage still only
        # depends on the basis, so each term's conditional mean matches
        # its exact expectation within sampling error.
        h = parse_hamiltonian("1.0 XX\n0.5 ZI\n-0.3 IY")
        _, state = ground_state(h)
        shots = 100_000
        rng = np.random.default_rng(7)
        result = estimate_energy(h, state, shots, AdaptiveBasisSampler(h), rng)
        for (_, pauli), mu, s in zip(h.terms, result.means, result.counts):
            assert s > 100
            exact = expectation(state, pauli)
            spread = math.sqrt(max(1.0 - exact * exact, 1e-12) / s)
            assert abs(mu - exact) <= 4.0 * spread + 1e-9


class TestExactVariance:
    def test_deterministic_outcome(self):
        h = parse_hamiltonian("1.0 Z")
        assert exact_single_shot_variance(h, StateVector.zero_state(1), z_pd(1)) == 0.0

    def test_coin_flip_outcome(self):
        h = parse_hamiltonian("1.0 Z")
        plus = StateVector([math.sqrt(0.5), math.sqrt(0.5)])
        assert exact_single_shot_variance(h, plus, z_pd(1)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_coverage_is_infinite(self):
        h = parse_hamiltonian("1.0 X")
        assert exact_single_shot_variance(h, StateVector.zero_state(1), z_pd(1)) == math.inf

    def test_capacity_limit(self):
        h = parse_hamiltonian("1.0 ZZZZZ")
        with pytest.raises(CapacityError):
            exact_single_shot_variance(h, StateVector.zero_state(5), uniform_distribution(5))

    def test_monte_carlo_cross_check(self):
        # Empirical variance of 10^6 single-shot estimates, sampled by
        # lookup tables, agrees with the enumerated value to 3 SE.
        h = parse_hamiltonian("1.0 X\n1.0 Z")
        state = StateVector.zero_state(1)
        pd = uniform_distribution(1)
        enumerated = exact_single_shot_variance(h, state, pd)

        rng = np.random.default_rng(8)
        bases = all_bases(1)
        coverages = {p: coverage_probability(pd, p) for p in h.paulis}
        estimate_table = np.zeros((3, 2))
        prob_table = np.zeros((3, 2))
        for b_index, basis in enumerate(bases):
            prob_table[b_index] = measurement_distribution(state, basis)
            for o_index in range(2):
                value = 0.0
                for alpha, pauli in h.terms:
                    if covers(basis, pauli):
                        value += (
                            alpha
                            * product_of_sigmas(o_index, 1, pauli)
                            / coverages[pauli]
                        )
                estimate_table[b_index, o_index] = value

        draws = 1_000_000
        basis_indices = rng.integers(0, 3, size=draws)
        uniforms = rng.random(draws)
        outcome_indices = (uniforms >= prob_table[basis_indices, 0]).astype(int)
        samples = estimate_table[basis_indices, outcome_indices]
        sample_variance = samples.var()
        centered = samples - samples.mean()
        fourth = np.mean(centered**4)
        se_variance = math.sqrt((fourth - sample_variance**2) / draws)
        assert abs(sample_variance - enumerated) <= 3.0 * se_variance

    def test_mean_check_on_random_instances(self):
        # The oracle raises internally if the enumerated mean drifts from
        # the exact energy; 20 random instances must all pass.
        rng = np.random.default_rng(9)
        for _ in range(20):
            h = random_hamiltonian(rng, 2, int(rng.integers(1, 6)))
            state = StateVector(random_state_amplitudes(rng, 2))
            table = rng.dirichlet((2.0, 2.0, 2.0), size=2)
            table = np.maximum(table, 0.05)
            table /= table.sum(axis=1, keepdims=True)
            value = exact_single_shot_variance(h, state, table)
            assert value >= 0.0 and math.isfinite(value)

    def test_offset_shifts_mean_not_variance(self):
        h_plain = parse_hamiltonian("0.8 Z")
        h_shifted = parse_hamiltonian("0.8 Z\n3.0 I")
        plus = StateVector([math.sqrt(0.5), math.sqrt(0.5)])
        v_plain = exact_single_shot_variance(h_plain, plus, uniform_distribution(1))
        v_shifted = exact_single_shot_variance(h_shifted, plus, uniform_distribution(1))
        assert v_plain == pytest.approx(v_shifted, abs=1e-12)
