"""Tests for basis-selection strategies and the closed-form simplex solver."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_shadows import (
    AdaptiveBasisSampler,
    Hamiltonian,
    ProductBasisSampler,
    closed_form_distribution,
    diagonal_cost,
    locally_biased_distribution,
    parse_hamiltonian,
    uniform_distribution,
)
from pauli_shadows import sampling
from pauli_shadows.paulis import covers
from pauli_shadows.sampling import _lbcs_sweeps, product_distribution

from helpers import (
    coverage_count,
    exact_adaptive_distribution,
    grid_objective_minimum,
    random_hamiltonian,
    reference_aps_bases,
    simplex_grid,
)


def objective(costs, probs):
    total = 0.0
    for c, p in zip(costs, probs):
        if c == 0.0:
            continue
        if p == 0.0:
            return math.inf
        total += c / p
    return total


class TestClosedFormDistribution:
    def test_all_zero_masses_give_uniform(self):
        assert closed_form_distribution((0, 0, 0)).tolist() == [1 / 3, 1 / 3, 1 / 3]

    def test_symmetric_masses_give_uniform(self):
        assert closed_form_distribution((1, 1, 1)) == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_four_one_zero(self):
        dist = closed_form_distribution((4, 1, 0))
        assert dist == pytest.approx((2 / 3, 1 / 3, 0.0))
        assert dist[2] == 0.0

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            closed_form_distribution((-1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            closed_form_distribution((1.0, 0.0))
        with pytest.raises(ValueError):
            closed_form_distribution((np.nan, 1.0, 1.0))

    def test_infinite_mass_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            closed_form_distribution((np.inf, 1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            closed_form_distribution([[1.0, 0.0, 0.0], [0.0, 0.0, np.inf]])

    def test_beats_grid_search(self):
        grid = simplex_grid(1000)
        rng = np.random.default_rng(31)
        for _ in range(100):
            costs = rng.uniform(0.0, 10.0, size=3)
            costs[rng.random(3) < 0.2] = 0.0
            dist = closed_form_distribution(costs)
            assert objective(costs, dist) <= grid_objective_minimum(costs, grid) + 1e-6

    def test_batch_equals_rows_one_by_one(self):
        rng = np.random.default_rng(30)
        costs = rng.uniform(0.0, 10.0, size=(50, 3))
        costs[rng.random((50, 3)) < 0.3] = 0.0
        costs[7] = 0.0
        batch = closed_form_distribution(costs)
        assert batch.shape == (50, 3)
        for row, dist in zip(costs, batch):
            assert dist.tolist() == closed_form_distribution(row).tolist()

    @given(st.tuples(*[st.floats(min_value=0.0, max_value=100.0)] * 3))
    def test_always_a_valid_distribution(self, costs):
        dist = closed_form_distribution(costs)
        assert all(0.0 <= p <= 1.0 for p in dist)
        assert sum(dist) == pytest.approx(1.0, abs=1e-12)


class TestDistributionTypes:
    def test_basis_distribution_validation(self):
        with pytest.raises(ValueError):
            product_distribution([[0.5, 0.5, 0.5]])  # a row sums to 1.5
        with pytest.raises(ValueError):
            product_distribution([[1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 2e-12]])  # off by 2e-12
        with pytest.raises(ValueError):
            product_distribution([[-0.1, 0.6, 0.5]])
        with pytest.raises(ValueError):
            product_distribution([[1.0, 0.0]])  # not three letters
        with pytest.raises(ValueError):
            product_distribution([1.0, 0.0, 0.0])  # not a table

    def test_product_distribution(self):
        table = [[1.0, 0.0, 0.0], [0.25, 0.25, 0.5 + 1e-13]]
        probs = product_distribution(table)
        assert probs.dtype == np.float64 and probs.shape == (2, 3)
        np.testing.assert_array_equal(probs, table)
        assert not probs.flags.writeable
        with pytest.raises(ValueError):
            product_distribution(np.zeros((0, 3)))  # n = 0
        with pytest.raises(ValueError):
            uniform_distribution(0)


def adaptive_stage_distribution(sampler, ordering, prefix_draws, grid=20_000):
    """The letter probabilities APS uses at stage ``len(prefix_draws)`` for a fixed qubit order.

    Runs the real sampler on ``grid`` rows that share the order (as
    ``argsort`` ranks) and the earlier stages' letter draws, with the
    stage's own draw spread over the midpoints of [0, 1). Returns the
    letters the prefix draws chose and the fraction of rows that drew X,
    Y and Z at the stage, which is exact to 1 / grid.
    """
    n = len(ordering)
    stage = len(prefix_draws)
    u = np.full((grid, 2 * n), 0.5)
    u[:, list(ordering)] = np.arange(n) / n
    u[:, n : n + stage] = prefix_draws
    u[:, n + stage] = (np.arange(grid) + 0.5) / grid
    codes = sampler.bases(u)
    chosen = codes[0, list(ordering[:stage])].tolist()
    assert (codes[:, list(ordering[:stage])] == chosen).all()
    letters = codes[:, ordering[stage]]
    return chosen, tuple(float(np.mean(letters == code)) for code in (1, 2, 3))


def brute_force_stage_costs(hamiltonian, ordering, assigned_letters, stage):
    """Slow re-statement of the stage-mass definition, letter by letter."""
    qubit = ordering[stage]
    masses = {"X": 0.0, "Y": 0.0, "Z": 0.0}
    for alpha, word in hamiltonian.terms:
        if word[qubit] == "I":
            continue
        ok = True
        for j in range(stage):
            w = word[ordering[j]]
            if w != "I" and w != assigned_letters[j]:
                ok = False
        if ok:
            masses[word[qubit]] += alpha * alpha
    return (masses["X"], masses["Y"], masses["Z"])


class TestStageCosts:
    # The stage distributions of the adaptive sampler itself, read off by
    # fixing its qubit order and earlier draws.
    H = parse_hamiltonian("1.0 XX\n0.5 ZI")

    def test_first_stage(self):
        _, probs = adaptive_stage_distribution(AdaptiveBasisSampler(self.H), (0, 1), [])
        assert probs == pytest.approx((2 / 3, 0.0, 1 / 3), abs=1e-4)  # masses (1, 0, 0.25)

    def test_second_stage_after_x(self):
        chosen, probs = adaptive_stage_distribution(AdaptiveBasisSampler(self.H), (0, 1), [0.1])
        assert chosen == [1]
        assert probs == (1.0, 0.0, 0.0)  # masses (1, 0, 0)

    def test_second_stage_after_z(self):
        chosen, probs = adaptive_stage_distribution(AdaptiveBasisSampler(self.H), (0, 1), [0.9])
        assert chosen == [3]
        assert probs == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-4)  # masses (0, 0, 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(32)
        letters = {1: "X", 2: "Y", 3: "Z"}
        for _ in range(20):
            n = int(rng.integers(2, 5))
            h = random_hamiltonian(rng, n, int(rng.integers(2, 7)))
            ordering = tuple(int(q) for q in rng.permutation(n))
            stage = int(rng.integers(0, n))
            chosen, probs = adaptive_stage_distribution(
                AdaptiveBasisSampler(h), ordering, rng.random(stage).tolist(), grid=5000
            )
            expected = closed_form_distribution(
                brute_force_stage_costs(h, ordering, [letters[c] for c in chosen], stage)
            )
            assert probs == pytest.approx(expected.tolist(), abs=1e-3)

    def test_composes_to_conditional_example(self):
        # Stage distributions for the two-term Hamiltonian, given the
        # identity ordering: qubit 0 is (2/3, 0, 1/3); qubit 1 is X surely
        # after X, uniform after Z. Their products are the word probabilities.
        exact = exact_adaptive_distribution(self.H, ordering=(0, 1))
        assert exact == pytest.approx({"XX": 2 / 3, "ZX": 1 / 9, "ZY": 1 / 9, "ZZ": 1 / 9})
        sampler = AdaptiveBasisSampler(self.H)
        _, first = adaptive_stage_distribution(sampler, (0, 1), [])
        for word, p in exact.items():
            draw = 0.1 if word[0] == "X" else 0.9
            _, second = adaptive_stage_distribution(sampler, (0, 1), [draw])
            assert first["XYZ".index(word[0])] * second["XYZ".index(word[1])] == pytest.approx(p, abs=1e-4)


class TestAdaptiveChoice:
    def test_single_qubit_forced(self):
        sampler = AdaptiveBasisSampler(parse_hamiltonian("1.0 Z"))
        rng = np.random.default_rng(33)
        for _ in range(25):
            assert sampler.sample(rng) == "Z"

    def test_untouched_qubit_is_uniform(self):
        h = parse_hamiltonian("1.0 ZI")
        sampler = AdaptiveBasisSampler(h)
        rng = np.random.default_rng(34)
        draws = 30000
        counts = Counter(sampler.sample(rng) for _ in range(draws))
        assert set(c[0] for c in counts) == {"Z"}
        for letter in "XYZ":
            se = math.sqrt(draws * (1 / 3) * (2 / 3))
            assert abs(counts["Z" + letter] - draws / 3) <= 4 * se

    def test_empirical_frequencies_match_exact_enumeration(self):
        h = parse_hamiltonian("1.0 XX\n0.5 ZI\n-0.3 IY")
        exact = exact_adaptive_distribution(h)
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
        sampler = AdaptiveBasisSampler(h)
        rng = np.random.default_rng(35)
        draws = 60000
        counts = Counter(sampler.sample(rng) for _ in range(draws))
        for word in itertools.product("XYZ", repeat=2):
            word = "".join(word)
            p = exact.get(word, 0.0)
            if p == 0.0:
                assert counts[word] == 0
            else:
                se = math.sqrt(draws * p * (1 - p))
                assert abs(counts[word] - draws * p) <= 4 * max(se, 1.0)

    def test_weight_one_marginals_are_ordering_independent(self):
        # With only single-qubit terms, the prefix never constrains the
        # current stage, so each qubit's marginal equals the closed-form
        # distribution of its own squared-coefficient masses.
        h = parse_hamiltonian("0.8 ZII\n0.4 XII\n0.5 IYI\n-0.2 IIZ\n0.1 IIX")
        per_qubit_masses = [(0.16, 0.0, 0.64), (0.0, 0.25, 0.0), (0.01, 0.0, 0.04)]
        for ordering in itertools.permutations(range(3)):
            dist = exact_adaptive_distribution(h, ordering=ordering)
            for qubit in range(3):
                expected = closed_form_distribution(per_qubit_masses[qubit])
                for index, letter in enumerate("XYZ"):
                    marginal = sum(p for w, p in dist.items() if w[qubit] == letter)
                    assert marginal == pytest.approx(expected[index], abs=1e-12)

    def test_every_sampled_basis_covers_a_term(self):
        rng = np.random.default_rng(36)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            h = random_hamiltonian(rng, n, int(rng.integers(1, 6)))
            sampler = AdaptiveBasisSampler(h)
            for _ in range(200):
                basis = sampler.sample(rng)
                assert any(covers(basis, p) for p in h.paulis)

    def test_every_supported_basis_covers_a_term(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            h = random_hamiltonian(rng, 2, int(rng.integers(1, 5)))
            for word, p in exact_adaptive_distribution(h).items():
                if p > 0.0:
                    assert any(covers(word, q) for q in h.paulis)

    def test_identity_only_hamiltonian_is_uniform(self):
        sampler = AdaptiveBasisSampler(parse_hamiltonian("0.5 II"))
        rng = np.random.default_rng(38)
        counts = Counter(sampler.sample(rng) for _ in range(9000))
        for word in itertools.product("XYZ", repeat=2):
            word = "".join(word)
            se = math.sqrt(9000 * (1 / 9) * (8 / 9))
            assert abs(counts[word] - 1000) <= 4 * se


@st.composite
def aps_hamiltonians(draw):
    """Hamiltonians of 1-7 qubits and 1-60 terms with coefficients of size 1e-3 to 1e3.

    Besides random words, the draw can add weight-1 terms and give one
    qubit all three letters as weight-1 terms.
    """
    n = draw(st.integers(1, 7))
    letter = st.sampled_from("IXYZ")
    words = draw(st.lists(st.lists(letter, min_size=n, max_size=n).map("".join), max_size=60))
    for qubit, single in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from("XYZ")), max_size=6)):
        words.append("I" * qubit + single + "I" * (n - qubit - 1))
    full = draw(st.none() | st.integers(0, n - 1))
    if full is not None:
        words += ["I" * full + single + "I" * (n - full - 1) for single in "XYZ"]
    words = list(dict.fromkeys(w for w in words if w != "I" * n))[:60] or ["Z" * n]
    magnitude = st.floats(1e-3, 1e3)
    terms = [(draw(magnitude) * draw(st.sampled_from((1.0, -1.0))), w) for w in words]
    return Hamiltonian(n, terms)


class TestAdaptiveKernel:
    @given(aps_hamiltonians(), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_masked_sum_reference(self, h, per_slice, seed, data):
        # Uniforms from numpy, so that no draw sits exactly on a letter threshold.
        shots = data.draw(st.integers(per_slice + 1, 30))  # so at least two slices run
        u = np.random.default_rng(seed).random((shots, 2 * h.n))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_SLICE_CELLS", per_slice * h.n_terms)  # per_slice shots a slice
            np.testing.assert_array_equal(AdaptiveBasisSampler(h).bases(u), reference_aps_bases(h, u))

    def test_tables(self):
        h = parse_hamiltonian("1.0 XZ\n0.5 ZI\n-2.0 IY")
        sampler = AdaptiveBasisSampler(h)
        np.testing.assert_array_equal(
            sampler._weights,
            [[[1.0, 0, 0], [0, 0, 0.25], [0, 0, 0]], [[0, 0, 1.0], [0, 0, 0], [0, 4.0, 0]]],
        )
        np.testing.assert_array_equal(
            sampler._keep,
            [[[1, 0, 1], [0, 0, 1], [0, 1, 1]], [[0, 1, 0], [0, 1, 1], [1, 1, 0]]],
        )

    def test_overflowing_masses_rejected(self):
        h = parse_hamiltonian("1e200 ZI\n1.0 XX\n0.5 IY")
        with pytest.raises(ValueError, match="finite"):
            AdaptiveBasisSampler(h)
        with pytest.raises(ValueError, match="finite"):
            locally_biased_distribution(h)


class TestUniformAndProductSampling:
    def test_uniform_distribution_shapes(self):
        assert uniform_distribution(1)[0] == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        pd = uniform_distribution(3)
        assert pd.shape == (3, 3)
        assert all(d == pytest.approx((1 / 3, 1 / 3, 1 / 3)) for d in pd)

    def test_uniform_sampling_hits_all_bases(self):
        sampler = ProductBasisSampler(uniform_distribution(2))
        rng = np.random.default_rng(39)
        draws = 100000
        counts = Counter(sampler.sample(rng) for _ in range(draws))
        expected = draws / 9
        se = math.sqrt(draws * (1 / 9) * (8 / 9))
        for word in itertools.product("XYZ", repeat=2):
            assert abs(counts["".join(word)] - expected) <= 4 * se

    def test_deterministic_product_distributions(self):
        all_z = [[0.0, 0.0, 1.0]] * 3
        rng = np.random.default_rng(40)
        assert ProductBasisSampler(all_z).sample(rng) == "ZZZ"
        xz = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        assert ProductBasisSampler(xz).sample(rng) == "XZ"

    def test_single_qubit_uniform_frequencies(self):
        sampler = ProductBasisSampler(uniform_distribution(1))
        rng = np.random.default_rng(41)
        draws = 30000
        counts = Counter(sampler.sample(rng) for _ in range(draws))
        se = math.sqrt(draws * (1 / 3) * (2 / 3))
        for letter in "XYZ":
            assert abs(counts[letter] - draws / 3) <= 4 * se

    def test_zero_probability_letter_never_sampled(self):
        pd = [[0.5, 0.5, 0.0]]
        sampler = ProductBasisSampler(pd)
        rng = np.random.default_rng(42)
        assert all(sampler.sample(rng) != "Z" for _ in range(20000))


class TestDiagonalCost:
    def test_single_term_example(self):
        h = parse_hamiltonian("2.0 Z")
        assert diagonal_cost(h, uniform_distribution(1)) == pytest.approx(12.0)

    def test_uniform_closed_form_and_enumeration(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3, 4):
            h = random_hamiltonian(rng, n, min(6, 4 ** n - 1))
            pd = uniform_distribution(n)
            closed = sum(a * a * 3.0 ** (len(p) - p.count("I")) for a, p in h.terms)
            assert diagonal_cost(h, pd) == pytest.approx(closed, rel=1e-12)
            enumerated = 0.0
            for a, p in h.terms:
                enumerated += a * a / float(coverage_count(p, n))
            assert diagonal_cost(h, pd) == pytest.approx(enumerated, rel=1e-12)

    def test_zero_coverage_is_infinite(self):
        h = parse_hamiltonian("1.0 XI")
        all_z = [[0.0, 0.0, 1.0]] * 2
        assert diagonal_cost(h, all_z) == math.inf

    def test_offset_does_not_contribute(self):
        h = parse_hamiltonian("2.0 Z\n5.0 I")
        assert diagonal_cost(h, uniform_distribution(1)) == pytest.approx(12.0)


class TestLocallyBiasedDistribution:
    def test_single_letter_mass(self):
        pd = locally_biased_distribution(parse_hamiltonian("1.0 Z"))
        assert pd[0] == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_symmetric_two_letters(self):
        pd = locally_biased_distribution(parse_hamiltonian("1.0 X\n1.0 Z"))
        assert pd[0] == pytest.approx((0.5, 0.0, 0.5), abs=1e-12)

    def test_two_qubit_grid_search_oracle(self):
        # Dense search over both per-qubit simplices with step 0.01:
        # cost(W0, W1) = 1 / (W0_X * W1_X) + 0.25 / W0_Z for this fixture.
        h = parse_hamiltonian("1.0 XX\n0.5 ZI")
        pd = locally_biased_distribution(h)
        cost = diagonal_cost(h, pd)
        assert cost <= diagonal_cost(h, uniform_distribution(2))

        grid = simplex_grid(100)
        with np.errstate(divide="ignore"):
            inv_x1 = np.where(grid[:, 0] > 0.0, 1.0 / grid[:, 0], np.inf)
        best = math.inf
        for x0, _, z0 in grid:
            if x0 == 0.0 or z0 == 0.0:
                continue
            best = min(best, float(((1.0 / x0) * inv_x1).min()) + 0.25 / z0)
        assert abs(cost - best) <= 1e-3

    def test_cost_never_increases_across_sweeps(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            h = random_hamiltonian(rng, n, int(rng.integers(1, 7)))
            costs = [cost for _, cost in itertools.islice(_lbcs_sweeps(h, 40), 40)]
            for before, after in zip(costs, costs[1:]):
                assert after <= before * (1 + 1e-9) + 1e-12

    def test_beats_uniform_on_random_hamiltonians(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            h = random_hamiltonian(rng, n, int(rng.integers(1, 7)))
            pd = locally_biased_distribution(h)
            assert diagonal_cost(h, pd) <= diagonal_cost(h, uniform_distribution(n)) * (1 + 1e-9)

    def test_identity_only_hamiltonian(self):
        pd = locally_biased_distribution(parse_hamiltonian("1.0 II"))
        np.testing.assert_array_equal(pd, uniform_distribution(2))

    def test_rejects_bad_arguments(self):
        h = parse_hamiltonian("1.0 XX\n0.5 ZI")
        for tol in (np.nan, -1e-10):
            with pytest.raises(ValueError, match="tol"):
                locally_biased_distribution(h, tol=tol)
        with pytest.raises(ValueError):
            locally_biased_distribution(h, max_sweeps=0)


class TestSamplerDeterminism:
    def test_same_seed_same_bases(self):
        h = parse_hamiltonian("1.0 XX\n0.5 ZI\n-0.3 IY")
        for sampler in (AdaptiveBasisSampler(h), ProductBasisSampler(uniform_distribution(2))):
            a = [sampler.sample(np.random.default_rng(7)) for _ in range(1)]
            b = [sampler.sample(np.random.default_rng(7)) for _ in range(1)]
            assert a == b
