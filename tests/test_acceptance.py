"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and
prints a ``ACCEPTANCE <k> (<name>): PASS|FAIL`` line (visible with
``pytest -s``). Statistical criteria run at fixed seeds; their margins
were sized so the checks are deterministic and comfortably inside the
stated bands.
"""

import itertools
import json
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from pauli_shadows import (
    AdaptiveBasisSampler,
    ExperimentConfig,
    ProductBasisSampler,
    StateVector,
    closed_form_distribution,
    compare_methods,
    estimate_energy,
    expectation,
    ground_state,
    hamiltonian_expectation,
    load_hamiltonian,
    locally_biased_distribution,
    measurement_distribution,
    parse_hamiltonian,
    run_benchmark,
    sample_measurement,
    uniform_distribution,
)
from pauli_shadows.benchmark import reports_to_json

from helpers import (
    BELL_AMPLITUDES,
    all_bases,
    exact_single_shot_variance,
    product_of_sigmas,
    random_hamiltonian,
    random_state_amplitudes,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

TWO_QUBIT_FIXTURES = [
    """
    -0.7491850809676169 ZI
    0.2161327952685212 ZX
    0.11042644173216258 YX
    -0.5378738040148249 XI
    0.7062892015167701 YZ
    -0.7056551989906156 IY
    """,
    """
    0.6845716431159987 IY
    -0.44964072521211207 IX
    -0.40620825309008135 IZ
    -0.7622793947075194 YX
    """,
]


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_closed_form_optimality():
    with criterion(1, "closed-form simplex optimality"):
        started = time.perf_counter()
        steps = 1000
        i_grid, j_grid = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        keep = i_grid + j_grid <= steps
        grid = np.stack(
            [i_grid[keep], j_grid[keep], steps - i_grid[keep] - j_grid[keep]], axis=1
        ) / steps
        with np.errstate(divide="ignore"):
            inverse = np.where(grid > 0.0, 1.0 / grid, np.inf)

        rng = np.random.default_rng(2024)
        for _ in range(1000):
            costs = rng.uniform(0.0, 10.0, size=3)
            costs[rng.random(3) < 0.2] = 0.0
            dist = closed_form_distribution(costs)
            value = sum(
                c / p for c, p in zip(costs, dist) if c > 0.0
            ) if all(p > 0.0 for c, p in zip(costs, dist) if c > 0.0) else math.inf
            total = np.zeros(len(grid))
            for column in range(3):
                if costs[column] > 0.0:
                    total = total + costs[column] * inverse[:, column]
            grid_minimum = float(total.min())
            assert value <= grid_minimum + 1e-6
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_measurement_correctness():
    with criterion(2, "measurement sampling vs exact distribution"):
        started = time.perf_counter()
        rng = np.random.default_rng(77)
        fixtures = [
            (StateVector.zero_state(3), "XYZ"),
            (StateVector(BELL_AMPLITUDES), "ZZ"),
            (StateVector(BELL_AMPLITUDES), "XX"),
            (StateVector(random_state_amplitudes(rng, 3)), "YZX"),
            (StateVector(random_state_amplitudes(rng, 2)), "XY"),
        ]
        draws = 100_000
        for state, basis in fixtures:
            n = state.n
            probs = measurement_distribution(state, basis)
            counts = np.zeros(2**n)
            for _ in range(draws):
                outcome = sample_measurement(state, basis, rng)
                index = 0
                for sigma in outcome:
                    index = (index << 1) | (sigma < 0)
                counts[index] += 1
            for k in range(2**n):
                se = math.sqrt(max(draws * probs[k] * (1.0 - probs[k]), 1.0))
                assert abs(counts[k] - draws * probs[k]) <= 4.0 * se

            # weighted ±1 products reproduce every covered expectation exactly
            for word_codes in np.ndindex(*(4,) * n):
                word = "".join("IXYZ"[c] for c in word_codes)
                if not all(w == "I" or w == b for w, b in zip(word, basis)):
                    continue
                weighted = sum(p * product_of_sigmas(i, n, word) for i, p in enumerate(probs))
                assert weighted == pytest.approx(expectation(state, word), abs=1e-10)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_estimator_unbiasedness():
    with criterion(3, "estimator lands inside 4-sigma oracle bands"):
        started = time.perf_counter()
        rng = np.random.default_rng(31337)
        shots = 100_000
        pilot_shots = 10_000
        for index in range(10):
            h = random_hamiltonian(rng, 2, int(rng.integers(2, 7)), coeff_range=(0.1, 0.9))
            _, state = ground_state(h)
            exact = hamiltonian_expectation(state, h)

            for method in ("cs", "lbcs", "aps"):
                if method == "aps":
                    # per-shot variance inferred from 10 pilot repetitions
                    pilots = [
                        estimate_energy(
                            h, state, pilot_shots, AdaptiveBasisSampler(h),
                            np.random.default_rng(np.random.SeedSequence([500 + index, r])),
                        ).energy
                        for r in range(10)
                    ]
                    variance = float(np.var(pilots)) * pilot_shots
                    sampler = AdaptiveBasisSampler(h)
                else:
                    pd = (
                        uniform_distribution(2)
                        if method == "cs"
                        else locally_biased_distribution(h)
                    )
                    variance = exact_single_shot_variance(h, state, pd)
                    sampler = ProductBasisSampler(pd)
                run_rng = np.random.default_rng(np.random.SeedSequence([900 + index]))
                result = estimate_energy(h, state, shots, sampler, run_rng)
                band = 4.0 * math.sqrt(variance / shots)
                assert abs(result.energy - exact) <= band + 1e-12, (
                    f"H#{index} {method}: |{result.energy - exact:.3e}| > {band:.3e}"
                )
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"


def test_criterion_4_analytic_error_consistency():
    with criterion(4, "LBCS empirical RMS vs sqrt(var/1000)"):
        started = time.perf_counter()
        shots = 1000
        repetitions = 200
        for text in TWO_QUBIT_FIXTURES:
            h = parse_hamiltonian(text)
            _, state = ground_state(h)
            pd = locally_biased_distribution(h)
            predicted = math.sqrt(exact_single_shot_variance(h, state, pd) / shots)
            exact = hamiltonian_expectation(state, h)
            errors = []
            for r in range(repetitions):
                rng = np.random.default_rng(np.random.SeedSequence([4, r]))
                result = estimate_energy(h, state, shots, ProductBasisSampler(pd), rng)
                errors.append(result.energy - exact)
            rms = math.sqrt(float(np.mean(np.square(errors))))
            assert predicted / 1.5 <= rms <= predicted * 1.5, (
                f"rms {rms:.4f} vs predicted {predicted:.4f}"
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_method_ordering_on_fixtures():
    with criterion(5, "rms(APS) <= rms(LBCS) <= rms(CS) on shipped fixtures"):
        started = time.perf_counter()
        fixture_paths = sorted(FIXTURE_DIR.glob("fixture_*.ham"))
        assert len(fixture_paths) == 3
        rows = {}
        for path in fixture_paths:
            h = load_hamiltonian(path)
            magnitudes = np.abs(h.coeffs)
            assert 6 <= h.n <= 8
            assert 30 <= h.n_terms <= 120
            assert magnitudes.max() / magnitudes.min() >= 100.0
            reports = compare_methods(
                ExperimentConfig(
                    hamiltonian_path=str(path), shots=1000, repetitions=50, master_seed=2
                )
            )
            rows[path.name] = {r.config.method: r.rms_error for r in reports}
            print(
                f"  {path.name}: cs={rows[path.name]['cs']:.4f} "
                f"lbcs={rows[path.name]['lbcs']:.4f} aps={rows[path.name]['aps']:.4f}"
            )

        # each inequality may fail on at most one fixture, by less than 10%
        for upper, lower in (("lbcs", "aps"), ("cs", "lbcs")):
            violations = [
                rows[name][lower] / rows[name][upper]
                for name in rows
                if rows[name][lower] > rows[name][upper]
            ]
            assert len(violations) <= 1, f"{lower} <= {upper} fails on {len(violations)} fixtures"
            assert all(v < 1.10 for v in violations), f"{lower} <= {upper} margin too large"
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"criterion 5 took {elapsed:.1f}s"


H2_FIXTURE_ENV = "PAULI_SHADOWS_H2_JW"


def _h2_fixture_path():
    candidate = os.environ.get(H2_FIXTURE_ENV)
    if candidate and Path(candidate).exists():
        return Path(candidate)
    default = FIXTURE_DIR / "h2_jw_8q.ham"
    return default if default.exists() else None


def test_criterion_6_h2_spot_check():
    path = _h2_fixture_path()
    if path is None:
        pytest.skip(
            "conditional criterion: drop an externally generated 8-qubit H2 "
            f"Jordan-Wigner Hamiltonian at fixtures/h2_jw_8q.ham or set ${H2_FIXTURE_ENV}"
        )
    with criterion(6, "H2/JW error spot-check"):
        h = load_hamiltonian(path)
        assert h.n == 8, "expected the 8-qubit H2 encoding"
        base = ExperimentConfig(hamiltonian_path=str(path), shots=1000, repetitions=10, master_seed=6)
        from dataclasses import replace

        cs_report = run_benchmark(replace(base, method="cs", repetitions=1))
        assert 0.15 <= cs_report.predicted_error <= 0.35
        lbcs_report = run_benchmark(replace(base, method="lbcs", repetitions=1))
        assert 0.08 <= lbcs_report.predicted_error <= 0.20
        aps_report = run_benchmark(replace(base, method="aps"))
        assert 0.04 <= aps_report.rms_error <= 0.16


def test_criterion_7_basis_selection_scaling():
    with criterion(7, "per-shot adaptive selection scales like n_terms * n"):
        started = time.perf_counter()
        rng = np.random.default_rng(404)
        sizes = [(4, 10), (6, 30), (8, 60), (10, 150), (12, 300)]
        xs, ys = [], []
        for n, m in sizes:
            h = random_hamiltonian(rng, n, m, max_weight=min(n, 4), coeff_range=(0.02, 0.5))
            sampler = AdaptiveBasisSampler(h)
            draws = max(300, int(3e5 / (n * m)))
            best = math.inf
            for _ in range(3):
                timer_rng = np.random.default_rng(11)
                tick = time.perf_counter()
                for _ in range(draws):
                    sampler.sample(timer_rng)
                best = min(best, (time.perf_counter() - tick) / draws)
            xs.append(math.log(n * m))
            ys.append(math.log(best))
            print(f"  n={n:3d} m={m:4d}: {best * 1e6:8.2f} us/draw")
        slope = float(np.polyfit(xs, ys, 1)[0])
        print(f"  log-log slope = {slope:.3f}")
        assert slope <= 1.2
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_8_byte_identical_reports(tmp_path):
    with criterion(8, "byte-identical JSON reports, any worker count"):
        fixture = sorted(FIXTURE_DIR.glob("fixture_*.ham"))[0]
        blobs = []
        for workers in (1, 1, 3):
            config = ExperimentConfig(
                hamiltonian_path=str(fixture),
                method="aps",
                shots=400,
                repetitions=6,
                master_seed=88,
                workers=workers,
            )
            report = run_benchmark(config)
            out = tmp_path / f"report_w{workers}_{len(blobs)}.json"
            out.write_text(reports_to_json([report]), encoding="utf-8")
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        parsed = json.loads(blobs[0])
        assert parsed["reports"][0]["master_seed"] == 88
