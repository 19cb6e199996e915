"""Tests for the benchmark harness and report formats."""

import json
import math

import numpy as np
import pytest

from pauli_shadows import (
    ExperimentConfig,
    compare_methods,
    ground_state,
    locally_biased_distribution,
    parse_hamiltonian,
    run_benchmark,
)
from pauli_shadows.benchmark import CSV_COLUMNS, reports_to_csv, reports_to_json, write_reports

from helpers import exact_single_shot_variance

SINGLE_Z = "1.0 Z\n"

# 2-qubit fixture whose running-mean RMS tracks the reweighted-estimator
# prediction closely (per-term expectations well away from ±1).
TWO_QUBIT_FIXTURE = """
-0.7491850809676169 ZI
0.2161327952685212 ZX
0.11042644173216258 YX
-0.5378738040148249 XI
0.7062892015167701 YZ
-0.7056551989906156 IY
"""


@pytest.fixture
def z_config(tmp_path):
    path = tmp_path / "z.ham"
    path.write_text(SINGLE_Z)
    return ExperimentConfig(hamiltonian_path=str(path), shots=100, repetitions=5, master_seed=0)


class TestExperimentConfig:
    def test_validation(self, tmp_path):
        path = str(tmp_path / "h.ham")
        with pytest.raises(ValueError):
            ExperimentConfig(hamiltonian_path=path, method="bad")
        with pytest.raises(ValueError):
            ExperimentConfig(hamiltonian_path=path, shots=0)
        with pytest.raises(ValueError):
            ExperimentConfig(hamiltonian_path=path, repetitions=0)
        with pytest.raises(ValueError):
            ExperimentConfig(hamiltonian_path=path, workers=0)
        for tol in (math.nan, -1e-10, math.inf):
            with pytest.raises(ValueError, match="lbcs_tol"):
                ExperimentConfig(hamiltonian_path=path, lbcs_tol=tol)


class TestRunBenchmark:
    def test_deterministic_term_has_zero_error(self, z_config):
        from dataclasses import replace

        for method in ("cs", "lbcs", "aps"):
            report = run_benchmark(replace(z_config, method=method))
            assert report.exact_energy == pytest.approx(-1.0, abs=1e-8)
            assert report.estimates == pytest.approx([-1.0] * 5, abs=1e-9)
            assert report.rms_error == pytest.approx(0.0, abs=1e-9)

    def test_rms_matches_estimates(self, z_config):
        report = run_benchmark(z_config)
        recomputed = math.sqrt(
            sum((e - report.exact_energy) ** 2 for e in report.estimates) / len(report.estimates)
        )
        assert report.rms_error == recomputed

    def test_cs_predicted_error_closed_form(self, tmp_path):
        path = tmp_path / "h.ham"
        path.write_text("0.5 XZ\n-0.25 ZI\n0.125 IY\n")
        config = ExperimentConfig(
            hamiltonian_path=str(path), method="cs", shots=400, repetitions=2
        )
        report = run_benchmark(config)
        h = parse_hamiltonian(path.read_text())
        closed_form = math.sqrt(
            sum(a * a * 3.0 ** (len(p) - p.count("I")) for a, p in h.terms) / 400
        )
        assert report.predicted_error == pytest.approx(closed_form, rel=1e-12)

    def test_lbcs_rms_within_factor_two_of_oracle(self, tmp_path):
        path = tmp_path / "two.ham"
        path.write_text(TWO_QUBIT_FIXTURE)
        config = ExperimentConfig(
            hamiltonian_path=str(path), method="lbcs", shots=1000, repetitions=50, master_seed=5
        )
        report = run_benchmark(config)
        h = parse_hamiltonian(TWO_QUBIT_FIXTURE)
        _, state = ground_state(h)
        oracle = exact_single_shot_variance(h, state, locally_biased_distribution(h))
        predicted = math.sqrt(oracle / 1000)
        assert predicted / 2 <= report.rms_error <= predicted * 2

    def test_state_file_source(self, tmp_path):
        ham = tmp_path / "z.ham"
        ham.write_text(SINGLE_Z)
        state_file = tmp_path / "one.state"
        state_file.write_text("0 0\n1 0\n")  # |1>, so <Z> = -1 exactly
        config = ExperimentConfig(
            hamiltonian_path=str(ham), state_path=str(state_file), shots=50, repetitions=3
        )
        report = run_benchmark(config)
        assert report.state_source == str(state_file)
        assert report.exact_energy == pytest.approx(-1.0)
        assert report.rms_error == pytest.approx(0.0, abs=1e-12)

    def test_missing_file_errors_with_context(self, tmp_path):
        config = ExperimentConfig(hamiltonian_path=str(tmp_path / "missing.ham"))
        with pytest.raises(OSError):
            run_benchmark(config)

    def test_uncovered_counts_recorded(self, z_config):
        report = run_benchmark(z_config)
        assert report.uncovered_counts == [0] * 5

    def test_timings_recorded_but_not_serialized(self, z_config):
        report = run_benchmark(z_config)
        assert report.timings["wall_time_s"] > 0
        assert "timings" not in report.to_json_dict()
        assert "wall_time" not in json.dumps(report.to_json_dict())


class TestDeterminism:
    def test_identical_configs_identical_json(self, tmp_path):
        path = tmp_path / "h.ham"
        path.write_text("0.5 XZ\n-0.25 ZI\n")
        config = ExperimentConfig(
            hamiltonian_path=str(path), method="aps", shots=200, repetitions=4, master_seed=11
        )
        first = reports_to_json([run_benchmark(config)])
        second = reports_to_json([run_benchmark(config)])
        assert first == second

    def test_worker_count_does_not_change_results(self, tmp_path):
        path = tmp_path / "h.ham"
        path.write_text("0.5 XZ\n-0.25 ZI\n")
        base = ExperimentConfig(
            hamiltonian_path=str(path), method="lbcs", shots=200, repetitions=4, master_seed=3
        )
        from dataclasses import replace

        serial = run_benchmark(base)
        parallel = run_benchmark(replace(base, workers=2))
        assert serial.estimates == parallel.estimates
        assert reports_to_json([serial]) == reports_to_json([parallel])


class TestCompareMethods:
    def test_trivial_fixture_all_zero(self, z_config):
        reports = compare_methods(z_config)
        assert [r.config.method for r in reports] == ["cs", "lbcs", "aps"]
        for report in reports:
            assert report.rms_error == pytest.approx(0.0, abs=1e-9)
        # cs and lbcs carry a product distribution and a prediction; aps does not
        assert reports[0].predicted_error is not None
        assert reports[1].predicted_error is not None
        assert reports[2].predicted_error is None
        assert reports[2].distribution is None

    def test_ground_state_solved_once(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from pauli_shadows import benchmark

        path = tmp_path / "h.ham"
        path.write_text("0.5 XZ\n-0.25 ZI\n0.3 YY\n")
        config = ExperimentConfig(hamiltonian_path=str(path), shots=200, repetitions=3, master_seed=2)
        calls = []

        def counting_ground_state(*args, **kwargs):
            calls.append(args)
            return ground_state(*args, **kwargs)

        monkeypatch.setattr(benchmark, "ground_state", counting_ground_state)
        compared = reports_to_json(compare_methods(config))
        assert len(calls) == 1
        separate = reports_to_json([run_benchmark(replace(config, method=m)) for m in ("cs", "lbcs", "aps")])
        assert compared == separate

    def test_one_pool_and_worker_count_does_not_change_json(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from pauli_shadows import benchmark

        path = tmp_path / "h.ham"
        path.write_text("0.5 XZ\n-0.25 ZI\n0.3 YY\n")
        config = ExperimentConfig(hamiltonian_path=str(path), shots=200, repetitions=4, master_seed=9)
        pools = []

        class CountingPool(benchmark.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(benchmark, "ProcessPoolExecutor", CountingPool)
        serial = reports_to_json(compare_methods(config))
        assert pools == []
        parallel = reports_to_json(compare_methods(replace(config, workers=2)))
        assert len(pools) == 1
        assert parallel == serial


class TestReportFormats:
    def test_csv_columns_and_rows(self, z_config):
        reports = compare_methods(z_config)
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "cs"
        assert first[1] == "100" and first[2] == "5"
        assert first[7] != ""  # wall time present

    def test_aps_csv_has_blank_prediction(self, z_config):
        from dataclasses import replace

        report = run_benchmark(replace(z_config, method="aps"))
        row = report.to_csv_row()
        assert row[6] == ""

    def test_infinite_prediction_flagged(self, z_config):
        report = run_benchmark(z_config)
        report.cost = math.inf
        assert report.to_csv_row()[6] == "inf"
        payload = report.to_json_dict()
        assert payload["predicted_error"] is None
        assert payload["predicted_error_infinite"] is True

    def test_write_reports(self, z_config, tmp_path):
        report = run_benchmark(z_config)
        json_path = tmp_path / "out.json"
        write_reports([report], json_path, "json")
        parsed = json.loads(json_path.read_text())
        assert parsed["reports"][0]["method"] == "cs"
        assert parsed["reports"][0]["exact_energy"] == pytest.approx(-1.0)
        csv_path = tmp_path / "out.csv"
        write_reports([report], csv_path, "csv")
        assert csv_path.read_text().startswith("method,")
