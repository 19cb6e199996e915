"""End-to-end tests for the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pauli_shadows import ExperimentConfig
from pauli_shadows.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def ham_file(tmp_path):
    path = tmp_path / "h.ham"
    path.write_text("0.5 XZ\n-0.25 ZI\n")
    return path


def run_cli(args):
    return main([str(a) for a in args])


class TestEstimate:
    def test_json_report(self, ham_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            ["estimate", "--hamiltonian", ham_file, "--method", "cs",
             "--shots", 100, "--reps", 3, "--seed", 7, "--out", out]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["reports"]) == 1
        report = payload["reports"][0]
        assert report["method"] == "cs"
        assert report["shots"] == 100 and report["repetitions"] == 3
        assert len(report["estimates"]) == 3
        captured = capsys.readouterr()
        assert "rms=" in captured.out
        assert str(out) in captured.out

    def test_csv_report(self, ham_file, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(
            ["estimate", "--hamiltonian", ham_file, "--method", "lbcs",
             "--shots", 50, "--reps", 2, "--out", out, "--format", "csv"]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "method,shots,reps,exact_energy,rms_error,mean_abs_error,predicted_error,wall_time_s"
        assert lines[1].startswith("lbcs,50,2,")

    def test_state_flag(self, ham_file, tmp_path):
        state = tmp_path / "s.state"
        state.write_text("1 0\n0 0\n0 0\n0 0\n")
        out = tmp_path / "report.json"
        code = run_cli(
            ["estimate", "--hamiltonian", ham_file, "--method", "aps",
             "--shots", 20, "--reps", 2, "--state", state, "--out", out]
        )
        assert code == 0
        report = json.loads(out.read_text())["reports"][0]
        assert report["state_source"] == str(state)

    def test_workers_flag(self, ham_file, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["estimate", "--hamiltonian", ham_file, "--method", "cs",
             "--shots", 50, "--reps", 4, "--workers", 2, "--out", out]
        )
        assert code == 0


class TestCompare:
    def test_three_rows(self, ham_file, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run_cli(
            ["compare", "--hamiltonian", ham_file, "--shots", 50, "--reps", 2,
             "--out", out, "--format", "csv"]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert [line.split(",")[0] for line in lines] == ["method", "cs", "lbcs", "aps"]

    def test_json_order(self, ham_file, tmp_path):
        out = tmp_path / "cmp.json"
        code = run_cli(
            ["compare", "--hamiltonian", ham_file, "--shots", 50, "--reps", 2, "--out", out]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [r["method"] for r in payload["reports"]] == ["cs", "lbcs", "aps"]


    def test_identity_only_hamiltonian(self, tmp_path):
        # No terms: the exact energy and every estimate are the offset itself.
        ham = tmp_path / "identity.ham"
        ham.write_text("0.75 II\n")
        out = tmp_path / "cmp.json"
        assert run_cli(["compare", "--hamiltonian", ham, "--shots", 50, "--reps", 3, "--out", out]) == 0
        reports = json.loads(out.read_text())["reports"]
        for report in reports:
            assert report["exact_energy"] == 0.75
            assert report["estimates"] == [0.75] * 3
            assert report["rms_error"] == 0.0
        assert [r["predicted_error"] for r in reports] == [0.0, 0.0, None]


class TestDefaults:
    """A flag left out keeps the ExperimentConfig field's default."""

    DEFAULTS = {field.name: field.default for field in dataclasses.fields(ExperimentConfig)}

    def _assert_defaults(self, report):
        assert report["shots"] == self.DEFAULTS["shots"]
        assert report["repetitions"] == self.DEFAULTS["repetitions"]
        assert report["master_seed"] == self.DEFAULTS["master_seed"]
        assert report["state_source"] == "ground_state"  # state_path None
        assert len(report["estimates"]) == self.DEFAULTS["repetitions"]

    def test_estimate_with_only_required_flags(self, ham_file, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["estimate", "--hamiltonian", ham_file, "--method", "lbcs", "--out", out]) == 0
        [report] = json.loads(out.read_text())["reports"]
        assert report["method"] == "lbcs"
        self._assert_defaults(report)

    def test_compare_with_only_required_flags(self, ham_file, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["compare", "--hamiltonian", ham_file, "--out", out]) == 0
        reports = json.loads(out.read_text())["reports"]
        assert [r["method"] for r in reports] == ["cs", "lbcs", "aps"]
        for report in reports:
            self._assert_defaults(report)

    def test_compare_takes_no_method(self, ham_file, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["compare", "--hamiltonian", ham_file, "--method", "cs", "--out", tmp_path / "r.json"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [["estimate", "--method", "lbcs"], ["compare"]], ids=["estimate", "compare"])
    def test_lbcs_tol_is_refused(self, command, ham_file, tmp_path):
        # LBCS stops on its fixed rule (sampling.LBCS_TOL, LBCS_MAX_SWEEPS); no flag sets either.
        with pytest.raises(SystemExit) as excinfo:
            run_cli([*command, "--hamiltonian", ham_file, "--lbcs-tol", "1e-10", "--out", tmp_path / "r.json"])
        assert excinfo.value.code == 2


class TestModuleEntryPoint:
    """``python -m pauli_shadows.cli`` exits with ``main``'s return value."""

    @staticmethod
    def _run_module(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "pauli_shadows.cli", *map(str, args)],
            env=env, capture_output=True, text=True, timeout=300,
        )

    def test_good_run_exits_zero(self, ham_file, tmp_path):
        out = tmp_path / "r.json"
        done = self._run_module("estimate", "--hamiltonian", ham_file, "--method", "cs",
                                "--shots", 20, "--reps", 2, "--out", out)
        assert done.returncode == 0, done.stderr
        assert f"wrote json report to {out}" in done.stdout
        assert json.loads(out.read_text())["reports"][0]["shots"] == 20

    def test_bad_config_exits_two(self, ham_file, tmp_path):
        done = self._run_module("estimate", "--hamiltonian", ham_file, "--method", "cs",
                                "--shots", 0, "--out", tmp_path / "r.json")
        assert done.returncode == 2
        assert "error: shots must be at least 1" in done.stderr


class TestErrors:
    def test_non_utf8_hamiltonian_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bin.ham"
        bad.write_bytes(b"\xff0.5 XZ\n")
        code = run_cli(["estimate", "--hamiltonian", bad, "--method", "cs", "--out", tmp_path / "r.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err and "utf-8" in err

    def test_non_utf8_state_names_the_file(self, ham_file, tmp_path, capsys):
        bad = tmp_path / "bin.state"
        bad.write_bytes(b"\xff 1 0\n0 0\n0 0\n0 0\n")
        code = run_cli(
            ["estimate", "--hamiltonian", ham_file, "--method", "cs", "--state", bad, "--out", tmp_path / "r.json"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err and "utf-8" in err

    def test_missing_hamiltonian_file(self, tmp_path, capsys):
        code = run_cli(
            ["estimate", "--hamiltonian", tmp_path / "nope.ham", "--method", "cs",
             "--out", tmp_path / "r.json"]
        )
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_malformed_hamiltonian_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.ham"
        bad.write_text("0.5 XZ\noops\n")
        code = run_cli(
            ["estimate", "--hamiltonian", bad, "--method", "cs", "--out", tmp_path / "r.json"]
        )
        assert code != 0
        assert "line 2" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, ham_file, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                ["estimate", "--hamiltonian", ham_file, "--method", "nope",
                 "--out", tmp_path / "r.json"]
            )
        assert excinfo.value.code != 0

    def test_cancelled_hamiltonian(self, tmp_path, capsys):
        bad = tmp_path / "cancel.ham"
        bad.write_text("1.0 XI\n-1.0 XI\n")
        code = run_cli(
            ["estimate", "--hamiltonian", bad, "--method", "cs", "--out", tmp_path / "r.json"]
        )
        assert code != 0
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def _estimate_overflowing(tmp_path, method, terms="1e200 ZI\n1.0 XX\n0.5 IY\n", n=2):
        ham = tmp_path / "big.ham"
        ham.write_text(terms)
        state = tmp_path / "s.state"
        state.write_text("1 0\n" + "0 0\n" * (2**n - 1))  # |0...0>
        out = tmp_path / "r.json"
        code = run_cli(
            ["estimate", "--hamiltonian", ham, "--method", method, "--shots", 20, "--reps", 2,
             "--state", state, "--out", out]
        )
        return code, out

    def test_overflowing_aps_masses(self, tmp_path, capsys):
        # 1e200 squares to inf: aps must stop with a diagnostic, not draw X from NaN odds.
        code, out = self._estimate_overflowing(tmp_path, "aps")
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_cs_masses(self, tmp_path, capsys):
        # Every term is covered with probability 1/9 or more, so an infinite
        # predicted error would be wrong: cs stops with the same diagnostic.
        code, out = self._estimate_overflowing(tmp_path, "cs")
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["cs", "lbcs"])
    def test_overflowing_cost(self, tmp_path, capsys, method):
        # alpha^2 = 1e306 is finite, but 1e306 / 3^-6 is not. Every term is
        # covered, so the run stops with the diagnostic, not an infinite
        # predicted error or a RuntimeWarning.
        code, out = self._estimate_overflowing(tmp_path, method, "1e153 XXXXXX\n0.5 ZIIIII\n", 6)
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()
