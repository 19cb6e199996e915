"""End-to-end tests for the command-line interface."""

import json

import pytest

from pauli_shadows.cli import main


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


class TestErrors:
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
    def _estimate_overflowing(tmp_path, method):
        ham = tmp_path / "big.ham"
        ham.write_text("1e200 ZI\n1.0 XX\n0.5 IY\n")
        state = tmp_path / "s.state"
        state.write_text("1 0\n0 0\n0 0\n0 0\n")
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
