"""Smoke test of ``scripts/scale.py`` at tiny sizes, in both of its modes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import random_hamiltonian, serialize_hamiltonian
from pauli_shadows import ground_state

ROOT = Path(__file__).resolve().parent.parent
COMPARE_COLUMNS = ["n", "shots", "reps", "ground_s", "lbcs_fit_s", "cs_s", "lbcs_s", "aps_s", "total_s",
                   "H_applications", "peak_MiB", "energy"]


def run_scale(*args) -> list[dict]:
    """The rows ``scripts/scale.py`` prints for ``args``, keyed by its header."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "scale.py"), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    header, *rows = (line.split() for line in done.stdout.splitlines())
    return [dict(zip(header, row, strict=True)) for row in rows]


def test_compare_rows():
    # 3 qubits: fewer than the script's weight bound of 4, and 63 distinct strings in place of 300.
    rows = run_scale("--qubits", 3, 4, 5, "--shots", 50, "--reps", 2)
    assert [int(row["n"]) for row in rows] == [3, 4, 5]
    for row in rows:
        assert list(row) == COMPARE_COLUMNS
        assert (int(row["shots"]), int(row["reps"])) == (50, 2)
        assert all(float(row[key]) >= 0 for key in COMPARE_COLUMNS if key.endswith("_s"))
        assert int(row["H_applications"]) > 0
        assert float(row["peak_MiB"]) > 0
        energy, _ = ground_state(random_hamiltonian(np.random.default_rng(5), int(row["n"]), 300, max_weight=4))
        assert float(row["energy"]) == pytest.approx(energy, abs=1e-11)


def test_weight_cap_keeps_the_script_hamiltonian():
    # With max_weight <= n the cap at n changes no draw: the script's 8-qubit Hamiltonian is the one
    # drawn before the cap, term for term (this digest was taken before it).
    h = random_hamiltonian(np.random.default_rng(5), 8, 300, max_weight=4)
    digest = hashlib.sha256(serialize_hamiltonian(h).encode()).hexdigest()
    assert digest == "0937be82d2df611543e67b594f1cbdd307c39b3c4c774c9f2075730e118bd0a5"


def test_draw_only_rows():
    (row,) = run_scale("--draw-only", "--qubits", 4, "--shots", 50)
    assert list(row) == ["n", "shots", "best_s", "peak_MiB"]
    assert (int(row["n"]), int(row["shots"])) == (4, 50)
    assert float(row["best_s"]) > 0
    assert float(row["peak_MiB"]) >= 0
