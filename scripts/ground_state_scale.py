"""Time ``states.ground_state`` on seeded random Hamiltonians as n grows.

For each qubit count it solves ``tests/helpers.random_hamiltonian`` (seed
5, 300 terms of weight at most 4) in a fresh subprocess, so that
the peak RSS (``ru_maxrss``) is that of one size alone. It prints the
wall time of the solve, the number of applications of H and that peak.
Opt-in: it is not a test, and 18-20 qubits take from one to several
minutes.

    PYTHONPATH=src python scripts/ground_state_scale.py
    PYTHONPATH=src python scripts/ground_state_scale.py --qubits 14 16 18

Put another checkout's ``src`` on PYTHONPATH to time that version.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
SEED, TERMS = 5, 300


def measure(n: int) -> dict:
    """Solve one random n-qubit Hamiltonian in this process: seconds, H applications, peak RSS in MiB."""
    import resource
    import time

    import numpy as np

    from pauli_shadows import states

    sys.path.insert(0, str(TESTS))
    from helpers import random_hamiltonian

    hamiltonian = random_hamiltonian(np.random.default_rng(SEED), n, TERMS, max_weight=4)
    apply, applications = states._apply_compiled, [0]

    def counting_apply(*args):
        applications[0] += 1
        return apply(*args)

    states._apply_compiled = counting_apply
    start = time.perf_counter()
    energy, _ = states.ground_state(hamiltonian)
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {"n": n, "seconds": seconds, "applications": applications[0], "peak_mib": peak, "energy": energy}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, nargs="+", default=[10, 12, 14])
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)  # the subprocess for one size
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(measure(args.one)))
        return
    print(f"{'n':>3} {'seconds':>9} {'H_applications':>15} {'peak_MiB':>9} {'energy':>20}")
    for n in args.qubits:
        command = [sys.executable, __file__, "--one", str(n)]
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode:
            sys.exit(f"n={n} failed:\n{done.stderr}")
        row = json.loads(done.stdout.splitlines()[-1])
        seconds, applications, peak, energy = row["seconds"], row["applications"], row["peak_mib"], row["energy"]
        print(f"{n:>3} {seconds:>9.3f} {applications:>15} {peak:>9.1f} {energy:>20.12f}", flush=True)


if __name__ == "__main__":
    main()
