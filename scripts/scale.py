"""Time a whole ``compare`` run, phase by phase, on seeded random Hamiltonians as n grows.

For each qubit count, in a fresh subprocess so that the peak RSS
(``ru_maxrss``) is that of one size alone, it writes
``tests/helpers.random_hamiltonian`` (seed 5, 300 terms of weight at most
4) to a temporary ``.ham`` file and runs ``benchmark.compare_methods`` on
it (master seed 2, one worker). It prints the seconds spent in the ground
state (``ground_s``), the LBCS fit (``lbcs_fit_s``), each method's
``estimate_energies`` pass (``cs_s``, ``lbcs_s``, ``aps_s``) and the whole
run (``total_s``), then the applications of H, that peak and the energy.

With ``--draw-only`` it times ``states.draw_outcomes`` alone: ``--shots``
outcomes in uniform random bases from one seeded random state, the best of
3 wall times and the tracemalloc peak of one further call (the state and
the inputs excluded). Opt-in: it is not a test, and 18-20 qubits take
minutes.

    PYTHONPATH=src python scripts/scale.py --qubits 14 16 --shots 1000 --reps 10
    PYTHONPATH=src python scripts/scale.py --draw-only --qubits 12 16 18 20 --shots 1000

Put another checkout's ``src`` on PYTHONPATH to time that version.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from pauli_shadows import benchmark, states

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import random_hamiltonian, random_state_amplitudes, serialize_hamiltonian

HAMILTONIAN_SEED, TERMS, MASTER_SEED = 5, 300, 2
DRAW_SEED, DRAW_REPEATS = 7, 3


def timed(function, seconds: list):
    """``function``, appending the wall time of each call to ``seconds``."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = function(*args, **kwargs)
        seconds.append(time.perf_counter() - start)
        return result
    return wrapper


def compare_row(n: int, shots: int, reps: int) -> dict:
    """One ``compare_methods`` run on the random n-qubit Hamiltonian, timed by phase."""
    spent = {name: [] for name in ("ground_state", "locally_biased_distribution", "estimate_energies")}
    for name, seconds in spent.items():
        setattr(benchmark, name, timed(getattr(benchmark, name), seconds))
    applications: list = []  # one entry per application of H
    states._apply_compiled = timed(states._apply_compiled, applications)
    hamiltonian = random_hamiltonian(np.random.default_rng(HAMILTONIAN_SEED), n, TERMS, max_weight=4)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / f"random_{n}q.ham"
        path.write_text(serialize_hamiltonian(hamiltonian), encoding="utf-8")
        config = benchmark.ExperimentConfig(str(path), shots=shots, repetitions=reps, master_seed=MASTER_SEED)
        start = time.perf_counter()
        reports = benchmark.compare_methods(config)
        total = time.perf_counter() - start
    row = {"n": n, "shots": shots, "reps": reps, "ground_s": f"{sum(spent['ground_state']):.3f}",
           "lbcs_fit_s": f"{sum(spent['locally_biased_distribution']):.3f}"}
    for method, seconds in zip(benchmark.METHODS, spent["estimate_energies"]):  # one pass per method
        row[f"{method}_s"] = f"{seconds:.3f}"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return row | {"total_s": f"{total:.3f}", "H_applications": len(applications), "peak_MiB": f"{peak:.1f}",
                  "energy": f"{reports[0].exact_energy:.12f}"}


def draw_row(n: int, shots: int) -> dict:
    """Best wall time and tracemalloc peak of one draw of ``shots`` outcomes from a random n-qubit state."""
    rng = np.random.default_rng(DRAW_SEED)
    state = states.StateVector(random_state_amplitudes(rng, n))
    bases = rng.integers(1, 4, size=(shots, n)).astype(np.uint8)
    u = rng.random(shots)
    seconds: list = []
    draw = timed(states.draw_outcomes, seconds)
    for _ in range(DRAW_REPEATS):
        draw(state, bases, u)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    states.draw_outcomes(state, bases, u)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return {"n": n, "shots": shots, "best_s": f"{min(seconds):.4f}", "peak_MiB": f"{peak / 2**20:.2f}"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, nargs="+", default=[10, 12, 14])
    parser.add_argument("--shots", type=int, default=1000)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--draw-only", action="store_true", help="time states.draw_outcomes alone")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)  # the subprocess for one size
    args = parser.parse_args()
    if args.one is not None:
        row = draw_row(args.one, args.shots) if args.draw_only else compare_row(args.one, args.shots, args.reps)
        print(json.dumps(row))
        return
    widths = None
    for n in args.qubits:
        done = subprocess.run([sys.executable, __file__, *sys.argv[1:], "--one", str(n)], capture_output=True, text=True)
        if done.returncode:
            sys.exit(f"n={n} failed:\n{done.stderr}")
        row = json.loads(done.stdout.splitlines()[-1])
        if widths is None:  # the first row sets the column widths
            widths = {key: max(len(key), len(str(value)), 4) for key, value in row.items()}
            print(" ".join(f"{key:>{widths[key]}}" for key in row))
        print(" ".join(f"{value:>{widths[key]}}" for key, value in row.items()), flush=True)


if __name__ == "__main__":
    main()
