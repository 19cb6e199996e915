"""Time ``states.draw_outcomes`` on seeded random states as n grows.

For each qubit count it draws ``--shots`` outcomes in uniform random
bases from one seeded random state, and prints the best of ``--repeats``
wall times and the tracemalloc peak of one further call (the state and
the inputs excluded). Opt-in: it is not a test, and 18-20 qubits take
from seconds to minutes.

    PYTHONPATH=src python scripts/draw_scale.py
    PYTHONPATH=src python scripts/draw_scale.py --qubits 12 16 18 20 --shots 1000

Put another checkout's ``src`` on PYTHONPATH to time that version.
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from pauli_shadows import states


def measure(n: int, shots: int, repeats: int, seed: int) -> tuple[float, float]:
    """(best wall time in s, tracemalloc peak in MiB) of one draw of ``shots`` outcomes at ``n`` qubits."""
    rng = np.random.default_rng(seed)
    amplitudes = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    state = states.StateVector(amplitudes / np.linalg.norm(amplitudes))
    bases = rng.integers(1, 4, size=(shots, n)).astype(np.uint8)
    u = rng.random(shots)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        states.draw_outcomes(state, bases, u)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    states.draw_outcomes(state, bases, u)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return best, peak / 2**20


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, nargs="+", default=[12, 16, 18])
    parser.add_argument("--shots", type=int, nargs="+", default=[1000])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    print(f"{'n':>3} {'shots':>7} {'best_s':>9} {'peak_MiB':>9}")
    for n in args.qubits:
        for shots in args.shots:
            best, peak = measure(n, shots, args.repeats, args.seed)
            print(f"{n:>3} {shots:>7} {best:>9.4f} {peak:>9.2f}", flush=True)


if __name__ == "__main__":
    main()
