"""Benchmark workloads and their seeded input generators.

``fixtures`` runs the three shipped fixtures at the paper's budget of
1000 shots per repetition. ``wide`` and ``dense-terms`` each run one
generated Hamiltonian. Its term structure comes from a fixed base seed
(below); ``--seed`` then picks a Pauli frame: conjugation by a random
Pauli string, which flips the signs of the terms that anticommute with
it. Every seed therefore gives different input files, a different
ground state and different shots, but the same spectrum and the same
letters on every qubit. So the Lanczos work in set-up, the LBCS
distribution and the cost of each basis rotation are the same for
every seed. Fully random 12-qubit draws took 1.5 to 2.2 s in Lanczos
over six seeds. A seeded qubit permutation is left out too: one qubit's
basis rotation costs 37 to 582 us on 12 qubits depending on its
position, so it would make the cost of lbcs and aps shots, whose letter
odds differ by qubit, depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("fixture_a_6q.ham", "fixture_b_7q.ham", "fixture_c_8q.ham")
WIDE_BASE_SEED = 20_105
DENSE_BASE_SEED = 12_207
# Repetitions per ``estimate`` command, in every workload.
REPS = 2


@dataclass(frozen=True)
class Workload:
    """Inputs and budget of one workload.

    ``generator`` is ``None`` for the shipped fixtures, otherwise
    ``(base_seed, qubits, terms, max_weight)``. ``shots`` is per
    repetition. ``setup_repeats`` is how often one round repeats the
    set-up phase, so that a short set-up is timed often enough for its
    median to hold steady.
    """

    name: str
    generator: tuple[int, int, int, int] | None
    shots: int
    setup_repeats: int


WORKLOADS = {
    "fixtures": Workload("fixtures", None, shots=1000, setup_repeats=3),
    "wide": Workload("wide", (WIDE_BASE_SEED, 12, 200, 4), shots=500, setup_repeats=1),
    "dense-terms": Workload("dense-terms", (DENSE_BASE_SEED, 8, 500, 4), shots=500, setup_repeats=1),
}

# Smaller stand-ins for the smoke test: same code paths, a second per run.
TINY = {
    "fixtures": Workload("fixtures", None, shots=100, setup_repeats=1),
    # 9 qubits, so the smoke test reaches the sparse reference of checks.py.
    "wide": Workload("wide", (WIDE_BASE_SEED, 9, 40, 4), shots=100, setup_repeats=1),
    "dense-terms": Workload("dense-terms", (DENSE_BASE_SEED, 5, 60, 4), shots=100, setup_repeats=1),
}


def random_terms(base_seed: int, n: int, count: int, max_weight: int) -> list[tuple[float, str]]:
    """``count`` distinct Pauli strings of weight 1..max_weight with N(0,1)/weight coefficients."""
    rng = np.random.default_rng(base_seed)
    terms: dict[str, float] = {}
    while len(terms) < count:
        weight = int(rng.integers(1, max_weight + 1))
        letters = ["I"] * n
        for qubit in rng.choice(n, size=weight, replace=False):
            letters[qubit] = "XYZ"[int(rng.integers(3))]
        word = "".join(letters)
        if word not in terms:
            terms[word] = float(rng.normal()) / weight
    return [(coeff, word) for word, coeff in terms.items()]


def relabel(terms: list[tuple[float, str]], seed: int) -> list[tuple[float, str]]:
    """Conjugate by a seeded Pauli string F: unitary, so the spectrum is unchanged.

    A term changes sign once for every qubit where its letter and F's
    are different non-identity letters (they anticommute there).
    """
    n = len(terms[0][1])
    frame = ["IXYZ"[int(k)] for k in np.random.default_rng(seed).integers(0, 4, size=n)]
    out = []
    for coeff, word in terms:
        flips = sum(1 for letter, f in zip(word, frame) if "I" not in (letter, f) and letter != f)
        out.append((-coeff if flips % 2 else coeff, word))
    return out


def make_inputs(workload: Workload, seed: int, out_dir: Path) -> list[Path]:
    """The Hamiltonian files the program is given for this workload and seed."""
    if workload.generator is None:
        return [ROOT / "fixtures" / name for name in FIXTURES]
    base_seed, n, count, max_weight = workload.generator
    terms = relabel(random_terms(base_seed, n, count, max_weight), seed)
    path = out_dir / f"{workload.name}_{n}q.ham"
    lines = [f"# {workload.name}: {n} qubits, {count} terms, weight <= {max_weight}, "
             f"base seed {base_seed}, seed {seed}"]
    lines += [f"{coeff!r} {word}" for coeff, word in terms]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [path]


WARMUP_TERMS = [(0.5, "XXII"), (-0.3, "IYYI"), (0.8, "ZIIZ"), (0.2, "IIZZ"), (-0.4, "XIZI")]


def write_warmup(out_dir: Path) -> Path:
    """A 4-qubit Hamiltonian for the untimed warm-up that touches every code path."""
    path = out_dir / "warmup_4q.ham"
    path.write_text("".join(f"{c!r} {w}\n" for c, w in WARMUP_TERMS), encoding="utf-8")
    return path
