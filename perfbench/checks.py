"""Output checks computed apart from the program.

Reference energies come from the benchmark's own parse and Kronecker
build of H, never from ``pauli_shadows``. Each check returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

ENERGY_TOL = 1e-6
REL_TOL = 1e-9
# Family-wise false-alarm rate of all unbiasedness checks in one run.
FALSE_ALARM = 1e-4
DENSE_MAX_QUBITS = 8

_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


class Terms:
    """A Hamiltonian file as the benchmark reads it: offset plus (coeff, word) terms."""

    def __init__(self, path):
        merged: dict[str, float] = {}
        for raw in open(path, encoding="utf-8"):
            line = raw.split("#", 1)[0].strip()
            if line:
                coeff, word = line.split()
                merged[word] = merged.get(word, 0.0) + float(coeff)
        self.n = len(next(iter(merged)))
        identity = "I" * self.n
        self.offset = merged.pop(identity, 0.0)
        self.terms = [(c, w) for w, c in merged.items() if c != 0.0]

    def ground_energy(self) -> float:
        """Lowest eigenvalue: dense ``eigvalsh`` up to 8 qubits, sparse ``eigsh`` above."""
        if self.n <= DENSE_MAX_QUBITS:
            matrix = sum(c * reduce(np.kron, (_PAULI[l] for l in w)) for c, w in self.terms)
            return float(np.linalg.eigvalsh(matrix)[0]) + self.offset
        from scipy import sparse
        from scipy.sparse.linalg import eigsh

        singles = {l: sparse.csr_matrix(m) for l, m in _PAULI.items()}
        matrix = sum(
            c * reduce(lambda a, b: sparse.kron(a, b, format="csr"), (singles[l] for l in w))
            for c, w in self.terms
        )
        start = np.random.default_rng(0).standard_normal(2**self.n)
        value = eigsh(matrix, k=1, which="SA", v0=start, return_eigenvectors=False)
        return float(value[0].real) + self.offset

    def diagonal_cost(self, distribution) -> float:
        """``sum_P alpha_P^2 / Pr[P covered]`` under a per-qubit (X, Y, Z) table."""
        total = 0.0
        for coeff, word in self.terms:
            coverage = math.prod(distribution[q]["XYZ".index(l)] for q, l in enumerate(word) if l != "I")
            if coverage == 0.0:
                return math.inf
            total += coeff * coeff / coverage
        return total


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_report(report: dict, terms: Terms, reference: float) -> list[str]:
    """Check one JSON report against the reference energy and the method's properties."""
    tag = f"{report.get('hamiltonian')}/{report.get('method')}"
    failures = []
    if abs(report["exact_energy"] - reference) > ENERGY_TOL:
        failures.append(f"{tag}: exact_energy {report['exact_energy']!r} != reference {reference!r}")
    estimates = np.asarray(report["estimates"], dtype=float)
    if estimates.size != report["repetitions"] or not np.all(np.isfinite(estimates)):
        failures.append(f"{tag}: expected {report['repetitions']} finite estimates")
        return failures
    rms = math.sqrt(float(np.mean((estimates - report["exact_energy"]) ** 2)))
    if not _close(rms, report["rms_error"]):
        failures.append(f"{tag}: rms_error {report['rms_error']!r} != recomputed {rms!r}")

    method, distribution = report["method"], report["distribution"]
    if method == "aps":
        if distribution is not None or report["predicted_error"] is not None:
            failures.append(f"{tag}: aps reports a product distribution or a predicted error")
        return failures
    table = np.asarray(distribution, dtype=float)
    if table.shape != (terms.n, 3) or np.any(table < 0.0) or np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-12):
        failures.append(f"{tag}: distribution rows are not probability triples summing to 1")
        return failures
    uniform_cost = terms.diagonal_cost(np.full((terms.n, 3), 1.0 / 3.0))
    cost = terms.diagonal_cost(table)
    if method == "cs" and not np.allclose(table, 1.0 / 3.0, rtol=0.0, atol=1e-15):
        failures.append(f"{tag}: cs distribution is not uniform")
    if method == "lbcs" and not cost <= uniform_cost * (1.0 + REL_TOL):
        failures.append(f"{tag}: lbcs diagonal cost {cost!r} exceeds uniform {uniform_cost!r}")
    if math.isinf(cost):
        if not report["predicted_error_infinite"]:
            failures.append(f"{tag}: infinite cost but predicted_error_infinite is false")
    elif report["predicted_error"] is None or not _close(
        report["predicted_error"], math.sqrt(cost / report["shots"])
    ):
        failures.append(
            f"{tag}: predicted_error {report['predicted_error']!r} != sqrt(cost/shots) "
            f"{math.sqrt(cost / report['shots'])!r}"
        )
    return failures


def check_unbiased(estimates: dict, references: dict) -> list[str]:
    """Each mean estimate within a t-band from the repetitions' own spread.

    ``estimates`` maps (hamiltonian, method) to every repetition's
    estimate in the run. The two-sided band uses Student's t with a
    Bonferroni split, so the run as a whole raises a false alarm with
    probability below ``FALSE_ALARM`` when every estimator is unbiased.
    """
    from scipy.stats import t as student_t

    failures = []
    alpha = FALSE_ALARM / max(1, len(estimates))
    for (hamiltonian, method), values in estimates.items():
        values = np.asarray(values, dtype=float)
        if values.size < 2:
            failures.append(f"{hamiltonian}/{method}: fewer than 2 repetitions to check bias")
            continue
        deviation = abs(float(values.mean()) - references[hamiltonian])
        spread = float(values.std(ddof=1)) / math.sqrt(values.size)
        band = float(student_t.ppf(1.0 - alpha / 2.0, values.size - 1)) * spread
        if not deviation <= max(band, ENERGY_TOL):
            failures.append(
                f"{hamiltonian}/{method}: mean estimate off the reference by {deviation:.4g}, "
                f"band {band:.4g} from {values.size} repetitions"
            )
    return failures
