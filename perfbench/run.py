"""Benchmark of pauli-shadows: set-up, the three estimators, and their outputs.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0

A run makes its inputs from ``--seed``, warms up untimed, then repeats
whole rounds until ``--seconds`` have passed. A round sets up every
Hamiltonian of the workload (load, Lanczos ground state, LBCS fit) and
then runs ``estimate`` for cs, lbcs and aps on each through ``cli.main``
in this process; one operation is one such command. The outputs are
then checked against references the benchmark computes itself. The last
line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--tiny``
shrinks every workload for the smoke test.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads. With OpenBLAS's
# default threads, Lanczos's many small vdots made ground_state on
# fixture c take 308, 288, 186, 87 and 89 ms in five calls, against
# 77-79 ms on one thread.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

from workloads import REPS, ROOT, TINY, WORKLOADS, make_inputs, write_warmup

METHODS = ("cs", "lbcs", "aps")
OUT = Path(__file__).resolve().parent / "out"


def _import_program():
    """Import the program from the checkout's own ``src`` tree."""
    source = ROOT / "src"
    if not (source / "pauli_shadows").is_dir():
        sys.exit(f"error: no program sources at {source}")
    sys.path.insert(0, str(source))
    import pauli_shadows.cli
    import pauli_shadows.paulis
    import pauli_shadows.sampling
    import pauli_shadows.states

    return pauli_shadows


def _write_state(state, path: Path) -> None:
    path.write_text("".join(f"{float(a.real)!r} {float(a.imag)!r}\n" for a in state.amplitudes), encoding="utf-8")


class Bench:
    """Runs the operations of one process; counts attempted and failed ones."""

    def __init__(self, program, out_dir: Path, tracer=None):
        self.ps = program
        self.out_dir = out_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def setup(self, paths: list[Path]) -> list[tuple[float, object]]:
        """Load, solve and fit every Hamiltonian; returns (energy, state) pairs."""
        ps = self.ps
        solved = []
        for path in paths:
            hamiltonian = ps.paulis.load_hamiltonian(path)
            energy, state = ps.states.ground_state(hamiltonian)
            ps.sampling.locally_biased_distribution(hamiltonian)
            solved.append((energy, state))
        return solved

    def estimate(self, path: Path, state_path: Path, method: str, seed: int, shots: int):
        """One operation: the ``estimate`` command; returns (seconds, report bytes or None)."""
        out = self.out_dir / f"{path.stem}.{method}.json"
        argv = [
            "estimate", "--hamiltonian", str(path), "--method", method,
            "--shots", str(shots), "--reps", str(REPS), "--seed", str(seed),
            "--state", str(state_path), "--workers", "1", "--out", str(out), "--format", "json",
        ]
        if self.tracer is not None:
            self.tracer.method = method
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.ps.cli.main(argv)
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.method = None
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"operation failed: {' '.join(argv)}: {sink.getvalue().strip()}", file=sys.stderr)
            return elapsed, None
        return elapsed, out.read_bytes()

    def round(self, seed: int, paths: list[Path], shots: int, setup_repeats: int) -> dict:
        """Set up, then run every method on every Hamiltonian, timing each phase."""
        setup_times = []
        for _ in range(setup_repeats):
            start = time.perf_counter()
            solved = self.setup(paths)
            setup_times.append(time.perf_counter() - start)
        state_paths = []
        for path, (_, state) in zip(paths, solved):
            state_paths.append(self.out_dir / f"{path.stem}.state")
            _write_state(state, state_paths[-1])
        method_s = dict.fromkeys(METHODS, 0.0)
        reports = {}
        for path, state_path in zip(paths, state_paths):
            for method in METHODS:
                elapsed, report = self.estimate(path, state_path, method, seed, shots)
                method_s[method] += elapsed
                reports[str(path), method] = report
        return {
            "setup_samples": setup_times,
            "wall_s": statistics.median(setup_times) + sum(method_s.values()),
            "method_s": method_s,
            "reports": reports,
            "energies": {str(p): e for p, (e, _) in zip(paths, solved)},
        }


def _check(rounds: list[dict], paths: list[Path]) -> list[str]:
    import checks

    terms = {str(p): checks.Terms(p) for p in paths}
    references = {key: t.ground_energy() for key, t in terms.items()}
    failures = []
    pooled = defaultdict(list)
    for result in rounds:
        for key, energy in result["energies"].items():
            if abs(energy - references[key]) > checks.ENERGY_TOL:
                failures.append(f"{key}: ground_state energy {energy!r} != reference {references[key]!r}")
        for (key, method), raw in result["reports"].items():
            if raw is None:
                continue
            (report,) = json.loads(raw)["reports"]
            failures += checks.check_report(report, terms[key], references[key])
            pooled[key, method] += report["estimates"]
    failures += checks.check_unbiased(pooled, references)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    program = _import_program()
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    paths = make_inputs(workload, args.seed, out_dir)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    bench = Bench(program, out_dir, tracer)

    # Untimed warm-up on a small Hamiltonian: imports, first calls, allocator.
    bench.round(0, [write_warmup(out_dir)], shots=50, setup_repeats=1)
    if bench.failed:
        sys.exit("error: the warm-up round failed")
    bench.attempted = 0

    rounds, traced_rounds, failures = [], [], []
    start = time.perf_counter()
    while True:
        # Each round draws fresh shots, so the unbiasedness check can pool rounds.
        round_seed = 1000 * args.seed + len(rounds)
        budget = (round_seed, paths, workload.shots, workload.setup_repeats)
        rounds.append(bench.round(*budget))
        times = " ".join(f"{m}={t:.3f}" for m, t in rounds[-1]["method_s"].items())
        print(f"round {len(rounds)}: wall={rounds[-1]['wall_s']:.3f} s, methods {times} s", file=sys.stderr)
        if tracer is not None:
            with tracer.installed():
                traced_rounds.append(bench.round(*budget))
            if traced_rounds[-1]["reports"] != rounds[-1]["reports"]:
                failures.append(f"round {len(rounds)}: traced JSON reports differ from untraced ones")
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures += _check(rounds, paths)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    if tracer is None:
        wall = [r["wall_s"] for r in rounds]
        setup = [s for r in rounds for s in r["setup_samples"]]
        shots = workload.shots * REPS * len(paths)
        metrics = {
            "wall_s": (statistics.median(wall), "s"),
            "setup_s": (statistics.median(setup), "s"),
        }
        for method in METHODS:
            rates = [shots / r["method_s"][method] for r in rounds]
            metrics[f"shots_per_s.{method}"] = (statistics.median(rates), "shots/s")
        metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
    else:
        setups = sum(len(r["setup_samples"]) for r in traced_rounds)
        metrics = tracer.layer_metrics(len(traced_rounds), setups, METHODS)
        traced_wall = statistics.median(r["wall_s"] for r in traced_rounds)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(r["wall_s"] for r in rounds), "s")
        for name in tracer.absent:
            print(f"layer absent: {name}", file=sys.stderr)
        (out_dir / "spans.json").write_text(
            json.dumps({"absent": tracer.absent, "spans": tracer.spans}) + "\n", encoding="utf-8"
        )

    print(f"{args.workload}: {len(rounds)} rounds, {bench.attempted} operations", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
