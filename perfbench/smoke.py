"""Smoke test of the benchmark itself; about half a minute.

    python3 perfbench/smoke.py

1. Runs every workload at ``--tiny`` size, untraced and traced, and
   checks that each run is correct with no failed operation and prints
   exactly the metric names and units of ``BENCHMARK.json``.
2. Shows that the output checks catch a corrupted energy in a report.
3. Shows that the benchmark fails, without printing a result, in a
   directory that holds only ``BENCHMARK.json`` and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(script: Path, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    command = [sys.executable, str(script), "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=180)


def check_tiny_runs() -> list[str]:
    failures = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            tag = f"{workload} trace={trace}"
            done = run(HERE / "run.py", workload, trace, ROOT)
            if done.returncode != 0:
                failures.append(f"{tag}: exit code {done.returncode}: {done.stderr.strip()[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                failures.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{tag}: correct={result['correct']} failed={result['failed']}: {done.stderr[-500:]}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != {m["name"]: m["unit"] for m in declared}:
                failures.append(f"{tag}: printed metrics {sorted(printed)} differ from BENCHMARK.json")
    return failures


def check_corrupted_energy() -> list[str]:
    sys.path.insert(0, str(HERE))
    import checks

    report_path = HERE / "out" / "fixtures-seed3-trace0-tiny" / "fixture_a_6q.cs.json"
    (report,) = json.loads(report_path.read_text(encoding="utf-8"))["reports"]
    terms = checks.Terms(ROOT / "fixtures" / "fixture_a_6q.ham")
    reference = terms.ground_energy()
    failures = [f"clean report rejected: {f}" for f in checks.check_report(report, terms, reference)]
    corrupted = dict(report, exact_energy=report["exact_energy"] + 1e-4)
    if not checks.check_report(corrupted, terms, reference):
        failures.append("a report whose exact_energy is off by 1e-4 passed the checks")
    return failures


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(bare / HERE.name / "run.py", "fixtures", 0, bare)
    shutil.rmtree(bare)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    if done.returncode == 0 or last.startswith("{"):
        return [f"without the program the benchmark exited {done.returncode} and printed {last!r}"]
    return []


def main() -> int:
    failures = check_tiny_runs() + check_corrupted_energy() + check_bare_directory()
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
