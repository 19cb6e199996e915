"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --save perfbench/out/set1.json [--workloads wide ...]

Runs ``run.py`` once per (workload, seed) in a fresh process, as the
runs that gate a change do, and prints for every end-to-end metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median next to the metric's bound.
With ``--compare`` it also prints how far a second saved set's medians
lie from the first's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def collect(workloads, seeds, trace: int = 0) -> dict:
    results = {}
    for workload in workloads:
        for seed in seeds:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True, check=True, cwd=HERE.parent)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    return results


def summary(runs: list[dict]) -> dict:
    out = {}
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[metric] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median) if median else 0.0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the raw results here")
    parser.add_argument("--compare", help="a saved set to compare medians against")
    args = parser.parse_args()

    results = collect(args.workloads, _seeds(args.seeds), args.trace)
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text(encoding="utf-8")) if args.compare else {}
    print(f"{'workload':12} {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} {'vs set':>7}")
    for workload, runs in results.items():
        print(f"{workload:12} failed share {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        for metric, s in summary(runs).items():
            bound = bounds.get(metric, {}).get("bound", float("nan"))
            shift = ""
            if workload in earlier:
                before = summary(earlier[workload])[metric]["median"]
                shift = f"{(s['median'] - before) / abs(before):+7.3f}"
            print(f"{workload:12} {metric:18} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:7.3f} {bound:6.2f} {shift:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
