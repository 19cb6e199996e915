"""Outside-in layer trace of ``pauli_shadows``.

The tracer replaces public functions and methods of the program's
modules by name with timing wrappers, and puts the originals back when
it is uninstalled. A function is replaced in every ``pauli_shadows``
module that holds it, so calls through ``from .states import ...``
bindings are seen too. Coarse boundaries (load, solve, fit, one CLI
command) record spans; per-shot boundaries keep only count, total time
and self time. A name the program no longer has is reported as an
absent layer instead of failing the run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer, module, attribute, per_shot)
LAYERS = (
    ("paulis.load", "pauli_shadows.paulis", "load_hamiltonian", False),
    ("states.ground_state", "pauli_shadows.states", "ground_state", False),
    ("states.load_state", "pauli_shadows.states", "load_state", False),
    ("sampling.lbcs_fit", "pauli_shadows.sampling", "locally_biased_distribution", False),
    ("estimation.estimate", "pauli_shadows.estimation", "estimate_energy", False),
    ("benchmark.run", "pauli_shadows.benchmark", "run_benchmark", False),
    ("cli.main", "pauli_shadows.cli", "main", False),
    ("states.outcome_table", "pauli_shadows.states", "measurement_cumulative", True),
    ("states.outcome_draw", "pauli_shadows.states", "sample_outcome_index", True),
    ("sampling.basis_draw", "pauli_shadows.sampling", "ProductBasisSampler.sample", True),
    ("sampling.basis_draw", "pauli_shadows.sampling", "AdaptiveBasisSampler.sample", True),
    ("estimation.update", "pauli_shadows.estimation", "Accumulator.update", True),
)


class Tracer:
    """Spans and per-layer (count, total, self) sums, keyed by layer and method.

    ``method`` is the label the benchmark sets around each CLI command
    (``None`` during set-up).
    """

    def __init__(self):
        self.method: str | None = None
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (layer, method) -> count, total, self
        self.distinct = defaultdict(int)  # method -> distinct bases summed over estimate calls
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # [child seconds, span id] per open call
        self._bases: set[bytes] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, per_shot: bool):
        stats, stack = self.stats, self._stack
        clock = time.perf_counter
        is_draw = layer == "sampling.basis_draw"
        is_estimate = layer == "estimation.estimate"

        def traced(*args, **kwargs):
            if is_estimate:
                outer_bases, self._bases = self._bases, set()
            frame = [0.0, None]
            if not per_shot:
                frame[1] = len(self.spans)
                parent = stack[-1][1] if stack else None
                self.spans.append({"id": frame[1], "parent": parent, "layer": layer, "method": self.method})
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                entry = stats[layer, self.method]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if not per_shot:
                    self.spans[frame[1]].update(start=start, end=end)
                if is_estimate:
                    self.distinct[self.method] += len(self._bases)
                    self._bases = outer_bases
            if is_draw:
                codes = getattr(result, "codes", None)
                if codes is not None:
                    self._bases.add(codes.tobytes())
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pauli_shadows"]
        self.absent = []
        for layer, module_name, attribute, per_shot in LAYERS:
            module = sys.modules.get(module_name)
            owner_name, _, method_name = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, "__dict__", {}).get(method_name) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            wrapper = self._wrap(layer, original, per_shot)
            if owner_name:
                self._patches.append((owner, method_name, original))
                setattr(owner, method_name, wrapper)
                continue
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def total(self, layer: str, method=any, field: int = 1) -> float:
        """Sum of one field (0 count, 1 total seconds, 2 self seconds) over methods."""
        return sum(v[field] for (l, m), v in self.stats.items() if l == layer and (method is any or m == method))

    def layer_metrics(self, rounds: int, setups: int, methods) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a total per traced round or a mean per call.

        The set-up layers (load, ground state, LBCS fit) count only the
        calls made outside a command (``method`` ``None``), per set-up
        phase, so they compare with ``setup_s``. The load and LBCS fit a
        command makes itself are left out of every layer metric; they
        are small next to its ``estimate_energy``.
        """

        def per_round(layer, method=any, field=1):
            return self.total(layer, method, field) / rounds

        def per_setup(layer, field=1):
            return self.total(layer, None, field) / setups

        def per_call_us(layer, method=any):
            calls = self.total(layer, method, 0)
            return 1e6 * self.total(layer, method) / calls if calls else 0.0

        metrics = {
            "paulis.load_s": (per_setup("paulis.load"), "s"),
            "states.ground_state_s": (per_setup("states.ground_state"), "s"),
            "states.ground_state_calls": (per_setup("states.ground_state", field=0), "count"),
            "states.load_state_s": (per_round("states.load_state"), "s"),
            "states.outcome_table_s": (per_round("states.outcome_table"), "s"),
            "states.outcome_draw_s": (per_round("states.outcome_draw"), "s"),
            "sampling.lbcs_fit_s": (per_setup("sampling.lbcs_fit"), "s"),
            "estimation.update_us": (per_call_us("estimation.update"), "us"),
            "cli.self_s": (per_round("cli.main", field=2), "s"),
        }
        for m in methods:
            tables = self.total("states.outcome_table", m, 0)
            draws = self.total("sampling.basis_draw", m, 0)
            metrics[f"states.outcome_tables.{m}"] = (tables / rounds, "count")
            metrics[f"sampling.basis_draw_us.{m}"] = (per_call_us("sampling.basis_draw", m), "us")
            metrics[f"sampling.distinct_bases.{m}"] = (self.distinct[m] / rounds, "count")
            metrics[f"estimation.estimate_s.{m}"] = (per_round("estimation.estimate", m), "s")
            metrics[f"estimation.table_reuse.{m}"] = (1.0 - tables / draws if draws else 0.0, "ratio")
            metrics[f"benchmark.self_s.{m}"] = (per_round("benchmark.run", m, field=2), "s")
        return metrics
