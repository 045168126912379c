"""Per-layer timing and counting by wrapping paretocert's public functions.

Each function is wrapped in every paretocert module namespace that holds it,
so ``support.solve_lp`` and ``kkt.solve_lp`` both count as
``linprog.solve_lp``. A call's self time is its duration minus the time of
the wrapped calls it made. ``linprog.basis_solves`` counts the calls of
``linprog._solve_linear``, the one place ``solve_lp`` calls
``numpy.linalg.solve``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _sample_counts(tracer, args, result):
    tracer.counts["problems.sample_criterion_space.points"] += len(result)
    tracer.decisions.update(result.decisions)


def _report_points(tracer, args, result):
    tracer.counts["geoffrion.proper_efficiency_report.points"] += len(args[0])


def _margin_cuts(tracer, args, result):
    tracer.counts["support.support_margin.cuts"] += len(args[0])


def _lp_rows(tracer, args, result):
    tracer.counts["linprog.solve_lp.rows"] += args[0].num_rows


# (module, function, the counter of its work or None)
TARGETS = (
    ("exprlang", "evaluate", None),
    ("problems", "sample_criterion_space", _sample_counts),
    ("problems", "load_problem", None),
    ("pareto", "dominates", None),
    ("pareto", "pareto_filter", None),
    ("geoffrion", "proper_efficiency_report", _report_points),
    ("geoffrion", "divergence_probe", None),
    ("support", "support_trend", None),
    ("support", "support_margin", _margin_cuts),
    ("support", "build_witness", None),
    ("support", "verify_witness", None),
    ("linprog", "solve_lp", _lp_rows),
    ("kkt", "active_set", None),
    ("kkt", "obstruction_test", None),
    ("cli", "main", None),
)


class Tracer:
    """Collects calls, total time, self time and counters per wrapped function."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.decisions: set = set()

    def _timed(self, name: str, fn, extra):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if extra is not None:
                extra(self, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "paretocert" and not mod_name.startswith("paretocert."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def install(self) -> None:
        import importlib

        for mod, func, extra in TARGETS:
            module = importlib.import_module(f"paretocert.{mod}")
            original = getattr(module, func)
            self._replace_everywhere(original, self._timed(f"{mod}.{func}", original, extra))
        linprog = importlib.import_module("paretocert.linprog")
        original = linprog._solve_linear
        self._replace_everywhere(original, self._counted("linprog.basis_solves", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict[str, float]:
        """The per-layer metrics of everything traced since the last reset."""
        out: dict[str, float] = {}
        for mod, func, _ in TARGETS:
            name = f"{mod}.{func}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.seconds[name]
            out[f"{name}.self_s"] = self.self_seconds[name]
        for key, value in self.counts.items():
            out[key] = value
        points = self.counts["problems.sample_criterion_space.points"]
        out["problems.sample_criterion_space.unique_share"] = (
            len(self.decisions) / points if points else 0.0
        )
        return out


# The per-layer metrics the benchmark reports, with their units, as listed in
# BENCHMARK.json. Counts repeat exactly between runs of one input; times do not.
PER_LAYER = tuple(
    (metric["name"], metric["unit"])
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
)
