"""In-memory span tracer that wraps trajdiag's public functions from outside.

``from .x import y`` binds ``y`` again in every importing module, so a
wrapper must replace each binding where the function is looked up (for
example ``trajdiag.evolve.count_intersections`` and
``trajdiag.cli.classify``). :meth:`Tracer.install` scans the loaded
``trajdiag`` modules for every binding of each original object. Methods
are wrapped on their class. A target that a later version of the package
no longer has is skipped, so its metrics read 0.

Spans are kept in memory as ``(op, span id, parent id, name, start, end,
ok)``; ``op`` is the workload operation (-1 during set-up) and so groups
the spans of one request. Counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _segment_pairs(tracer, args, kwargs, result):
    counts = tracer.counts
    counts["trajectory.count.incidences"] += result[0]
    trajectories = args[0] if args else kwargs.get("trajectories")
    if isinstance(trajectories, (list, tuple)):
        per = [len(t.points) - 1 for t in trajectories]
        total = sum(per)
        counts["trajectory.count.segment_pairs"] += (total * total - sum(s * s for s in per)) // 2


def _magnitude_points(tracer, args, kwargs, result):
    tracer.counts["faultlib.magnitudes.points"] += int(getattr(result, "size", 0))


def _gain_points(tracer, args, kwargs, result):
    tracer.counts["acsim.gains.points"] += len(result)


def _fitness(tracer, args, kwargs, result):
    if result == 0.0:
        tracer.counts["evolve.fitness.zero"] += 1
    tv = args[0] if args else kwargs.get("tv")
    tracer.note_vector(tuple(getattr(tv, "frequencies", ())))


def _classify(tracer, args, kwargs, result):
    tracer.counts["diagnose.nominal"] += bool(result.nominal)
    tracer.counts["diagnose.ambiguous"] += bool(result.ambiguous)


def _bytes_written(tracer, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    try:
        tracer.counts["cli.bytes_written"] += os.path.getsize(path)
    except (OSError, TypeError):
        pass


# span name -> (defining module, attribute or Class.method, count hook)
TARGETS = {
    "cli.main": ("trajdiag.cli", "main", None),
    "netlist.parse": ("trajdiag.netlist", "parse_netlist", None),
    "netlist.apply_deviation": ("trajdiag.netlist", "apply_deviation", None),
    "acsim.gains": ("trajdiag.acsim", "MnaSystem.gains", _gain_points),
    "faultlib.ensemble_build": ("trajdiag.faultlib", "FaultEnsemble.__init__", None),
    "faultlib.magnitudes": ("trajdiag.faultlib", "FaultEnsemble.magnitudes", _magnitude_points),
    "faultlib.build_dictionary": ("trajdiag.faultlib", "build_dictionary", None),
    "faultlib.evaluate_at": ("trajdiag.faultlib", "evaluate_at", None),
    "faultlib.write_dictionary": ("trajdiag.faultlib", "write_dictionary_csv", _bytes_written),
    "trajectory.build": ("trajdiag.trajectory", "build_trajectories", None),
    "trajectory.count": ("trajdiag.trajectory", "count_intersections", _segment_pairs),
    "trajectory.write": ("trajdiag.trajectory", "write_trajectories_csv", _bytes_written),
    "evolve.run_ga": ("trajdiag.evolve", "run_ga", None),
    "evolve.fitness": ("trajdiag.evolve", "fitness", _fitness),
    "evolve.step_generation": ("trajdiag.evolve", "step_generation", None),
    "evolve.write_ga_log": ("trajdiag.evolve", "write_ga_log_csv", _bytes_written),
    "diagnose.classify": ("trajdiag.diagnose", "classify", _classify),
    "diagnose.write": ("trajdiag.diagnose", "write_diagnosis_csv", _bytes_written),
}

WRITERS = ("faultlib.write_dictionary", "trajectory.write", "evolve.write_ga_log", "diagnose.write")


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Tracer:
    """Records spans and counts of wrapped calls while installed."""

    def __init__(self):
        self.op = -1
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._seen_op = None
        self._seen: set = set()

    def note_vector(self, key: tuple) -> None:
        """Count ``key`` once per operation (distinct fitness test vectors)."""
        if self._seen_op != self.op:
            self._seen_op, self._seen = self.op, set()
        if key not in self._seen:
            self._seen.add(key)
            self.counts["evolve.fitness.unique"] += 1

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            # ids count spans started so far: finished plus open
            span_id = len(self.spans) + len(self._stack)
            self._stack.append(span_id)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((self.op, span_id, parent, name, start, end, ok))
            if hook is not None and self.op >= 0:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, _, _ in TARGETS.values():
            importlib.import_module(module_name)
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "trajdiag" or n.startswith("trajdiag."))
        ]
        for name, (module_name, path, hook) in TARGETS.items():
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(name, original, hook))
                self._undo.append((owner, attr, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original, hook)
            for candidate in modules:
                for key, value in list(vars(candidate).items()):
                    if value is original:
                        setattr(candidate, key, wrapped)
                        self._undo.append((candidate, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-span-name table over the traced operations, plus set-up totals.

        Self time is a span's duration minus the durations of its direct
        children; wrapped calls run on one thread, so children never overlap.
        """
        child = defaultdict(float)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict = {}
        for op, span_id, _, name, start, end, ok in self.spans:
            row = table.setdefault(
                name,
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failures": 0,
                 "setup_s": 0.0, "durations": []},
            )
            duration = end - start
            row["durations"].append(duration)
            if op < 0:
                row["setup_s"] += duration
                continue
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[span_id]
            row["failures"] += not ok
        for row in table.values():
            durations = sorted(row.pop("durations"))
            row["p50_ms"] = 1e3 * percentile(durations, 0.5)
            row["p99_ms"] = 1e3 * percentile(durations, 0.99)
        return {"spans": table, "counts": dict(self.counts)}
