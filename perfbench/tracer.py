"""Spans and counters around srsdkit's public functions, installed from outside.

Several modules import these functions by name (``gp`` imports
``relative_error_score``, ``datagen`` and ``evalkit`` import
``evaluate_many``, ...), so :meth:`Tracer.install` replaces every binding of
each function in every loaded ``srsdkit`` module, and each wrapper records the
module that called it. No source file changes.

A span's self time is its duration minus the durations of the spans opened
inside it. Counter hooks run after a span closes and are recorded as their own
``perfbench.hooks`` span, so their cost is not charged to the traced layers.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class _FitnessCounter:
    """Counts distinct Expressions per training set and infinite scores."""

    def __init__(self):
        self.train = None
        self.seen: set = set()

    def __call__(self, counts, caller, args, kwargs, result):
        train = _arg(args, kwargs, 1, "train")
        if train is not self.train:
            self.flush(counts)
            self.train = train
        self.seen.add(_arg(args, kwargs, 0, "expr"))
        counts["gp.fitness.inf"] += math.isinf(result)

    def flush(self, counts):
        counts["gp.fitness.distinct"] += len(self.seen)
        self.seen = set()


def _count_evaluate_many(counts, caller, args, kwargs, result):
    counts[f"expr.evaluate_many.from_{caller}.rows"] += _arg(args, kwargs, 1, "X").shape[0]
    counts[f"expr.evaluate_many.from_{caller}.fault_rows"] += int(result[1].sum())


def _count_file_bytes(counter, path_position):
    def hook(counts, caller, args, kwargs, result):
        counts[counter] += os.path.getsize(_arg(args, kwargs, path_position, "path"))
    return hook


def _count_sample(counts, caller, args, kwargs, result):
    counts["datagen.sample.rows"] += result.n_rows


def _count_leakage(counts, caller, args, kwargs, result):
    counts["synthgen.leakage_report.pairs"] += len(args[0]) * len(args[1])
    counts["synthgen.leakage_report.matches"] += sum(e.n_matches for e in result.per_equation)


class Tracer:
    def __init__(self):
        self.open: list[list[float]] = []  # child-span time of each open span
        self.spans: dict[tuple[str, str], list] = {}  # (name, caller) -> [calls, self_s]
        self.counts: Counter = Counter()
        self.top_level_s = 0.0
        self._fitness = _FitnessCounter()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _close(self, name, caller, elapsed, child):
        stats = self.spans.get((name, caller))
        if stats is None:
            stats = self.spans[(name, caller)] = [0, 0.0]
        stats[0] += 1
        stats[1] += elapsed - child
        if self.open:
            self.open[-1][0] += elapsed
        else:
            self.top_level_s += elapsed

    @contextmanager
    def span(self, name):
        frame = [0.0]
        self.open.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.open.pop()
            self._close(name, "perfbench", elapsed, frame[0])

    def _wrap(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "?").removeprefix("srsdkit.")
            frame = [0.0]
            self.open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.open.pop()
                self._close(name, caller, elapsed, frame[0])
            if hook is not None:
                start = perf_counter()
                hook(self.counts, caller, args, kwargs, result)
                self._close("perfbench.hooks", "perfbench", perf_counter() - start, 0.0)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def targets(self):
        """(defining module, function, span name, counter hook) to wrap."""
        return [
            ("srsdkit.gp", "evolve", "gp.evolve", None),
            ("srsdkit.gp", "fitness", "gp.fitness", self._fitness),
            ("srsdkit.evalkit", "relative_error_score", "evalkit.relative_error_score", None),
            ("srsdkit.evalkit", "select_best", "evalkit.select_best", None),
            ("srsdkit.evalkit", "evaluate_against", "evalkit.evaluate_against", None),
            ("srsdkit.expr.evaluate", "evaluate_many", "expr.evaluate_many", _count_evaluate_many),
            ("srsdkit.expr.canon", "canonicalize", "expr.canonicalize", None),
            ("srsdkit.datagen", "write", "datagen.write", _count_file_bytes("datagen.write.bytes", 1)),
            ("srsdkit.datagen", "read", "datagen.read", _count_file_bytes("datagen.read.bytes", 0)),
            ("srsdkit.datagen", "sample", "datagen.sample", _count_sample),
            ("srsdkit.treedist", "edit_distance", "treedist.edit_distance", None),
            ("srsdkit.synthgen", "leakage_report", "synthgen.leakage_report", _count_leakage),
            ("srsdkit.synthgen", "sample_equation", "synthgen.sample_equation", None),
            ("srsdkit.synthgen", "assign_ranges", "synthgen.assign_ranges", None),
        ]

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "srsdkit" or n.startswith("srsdkit."))]
        for module_name, attr, name, hook in self.targets():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()
        self._fitness.flush(self.counts)

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, wall_s: float, catalog_load_s: float) -> dict[str, float]:
        """Every per-layer metric of one traced repetition; a layer the
        workload does not reach reports zero calls, zero time and zero ratios."""
        total: dict[str, list] = {}
        for (name, _), (n_calls, self_time) in self.spans.items():
            row = total.setdefault(name, [0, 0.0])
            row[0] += n_calls
            row[1] += self_time

        def calls(name):
            return total.get(name, [0, 0.0])[0]

        def self_s(name):
            return total.get(name, [0, 0.0])[1]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        m: dict[str, float] = {}
        for name in ("gp.evolve", "gp.fitness", "evalkit.relative_error_score",
                     "evalkit.select_best", "evalkit.evaluate_against", "expr.canonicalize",
                     "datagen.write", "datagen.read", "datagen.sample",
                     "treedist.edit_distance", "synthgen.sample_equation",
                     "synthgen.assign_ranges"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)
        m["gp.fitness.distinct_ratio"] = ratio(c["gp.fitness.distinct"], calls("gp.fitness"))
        m["gp.fitness.inf_share"] = ratio(c["gp.fitness.inf"], calls("gp.fitness"))
        for caller in ("evalkit", "datagen"):
            key = f"expr.evaluate_many.from_{caller}"
            spans = [v for (n, who), v in self.spans.items()
                     if n == "expr.evaluate_many" and who == caller]
            m[f"{key}.calls"] = sum(v[0] for v in spans)
            m[f"{key}.rows"] = c[f"{key}.rows"]
            m[f"{key}.self_s"] = sum((v[1] for v in spans), 0.0)
            m[f"{key}.fault_row_share"] = ratio(c[f"{key}.fault_rows"], c[f"{key}.rows"])
        for io in ("write", "read"):
            mb = c[f"datagen.{io}.bytes"] / 1e6
            m[f"datagen.{io}.mb"] = mb
            m[f"datagen.{io}.mb_per_s"] = ratio(mb, self_s(f"datagen.{io}"))
        m["datagen.sample.accept_ratio"] = ratio(
            c["datagen.sample.rows"], c["expr.evaluate_many.from_datagen.rows"])
        m["treedist.edit_distance.us_per_call"] = ratio(
            1e6 * self_s("treedist.edit_distance"), calls("treedist.edit_distance"))
        m["synthgen.leakage_report.pairs"] = c["synthgen.leakage_report.pairs"]
        m["synthgen.leakage_report.match_ratio"] = ratio(
            c["synthgen.leakage_report.matches"], c["synthgen.leakage_report.pairs"])
        m["synthgen.leakage_report.self_s"] = self_s("synthgen.leakage_report")
        for command in ("generate", "discover", "eval", "synth", "leakcheck"):
            m[f"cli.{command}.self_s"] = self_s(f"cli.{command}")
        m["catalog.load.self_s"] = catalog_load_s
        m["trace.accounted_share"] = ratio(self.top_level_s, wall_s)
        return m
