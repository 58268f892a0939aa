"""Outside-in tracer: wraps ggm's entry points from outside the package.

Modules import one another's functions by name, so a call can go through
several bindings of the same function object (``ggm.roof.verify_preimage``,
``ggm.cli.verify_preimage`` and ``ggm.twirl.verify_preimage`` are one
function).  :class:`Tracer` replaces every such binding in every ggm module,
plus the values of ``FAMILY_BUILDERS`` and the listed class attributes, and
puts the originals back on exit.  The wrappers only record spans; they pass
arguments and results through untouched.

A span is ``(name, start_ns, end_ns, parent_index, run_id, count)``.  Spans
stay in memory until :meth:`Tracer.write` saves them.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import statistics
import time

GGM_MODULES = ("ggm", "ggm.cli", "ggm.families", "ggm.roof", "ggm._batch",
               "ggm.pure", "ggm.twirl", "ggm.hilbert", "ggm.states")


def _first_len(args, kwargs):
    return len(args[0])


def _second_len(args, kwargs):
    return len(args[1])


def _minimize_name(args, kwargs):
    init = args[2] if len(args) > 2 else kwargs.get("init_phases")
    return "batch.minimize_phases.raw" if init is None else "batch.minimize_phases.stencil"


# (home module, attribute, span name, count of work items or None).  A span
# name may be a function of the call's arguments.
FUNCTIONS = (
    ("ggm._batch", "minimize_phases", _minimize_name, _second_len),
    ("ggm.roof", "ggm_mixed", "roof.ggm_mixed", None),
    ("ggm.roof", "convex_envelope_2d", "roof.convex_envelope_2d", _first_len),
    ("ggm.roof", "convex_envelope_1d", "roof.convex_envelope_1d", None),
    ("ggm.roof", "min_phase_ggm", "roof.min_phase_ggm", None),
    ("ggm.roof", "min_phase_ggm_many", "roof.min_phase_ggm_many", None),
    ("ggm.roof", "hjw_upper_bound", "roof.hjw_upper_bound", None),
    ("ggm.pure", "ggm_values", "pure.ggm_values", _first_len),
    ("ggm.pure", "ggm_pure", "pure.ggm_pure", None),
    ("ggm.pure", "max_schmidt_sq", "pure.max_schmidt_sq", None),
    ("ggm.twirl", "verify_invariance", "twirl.verify_invariance", None),
    ("ggm.twirl", "verify_preimage", "twirl.verify_preimage", None),
    ("ggm.cli", "main", "cli.main", None),
    ("ggm.cli", "parse_group_spec", "cli.parse_group_spec", None),
    ("ggm.cli", "parse_family_spec", "cli.parse_family_spec", None),
)

# (module, class, attribute, span name, count or None)
METHODS = (
    ("ggm._batch", "PhaseObjective", "values", "batch.PhaseObjective.values", _second_len),
    ("ggm.roof", "GgmSurface", "to_csv_text", "roof.GgmSurface.to_csv_text", None),
    ("ggm.twirl", "UnitaryGroup", "__post_init__", "twirl.UnitaryGroup.init", None),
    ("ggm.hilbert", "DensityMatrix", "__post_init__", "hilbert.DensityMatrix.init", None),
)

FAMILY_SPAN = "families.build"

SPAN_NAMES = (
    "batch.PhaseObjective.values",
    "batch.minimize_phases.raw",
    "batch.minimize_phases.stencil",
    "roof.ggm_mixed",
    "roof.convex_envelope_2d",
    "roof.convex_envelope_1d",
    "roof.GgmSurface.to_csv_text",
    "roof.min_phase_ggm",
    "roof.min_phase_ggm_many",
    "roof.hjw_upper_bound",
    "pure.ggm_values",
    "pure.ggm_pure",
    "pure.max_schmidt_sq",
    "twirl.UnitaryGroup.init",
    "twirl.verify_invariance",
    "twirl.verify_preimage",
    "hilbert.DensityMatrix.init",
    FAMILY_SPAN,
    "cli.main",
    "cli.parse_group_spec",
    "cli.parse_family_spec",
)

# Work counts reported next to calls/s/self_s: (span, metric suffix, unit).
COUNT_METRICS = (
    ("batch.PhaseObjective.values", "rows", "count"),
    ("batch.minimize_phases.raw", "points", "count"),
    ("batch.minimize_phases.stencil", "points", "count"),
    ("roof.convex_envelope_2d", "points", "count"),
    ("pure.ggm_values", "rows", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.s"] = "s"
        units[f"{span}.self_s"] = "s"
    for span, suffix, unit in COUNT_METRICS:
        units[f"{span}.{suffix}"] = unit
    units["batch.PhaseObjective.values.rows_per_s"] = "1/s"
    units["batch.minimize_phases.raw.rows_per_point"] = "rows/point"
    units["batch.minimize_phases.stencil.rows_per_point"] = "rows/point"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Context manager that patches ggm's bindings and records spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []
        self.run_id = ""

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            n = count(args, kwargs) if count is not None else 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (label, start, clock(), parent, self.run_id, n)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapper):
        """Point every module-level name bound to ``original`` at ``wrapper``."""
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def __enter__(self):
        # ``ggm.twirl`` is the re-exported function, so modules are looked up
        # by name rather than as attributes of the package.
        modules = [importlib.import_module(m) for m in GGM_MODULES]
        for home, attr, name, count in FUNCTIONS:
            original = getattr(importlib.import_module(home), attr)
            self._rebind(modules, original, self._wrap(original, name, count))
        builders = importlib.import_module("ggm.families").FAMILY_BUILDERS
        for key, builder in list(builders.items()):
            wrapper = self._wrap(builder, FAMILY_SPAN, None)
            self._undo.append((builders, key, builder))
            builders[key] = wrapper
            self._rebind(modules, builder, wrapper)
        for home, cls_name, attr, name, count in METHODS:
            cls = getattr(importlib.import_module(home), cls_name)
            self._set(cls, attr, self._wrap(cls.__dict__[attr], name, count))
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()
        return False

    def write(self, path) -> None:
        """Save every span as gzip'd CSV: index, parent, run, name, start, end."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "parent", "run", "name", "start_ns", "end_ns", "count"])
            for i, (name, start, end, parent, run, n) in enumerate(self.spans):
                writer.writerow([i, parent, run, name, start, end, n])


def layer_metrics(spans, run_id) -> dict[str, float]:
    """Per-layer metrics of one run id: calls, s, self_s and work counts."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0)
    child = [0] * len(spans)
    own = dict.fromkeys(SPAN_NAMES, 0)
    counts = {}
    owner = [-1] * len(spans)
    rows_under: dict[int, int] = {}
    for i, (name, start, end, parent, run, n) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            owner[i] = owner[parent]
        if name.startswith("batch.minimize_phases"):
            owner[i] = i
        if run != run_id:
            continue
        if name == "batch.PhaseObjective.values" and owner[i] >= 0:
            rows_under[owner[i]] = rows_under.get(owner[i], 0) + n
    for i, (name, start, end, parent, run, n) in enumerate(spans):
        if run != run_id:
            continue
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i]
        counts[name] = counts.get(name, 0) + n
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name] / 1e9
        out[f"{name}.self_s"] = own[name] / 1e9
    for name, suffix, _ in COUNT_METRICS:
        out[f"{name}.{suffix}"] = counts.get(name, 0)
    values_s = out["batch.PhaseObjective.values.s"]
    out["batch.PhaseObjective.values.rows_per_s"] = (
        out["batch.PhaseObjective.values.rows"] / values_s if values_s else 0.0)
    for stage in ("raw", "stencil"):
        name = f"batch.minimize_phases.{stage}"
        rows = sum(r for i, r in rows_under.items() if spans[i][0] == name)
        points = out[f"{name}.points"]
        out[f"{name}.rows_per_point"] = rows / points if points else 0.0
    return out


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over runs; a value every run repeats is kept as is."""
    out = {}
    for key in per_run[0]:
        values = [run[key] for run in per_run]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
