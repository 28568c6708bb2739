"""Per-layer tracing of depthtest from outside the package.

The modules bind each other's functions with ``from .x import f``, so a
function is wrapped at every module attribute its callers resolve (for
example ``depthtest.calibration.depth_values``), not only where it is
defined. Each wrapped call records a span (name, start, end, parent span,
op id) in memory; spans are written out when the run ends.

Private helpers are not wrapped; their time lands in the span that calls
them:

* ``depths._spd_cholesky`` in ``depths.depth_values.mahalanobis``;
* ``calibration._StatisticEngine._spatial_row`` / ``_projection_row``
  (apart from the ``projection_outlyingness`` call) and
  ``Generator.permutation`` in ``calibration.self_s``;
* ``simulation._draw_groups`` in ``simulation.sample_scenario`` for the
  scenario draws and in ``simulation.self_s`` for the null draws.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from pathlib import Path


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _depth_name(args, kwargs):
    return f"depths.depth_values.{_arg(args, kwargs, 2, 'kind').kind}"


def _depth_pairs(args, kwargs):
    pairs = len(_arg(args, kwargs, 0, "query")) * len(_arg(args, kwargs, 1, "reference"))
    return f"{_depth_name(args, kwargs)}.pairs", pairs


def _perm_reps(args, kwargs):
    return "calibration.permutation.reps", _arg(args, kwargs, 3, "spec").replications


def _mc_draws(args, kwargs):
    return "calibration.mc.draws", _arg(args, kwargs, 2, "spec").replications


def _datasets(args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    # one null and one scenario data set per replication and grid point
    return "simulation.datasets", 2 * spec.replications * len(spec.m_grid)


def _normal_draws(args, kwargs):
    return "rng.standard_normals.draws", math.prod(_arg(args, kwargs, 1, "shape"))


def _ppf_values(args, kwargs):
    return "special.norm_ppf.values", int(getattr(_arg(args, kwargs, 0, "p"), "size", 1))


# (span name or a function of the call's arguments, counter, resolving modules, attribute)
_SITES = (
    ("cli.run", None, ("cli",), "run"),
    ("dataset.load_csv", None, ("cli",), "load_csv"),
    ("calibration.permutation_report", _perm_reps, ("cli",), "permutation_report"),
    ("calibration.evaluate_statistics", None, ("cli", "simulation"), "evaluate_statistics"),
    ("calibration.mc_asymptotic_min_pvalue", _mc_draws, ("cli",), "mc_asymptotic_min_pvalue"),
    ("simulation.power_table", _datasets, ("cli",), "power_table"),
    ("simulation.sample_scenario", None, ("simulation",), "sample_scenario"),
    ("samples.as_sample_matrix", None,
     ("depths", "quality", "multi_sample", "two_sample"), "as_sample_matrix"),
    ("rng.substream", None, ("calibration", "depths", "simulation"), "substream"),
    ("rng.standard_normals", _normal_draws,
     ("calibration", "depths", "simulation"), "standard_normals"),
    ("special.norm_ppf", _ppf_values, ("rng",), "norm_ppf"),
    (_depth_name, _depth_pairs, ("calibration", "quality", "multi_sample", "two_sample"),
     "depth_values"),
    ("depths.projection_outlyingness", None, ("calibration", "depths"), "projection_outlyingness"),
    ("quality.directed_quality", None, ("multi_sample", "quality"), "directed_quality"),
    ("multi_sample.quality_matrix_from_rows", None, ("calibration",), "quality_matrix_from_rows"),
    ("multi_sample.statistics_k", None, ("calibration",), "min_statistic_k"),
    ("multi_sample.statistics_k", None, ("calibration",), "product_statistic_k"),
    ("multi_sample.statistics_k", None, ("calibration",), "sum_statistic_k"),
    ("two_sample.dbr_from_depth_rows", None, ("calibration",), "dbr_from_depth_rows"),
    ("two_sample.bdbr_from_depth_rows", None, ("calibration",), "bdbr_from_depth_rows"),
    ("two_sample.max_statistic", None, ("calibration",), "max_statistic"),
)

COUNTERS = (
    "calibration.permutation.reps",
    "calibration.mc.draws",
    "simulation.datasets",
    "rng.standard_normals.draws",
    "special.norm_ppf.values",
    *(f"depths.depth_values.{kind}.pairs" for kind in ("mahalanobis", "spatial", "projection")),
)


class Tracer:
    """Wraps the sites above while installed and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack = [-1]
        self._swaps = []
        self.missing = []
        for label, count, modules, attr in _SITES:
            for module_name in modules:
                module = importlib.import_module(f"depthtest.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"depthtest.{module_name}.{attr}")
                    continue
                self._swaps.append((module, attr, original, self._wrap(original, label, count)))

    def _wrap(self, fn, label, count):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        named = isinstance(label, str)

        def wrapper(*args, **kwargs):
            name = label if named else label(args, kwargs)
            if count is not None:
                counter, amount = count(args, kwargs)
                counters[counter] += amount
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1], self.op)

        return wrapper

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)

    def layer_metrics(self, names, ops: int) -> dict[str, float]:
        """Per traced op: calls and busy seconds per span name, self seconds
        per module (busy time minus the time its direct child spans cover),
        and the counters."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                covered[parent] += end - start
        module_self: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            module_self[name.split(".", 1)[0]] += end - start - covered[index]
        out = {}
        for metric in names:
            stem, _, field = metric.rpartition(".")
            if field == "busy_s":
                value = busy[stem]
            elif field == "calls":
                value = calls[stem]
            elif field == "self_s":
                value = module_self[stem]
            elif metric in COUNTERS:
                value = self.counters[metric]
            else:
                raise KeyError(f"no layer measurement for metric {metric!r}")
            out[metric] = value / ops
        return out

    def write(self, path: Path) -> None:
        """One span per line: name, start, end, parent span index, op id."""
        with open(path, "w") as handle:
            handle.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
