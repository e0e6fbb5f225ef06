"""Per-layer tracing from outside the program.

A `Tracer` wraps every public function of the package's layer modules,
and `install()` puts each wrapper under every name the function is
looked up by (its own module, the modules that imported it, and the
package), so internal calls such as `nets.hole_scale -> curve_value`
are caught too.  Each call is a span
(name, start, end, parent, operation id).  Self time, call counts and
work counts are summed as calls return, so they cover the whole traced
run; the spans themselves are kept in memory up to a cap and written
once, as JSON lines, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("inscribe", "nets", "oracle", "cells", "cli", "svg")

# Spans kept in memory: 40 bytes each in the arrays below.  A theorems
# round makes millions of calls, so the span file holds the first ones.
SPAN_CAP = 200_000


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Span recorder and per-function aggregates for one traced run."""

    def __init__(self, package) -> None:
        self.modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.work: Counter = Counter()
        self.hole_shapes: set = set()
        self.useful_ratios: list[float] = []
        self._hole_calls_before = 0
        self.stack: list[list] = []
        self.op_id = -1
        self.names: list[str] = []
        self.next_span = 0
        self.spans = (array("l"), array("d"), array("d"), array("l"), array("l"))
        self.t0 = time.perf_counter()
        self._patches: list[tuple[object, str, object, object]] = []
        counters = {
            "cells.largest_squares": self._count_cells,
            "nets.net_scale_factor": self._count_holes,
            "nets.hole_scale": self._count_hole_shape,
            "oracle.perturbation_suite": self._count_specs,
        }
        namespaces = [package, *self.modules.values()]
        for layer, module in self.modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, counters.get(name))
                for ns in namespaces:
                    for key, value in vars(ns).items():
                        if value is fn:
                            self._patches.append((ns, key, fn, wrapper))

    def install(self) -> None:
        """Route every lookup of a public layer function through its wrapper.

        Each install starts a traced round: the distinct hole shapes are
        counted afresh, so that `useful_ratio` is a ratio within one round.
        """
        self.hole_shapes.clear()
        self._hole_calls_before = self.calls["nets.hole_scale"]
        for ns, key, _, wrapper in self._patches:
            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        """Restore the original functions and close the traced round."""
        for ns, key, fn, _ in self._patches:
            setattr(ns, key, fn)
        calls = self.calls["nets.hole_scale"] - self._hole_calls_before
        if calls:
            self.useful_ratios.append(len(self.hole_shapes) / calls)

    def _wrap(self, name: str, fn, count):
        idx = len(self.names)
        self.names.append(name)
        tracer = self
        stack = self.stack
        perf = time.perf_counter
        names_idx, starts, ends, parents, ops = self.spans

        def traced(*args, **kwargs):
            span = tracer.next_span
            tracer.next_span = span + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                tracer.calls[name] += 1
                if count is not None:
                    count(fn, args, kwargs)
                if span < SPAN_CAP:
                    names_idx.append(idx)
                    starts.append(start - tracer.t0)
                    ends.append(end - tracer.t0)
                    parents.append(parent)
                    ops.append(tracer.op_id)

        traced.__wrapped__ = fn
        return traced

    # -- work counters -----------------------------------------------------

    def _count_cells(self, fn, args, kwargs) -> None:
        self.work["cells.largest_squares.cells"] += len(_bound(fn, args, kwargs)["cells"])

    def _count_holes(self, fn, args, kwargs) -> None:
        net = args[0] if args else kwargs["net"]
        self.work["nets.net_scale_factor.holes"] += (len(net.vertical) + 1) * (len(net.horizontal) + 1)

    def _count_hole_shape(self, fn, args, kwargs) -> None:
        self.hole_shapes.add(args if len(args) == 3 else tuple(_bound(fn, args, kwargs).values()))

    def _count_specs(self, fn, args, kwargs) -> None:
        self.work["oracle.perturbation_suite.specs"] += _bound(fn, args, kwargs)["trials"]

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit), averaged per traced round."""
        per = 1.0 / max(rounds, 1)
        out: dict[str, tuple[float, str]] = {}

        def self_s(*names):
            for name in names:
                out[f"{name}.self_s"] = (self.self_s[name] * per, "s")

        def self_s_and_calls(*names):
            for name in names:
                self_s(name)
                out[f"{name}.calls"] = (self.calls[name] * per, "count")

        def ratio(part: float, whole: float) -> tuple[float, str]:
            return (part / whole if whole else 0.0, "ratio")

        cells = self.work["cells.largest_squares.cells"]
        self_s_and_calls("cells.largest_squares", "cells.arrangement_cells", "cells.convex_cell")
        out["cells.largest_squares.cells"] = (cells * per, "count")
        out["cells.convex_cell.calls_per_cell"] = ratio(self.calls["cells.convex_cell"], cells)

        self_s_and_calls("nets.net_scale_factor", "nets.hole_scale")
        out["nets.net_scale_factor.holes"] = (self.work["nets.net_scale_factor.holes"] * per, "count")
        ratios = self.useful_ratios
        out["nets.hole_scale.useful_ratio"] = (sum(ratios) / len(ratios) if ratios else 0.0, "ratio")

        self_s_and_calls("inscribe.curve_sample", "inscribe.curve_value", "inscribe.diagonal_branch", "inscribe.crossover_w")
        out["inscribe.crossover_w.errors"] = (self.errors["inscribe.crossover_w"] * per, "count")

        self_s_and_calls("oracle.oracle_curve_value")
        self_s(
            "oracle.theorem_scan",
            "oracle.enumerate_axis_nets",
            "oracle.irregular_spacing_check",
            "oracle.lagrange_split_check",
            "oracle.perturbation_suite",
            "oracle.local_perturbation_experiment",
        )
        out["oracle.perturbation_suite.specs"] = (self.work["oracle.perturbation_suite.specs"] * per, "count")

        self_s("cli.main", "cli.cmd_curve", "cli.cmd_base_curve", "cli.cmd_optimal_net", "cli.cmd_verify")
        out["cli.bytes_written"] = (self.work["cli.bytes_written"] * per, "bytes")

        self_s("svg.curve_plot_svg", "svg.net_plot_svg")
        return out

    def write_spans(self, path: Path) -> tuple[int, int]:
        """Write the kept spans as JSON lines; returns (written, dropped)."""
        names_idx, starts, ends, parents, ops = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in range(len(starts)):
                record = {
                    "span": span,
                    "name": self.names[names_idx[span]],
                    "start": starts[span],
                    "end": ends[span],
                    "parent": parents[span],
                    "op": ops[span],
                }
                handle.write(json.dumps(record) + "\n")
        return len(starts), self.next_span - len(starts)
