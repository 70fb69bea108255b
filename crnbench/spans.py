"""Spans around the public functions of the program's layers.

:class:`Tracer` wraps each public function of ``network``, ``linalg``,
``lp``, ``siphons``, ``geometry``, ``relevance`` and ``cli`` and rebinds the
wrapper in every ``crnsiphon`` module that holds the function, so calls
between layers (``face_dimension`` -> ``affine_dim`` -> ``feasible``) are
seen as nested spans.  ``linalg.dot`` stays unwrapped: it is a single inner
product called thousands of times per operation, and a span around it
would cost more than the work it times.

A span is ``[name, start, end, parent span, operation id]``.  Spans stay in
memory until :meth:`Tracer.dump`.  A name's time is the summed duration of
its outermost spans (nested spans of the same name are not counted twice);
a self time subtracts the time covered by direct child spans.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from math import comb

LAYERS = ("network", "linalg", "lp", "siphons", "geometry", "relevance", "cli")
UNWRAPPED = {"crnsiphon.linalg.dot"}

# metric name -> (unit, better), in the order they are printed
PER_LAYER = {
    "network.parse_s": ("s", "lower"),
    "network.connectivity_s": ("s", "lower"),
    "linalg.row_reduce_calls": ("count", "lower"),
    "linalg.row_reduce_s": ("s", "lower"),
    "lp.feasible_calls": ("count", "lower"),
    "lp.feasible_s": ("s", "lower"),
    "lp.tableau_cells": ("count", "lower"),
    "lp.affine_dim_calls": ("count", "lower"),
    "lp.affine_dim_s": ("s", "lower"),
    "siphons.enumerate_s": ("s", "lower"),
    "siphons.results": ("count", "higher"),
    "siphons.is_siphon_calls": ("count", "lower"),
    "geometry.build_cone_s": ("s", "lower"),
    "geometry.facet_subsets": ("count", "lower"),
    "geometry.facet_yield": ("ratio", "higher"),
    "geometry.face_dimension_calls": ("count", "lower"),
    "geometry.face_dimension_s": ("s", "lower"),
    "geometry.vertex_supports_s": ("s", "lower"),
    "geometry.column_bases": ("count", "lower"),
    "relevance.is_relevant_calls": ("count", "lower"),
    "relevance.is_relevant_s": ("s", "lower"),
    "relevance.analyze_self_s": ("s", "lower"),
    "cli.run_self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _tableau_cells(system) -> int:
    """Rows x columns of the phase-one tableau ``feasible`` builds: one row
    per equality (plus the normalization row), one column per non-negative
    variable, two per free variable, one per artificial, and the rhs."""
    rows = len(system.eq_coeffs) + (system.normalization is not None)
    cols = 0
    for j in range(system.num_vars):
        if j in system.zero:
            continue
        cols += 1 if j in system.nonneg else 2
    return rows * (cols + rows + 1)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts = {
            "lp.tableau_cells": 0,
            "siphons.results": 0,
            "geometry.facet_subsets": 0,
            "geometry.facets": 0,
            "geometry.column_bases": 0,
        }
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _after(self, name: str, args, result) -> None:
        counts = self.counts
        if name == "crnsiphon.lp.feasible":
            counts["lp.tableau_cells"] += _tableau_cells(args[0])
        elif name == "crnsiphon.siphons.minimal_siphons":
            counts["siphons.results"] += len(result)
        elif name == "crnsiphon.siphons.transversal_counts":
            counts["siphons.results"] += result.total
        elif name == "crnsiphon.geometry.build_cone":
            if result.pointed and result.dim > 0:
                counts["geometry.facet_subsets"] += comb(result.num_generators, result.dim - 1)
                counts["geometry.facets"] += len(result.facets)
        elif name == "crnsiphon.geometry.vertex_supports":
            p = args[0]
            counts["geometry.column_bases"] += comb(p.matrix.cols, p.matrix.rows)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        after = self._after

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            after(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every public layer function to its traced wrapper."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"crnsiphon.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"crnsiphon.{layer}.{attr}"
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name not in UNWRAPPED:
                    wrappers[id(fn)] = self._wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "crnsiphon" and not mod_name.startswith("crnsiphon."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    # -- reporting ---------------------------------------------------------

    def per_op(self, ops: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics as means per traced operation."""
        spans = self.spans
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, start, end, parent, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child[k]
            outermost = True
            while parent >= 0:
                if spans[parent][0] == name:
                    outermost = False
                    break
                parent = spans[parent][3]
            if outermost:
                total[name] = total.get(name, 0.0) + (end - start)

        def t(*names):
            return sum(total.get(f"crnsiphon.{n}", 0.0) for n in names) / ops

        def n(name):
            return calls.get(f"crnsiphon.{name}", 0) / ops

        counts = self.counts
        subsets = counts["geometry.facet_subsets"]
        metrics = {
            "network.parse_s": t("network.parse_network"),
            "network.connectivity_s": t("network.connectivity"),
            "linalg.row_reduce_calls": n("linalg.row_reduce"),
            "linalg.row_reduce_s": t("linalg.row_reduce"),
            "lp.feasible_calls": n("lp.feasible"),
            "lp.feasible_s": t("lp.feasible"),
            "lp.tableau_cells": counts["lp.tableau_cells"] / ops,
            "lp.affine_dim_calls": n("lp.affine_dim"),
            "lp.affine_dim_s": t("lp.affine_dim"),
            "siphons.enumerate_s": t("siphons.minimal_siphons", "siphons.transversal_counts"),
            "siphons.results": counts["siphons.results"] / ops,
            "siphons.is_siphon_calls": n("siphons.is_siphon"),
            "geometry.build_cone_s": t("geometry.build_cone"),
            "geometry.facet_subsets": subsets / ops,
            "geometry.facet_yield": counts["geometry.facets"] / subsets if subsets else 0.0,
            "geometry.face_dimension_calls": n("geometry.face_dimension"),
            "geometry.face_dimension_s": t("geometry.face_dimension"),
            "geometry.vertex_supports_s": t("geometry.vertex_supports"),
            "geometry.column_bases": counts["geometry.column_bases"] / ops,
            "relevance.is_relevant_calls": n("relevance.is_relevant"),
            "relevance.is_relevant_s": t("relevance.is_relevant"),
            "relevance.analyze_self_s": self_time.get("crnsiphon.relevance.analyze", 0.0) / ops,
            "cli.run_self_s": self_time.get("crnsiphon.cli.run", 0.0) / ops,
            "trace.overhead_s": overhead_s,
        }
        return metrics

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent, op] for n, start, end, parent, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "names": names,
                       "spans": rows}, fh, separators=(",", ":"))
