"""In-process span tracer for the isocmc modules, installed from outside.

``install`` replaces the public functions of each isocmc module with
wrappers that record a span per call: name, start, end and the span that
was open when the call began.  The replacement happens on the module
objects, and every other module attribute bound to the same function
object (``classify.quadratic_test`` is ``graphgeo.quadratic_test``) is
replaced too, so calls through imported names are seen.  Nothing in the
package is edited; ``uninstall`` puts the originals back.

``holo.evaluate`` runs a few times per grid node under
``holo.contour_integral`` and per Newton step under ``vdist.umbilic_scan``.
Its calls are aggregated per parent span (count, seconds, points) instead
of being recorded one by one.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types
from collections import defaultdict

import numpy as np

MODULES = ("holo", "weierstrass", "graphgeo", "classify", "vdist", "io_mesh", "cli")

# Tree builders run once per expression node, so a span there would cost
# more than the work it times; their time counts to the caller.  grid_text
# is the formatter inside write_grid, whose time it is.
UNWRAPPED = {
    "holo.add", "holo.sub", "holo.mul", "holo.div", "holo.neg", "holo.intpow",
    "holo.as_expr", "holo.variables", "io_mesh.grid_text",
}
# In cli only the entry point is wrapped: its self time is the command
# orchestration (argument parsing, report assembly) no module span covers.
CLI_WRAPPED = {"cli.main"}
# The one method with a per-layer metric; other methods count to their callers.
METHODS = (("weierstrass", "SurfaceSample", "as_height_field"),)
AGGREGATED = {"holo.evaluate"}


def _evaluate_points(args, kwargs, result) -> dict:
    at = args[1] if len(args) > 1 else kwargs["at"]
    return {"points": max((int(np.size(v)) for v in at.values()), default=1)}


def _path_bytes(index):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(args[index])}
    return count


# Work counted at the span boundary, computed after the span has ended.
COUNTERS = {
    "holo.evaluate": _evaluate_points,
    "holo.antiderivative": lambda a, k, r: {"none": int(r is None)},
    "weierstrass.synthesize": lambda a, k, r: {"nodes": a[1].n_u * a[1].n_v},
    "io_mesh.write_grid": _path_bytes(1),
    "io_mesh.export_obj": _path_bytes(1),
    "io_mesh.read_grid": _path_bytes(0),
    "vdist.umbilic_scan": lambda a, k, r: {"zeros": len(r)},
}


class Tracer:
    """Spans kept in memory: ``spans`` rows and per-parent ``aggregates``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end, counts]
        self.aggregates: dict[tuple[int, str], dict] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        spans, stack, clock, counter = self.spans, self._stack, time.perf_counter, COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()
            if counter is not None:
                row[4] = counter(args, kwargs, result)
            return result

        return wrapper

    def _aggregate(self, name, fn):
        aggs, stack, clock, counter = self.aggregates, self._stack, time.perf_counter, COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                agg = aggs.get((stack[-1], name))
                if agg is None:
                    agg = aggs[(stack[-1], name)] = defaultdict(int, seconds=0.0)
                agg["calls"] += 1
                agg["seconds"] += elapsed
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    agg[key] += value
            return result

        return wrapper

    def _wrap(self, name, fn):
        return (self._aggregate if name in AGGREGATED else self._span)(name, fn)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"isocmc.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> wrapper; each wrapper keeps its original alive
        for short, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                    and (short != "cli" or name in CLI_WRAPPED)
                ):
                    wrappers[id(value)] = self._wrap(name, value)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])
        for short, cls_name, attr in METHODS:
            cls = getattr(mods[short], cls_name)
            self._patch(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", vars(cls)[attr]))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, float]:
        """Per span name: calls, total self seconds ``s``, and summed counts."""
        covered = defaultdict(float)
        for _, parent, start, end, _ in self.spans:
            covered[parent] += end - start
        for (parent, _), agg in self.aggregates.items():
            covered[parent] += agg["seconds"]
        out: dict[str, float] = defaultdict(int)
        for index, (name, _, start, end, counts) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start - covered[index]
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
        for (_, name), agg in self.aggregates.items():
            out[f"{name}.s"] += agg["seconds"]
            for key, value in agg.items():
                if key != "seconds":
                    out[f"{name}.{key}"] += value
        # Newton and scan work: evaluate calls made anywhere below an umbilic scan.
        scans = {i for i, row in enumerate(self.spans) if row[0] == "vdist.umbilic_scan"}
        out["vdist.umbilic_scan.evaluate_calls"] += sum(
            agg["calls"]
            for (parent, name), agg in self.aggregates.items()
            if name == "holo.evaluate" and self._below(parent, scans)
        )
        return dict(out)

    def _below(self, index: int, ancestors: set[int]) -> bool:
        while index != -1:
            if index in ancestors:
                return True
            index = self.spans[index][1]
        return False

    def write(self, path) -> None:
        """Spans as JSON lines: one per span, then one per aggregate."""
        with open(path, "w") as fh:
            for index, (name, parent, start, end, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "parent": parent,
                                     "start": start, "end": end, **(counts or {})}) + "\n")
            for (parent, name), agg in self.aggregates.items():
                fh.write(json.dumps({"aggregate": name, "parent": parent, **agg}) + "\n")
