"""Layer tracer: one span per call into a public function of a layer module.

The layers are the modules of ``lattice_wigner``.  ``Tracer.install`` wraps
every public function a layer module defines, wherever the package holds a
reference to it: in the defining module, in every other layer module that
imported it by name (``scenario`` and ``cli`` import most of them), and in the
package namespace that library callers use.  Nothing under ``src/`` changes;
``uninstall`` puts the original functions back.

A span is ``[op_id, name, start, end, parent, error, counts]``.  Spans are
kept in memory and written once, when the process ends.  Times come from
``time.perf_counter``, which on Linux reads the system-wide monotonic clock, so
spans written by a child process line up with the parent's op timestamps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "scenario",
    "analytic",
    "states",
    "wigner",
    "continuous",
    "walk",
    "negativity",
    "output",
    "grids",
    "special",
)

SPAN_FIELDS = ["op_id", "name", "start", "end", "parent", "error", "counts"]

# Per-value helpers: output.fmt runs once per number written (about 1 M calls
# for one fig2 run), so a span each would cost more than the work it times.
SKIP = frozenset({"output.fmt"})

# Sub-layer groups.  A span belongs to the group of its nearest ancestor (or
# itself) in the same layer that names one.
GROUPS = {
    "wigner.wigner_of_density": "transform",
    "wigner.wigner_of_pure": "transform",
    "wigner.wigner_of_operator": "transform",
    "wigner.scalar_wigner_of_lattice": "transform",
    "wigner.reconstruct_density": "reconstruct",
    "continuous.linear_potential_propagate": "propagator",
    "continuous.spin_linear_propagate": "propagator",
    "continuous.lindblad_wigner_closed": "propagator",
    "continuous.lindblad_rk4": "oracle",
    "continuous.von_neumann_rk4": "oracle",
    "walk.walk_trajectory": "state_step",
    "walk.qw_step_state": "state_step",
    "walk.qw_step_wigner": "wigner_step",
}


def grid_cells(w) -> int:
    return int(w.values.shape[0] * w.values.shape[1])


def _transform_counts(args, result):
    return {"cells": grid_cells(result), "bytes_computed": int(result.values.nbytes)}


def _one(key):
    return lambda args, result: {key: 1}


# Work counts taken at the layer boundary from a call's arguments or result.
COUNTERS = {
    "wigner.wigner_of_density": _transform_counts,
    "wigner.wigner_of_pure": _transform_counts,
    "wigner.wigner_of_operator": _transform_counts,
    "wigner.scalar_wigner_of_lattice": _transform_counts,
    "wigner.reconstruct_density": lambda a, r: {"bytes_computed": int(r.matrix.nbytes)},
    "continuous.linear_potential_propagate": _one("snapshots"),
    "continuous.spin_linear_propagate": _one("snapshots"),
    "continuous.lindblad_rk4": lambda a, r: {"snapshots": len(r.snapshots)},
    "walk.qw_step_state": _one("steps"),
    "walk.qw_step_wigner": _one("steps"),
    "negativity.matrix_negativity": lambda a, r: {"cells": grid_cells(a[0])},
    "negativity.scalar_negativity": lambda a, r: {"cells": grid_cells(a[0])},
}


def _output_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


class Tracer:
    """Records spans for the public functions of every layer while installed."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)
        if count is None and name.startswith("output.write_"):
            count = _output_bytes
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [tracer.op_id, name, 0.0, 0.0, stack[-1] if stack else None, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                span[6] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("lattice_wigner")
        modules = [importlib.import_module(f"lattice_wigner.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                    # a generator's body runs after the call returns
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[obj] = self._wrap(name, obj)
        for ns in (package, *modules):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    def write(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans, **extra}, fh)


def layer_totals(spans) -> dict:
    """Per-layer sums over spans whose parent indices point into ``spans``.

    ``<layer>.self_s`` is each span's duration minus the time its child spans
    cover, summed; ``<layer>.busy_s`` counts only spans with no ancestor in the
    same layer, so nested calls are not counted twice.
    """
    n = len(spans)
    covered = [0.0] * n
    for s in spans:
        if s[4] is not None:
            covered[s[4]] += s[3] - s[2]
    layer_of = [s[1].split(".", 1)[0] for s in spans]
    above = [frozenset()] * n
    group = [None] * n
    totals = defaultdict(float)
    for i, s in enumerate(spans):
        layer, parent, dur = layer_of[i], s[4], s[3] - s[2]
        if parent is not None:
            above[i] = above[parent] | {layer_of[parent]}
        own = dur - covered[i]
        totals[f"{layer}.calls"] += 1
        totals[f"{layer}.self_s"] += own
        totals[f"{layer}.errors"] += s[5]
        if layer not in above[i]:
            totals[f"{layer}.busy_s"] += dur
        g = GROUPS.get(s[1])
        if g is None and parent is not None and layer_of[parent] == layer:
            g = group[parent]
        group[i] = g
        if g is not None:
            totals[f"{layer}.{g}_self_s"] += own
        for key, value in (s[6] or {}).items():
            totals[f"{layer}.{key}"] += value
    return dict(totals)
