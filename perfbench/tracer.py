"""Outside-in span tracing of the kahlerpinch package.

:meth:`Tracer.install` replaces every public function of each package module,
and every public method of the classes a module defines, by a wrapper that
records one span per call: name, start, end, parent span and job id.  A
function is replaced in every package namespace that holds it, so the
``curvature_tensor`` that ``optimize`` imported from ``geometry`` is traced
too.  Spans stay in memory; :meth:`Tracer.write` stores them when the run ends.

Private helpers stay unwrapped.  ``_FrameQuartic.value`` runs about 273k
times per grid-512 fiber sweep, and a wrapper there would swamp the numbers
it is meant to explain.

Span names are ``<module>.<function>``; a method is named after its module
and method name without the class, so ``Hitchin.metric_jet`` and
``Product.metric_jet`` both count as ``models.metric_jet``.
"""
from __future__ import annotations

import csv
import functools
import inspect
import math
import sys
from time import perf_counter

PACKAGE = "kahlerpinch"
MODULES = ("geometry", "models", "hirzebruch", "optimize", "berger", "products", "cli")

# Work counts read from a traced call's return value, summed per span name
# (``max_residual`` is a maximum).
COUNTERS = {
    "optimize.golden_section_min": lambda out: {"iters": out[2]},
    "optimize.extremize_direction": lambda out: {
        "unconverged": int(not out.converged),
        "max_residual": max(out.min_residual, out.max_residual),
    },
    "optimize.minimize": lambda out: {"nfev": int(out.nfev)},
    "optimize.batch_hsc": lambda out: {"directions": len(out)},
    "berger.berger_scalar": lambda out: {"samples": out.sample_count},
    "optimize.sweep_fiber": lambda out: {
        "cells": out.method["grid"],
        "unconverged_cells": out.method["unconverged_cells"],
        "refine_iterations": out.method["refine_iterations"],
    },
    "optimize.sweep_s": lambda out: {"s_points": len(out.rows)},
}
_MAX_COUNTERS = {"max_residual"}


class Tracer:
    """In-memory span recorder; inactive until :attr:`active` is set."""

    def __init__(self):
        self.active = False
        self.job_id = -1
        self.wrapped = []
        self.clear()

    def clear(self) -> None:
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.job = []
        self.counts = {}
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self
        self.wrapped.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = len(tracer.name)
            tracer.name.append(name)
            tracer.parent.append(tracer._stack[-1])
            tracer.job.append(tracer.job_id)
            tracer.end.append(math.nan)
            tracer._stack.append(span)
            tracer.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[span] = perf_counter()
                tracer._stack.pop()
            if counter is not None:
                tracer.counts[span] = counter(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the package's public functions and methods in place."""
        replace = {}  # id of an original function -> its wrapper
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _traceable(obj):
                    replace[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and _traceable(fn):
                            setattr(obj, meth, self._wrap(f"{short}.{meth}", fn))
        # scipy's Nelder-Mead is a boundary out of the package; trace it
        # where optimize calls it.
        optimize = sys.modules[f"{PACKAGE}.optimize"]
        replace[id(optimize.minimize)] = self._wrap("optimize.minimize", optimize.minimize)

        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])

    def summary(self, job_scale) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and counters.

        Times of job ``j`` are multiplied by ``job_scale[j]``.
        """
        dur = [(e - b) * job_scale[j] for b, e, j in zip(self.start, self.end, self.job)]
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i, name in enumerate(self.name):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            for key, value in self.counts.get(i, {}).items():
                if key in _MAX_COUNTERS:
                    row[key] = max(row.get(key, value), value)
                else:
                    row[key] = row.get(key, 0) + value
        return out

    def write(self, path) -> None:
        """Store the recorded spans as CSV, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start_s", "end_s", "parent", "job"))
            for i, name in enumerate(self.name):
                writer.writerow(
                    (i, name, f"{self.start[i] - t0:.9f}", f"{self.end[i] - t0:.9f}",
                     self.parent[i], self.job[i])
                )


def _traceable(obj) -> bool:
    # A generator function returns before its work is done, so a span around
    # the call would time nothing.
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)
