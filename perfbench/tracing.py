"""Spans around every public function of the package, installed from outside.

``Tracer.install`` wraps each function listed in a layer module's
``__all__`` and rebinds the wrapper under every name that points at the
original in any loaded ``pkregion`` module: ``from .dist import marginal``
leaves a separate binding in the importing module, and calls made through it
must be seen too. ``uninstall`` restores the originals.

A span is (name, start, end, parent span index, request index, extra). Spans
stay in memory; ``per_layer`` reduces them to the per-request metrics.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
import tracemalloc

LAYERS = ("cli", "ioformats", "dist", "structure", "auxsolver", "regions",
          "protocol")

# Spans that build, serialize and write a report.
EMIT = frozenset({"ioformats.regions_document", "ioformats.check_document",
                  "ioformats.evaluation_document",
                  "ioformats.dumps_deterministic", "ioformats.write_atomic"})

MIB = 2.0 ** 20


def _extra(name: str, args) -> dict | None:
    """Work counts of one call, read from its arguments."""
    if name in ("ioformats.read_pmf", "ioformats.read_protocol"):
        return {"bytes_in": os.path.getsize(args[0])}
    if name == "ioformats.write_atomic":
        return {"bytes_out": len(args[1].encode("utf-8"))}
    if name == "protocol.evaluate_protocol":
        p, spec = args[0], args[1]
        return {"cells": math.prod(p.cardinalities) ** spec.n}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []
        self._bindings = []

    def _wrap(self, name: str, fn):
        measure_alloc = name == "protocol.evaluate_protocol"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            if measure_alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.request,
                                     None)
            extra = _extra(name, args)
            if measure_alloc:
                extra["peak_alloc"] = peak
            self.spans[index] = (name, start, end, parent, self.request, extra)
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "pkregion" or key.startswith("pkregion.")]
        for layer in LAYERS:
            mod = sys.modules[f"pkregion.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
                            self._bindings.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._bindings):
            setattr(holder, key, fn)
        self._bindings.clear()

    def per_layer(self, requests: int) -> dict:
        """Per-request layer metrics over every span recorded so far."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        inclusive, calls, totals = {}, {}, {}
        emit = 0.0
        peak, peak_cells = 0, 0
        for i, (name, start, end, parent, _, extra) in enumerate(self.spans):
            dur = end - start
            self_s[name.split(".")[0]] += dur - child_time[i]
            inclusive[name] = inclusive.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if name in EMIT and (parent < 0 or self.spans[parent][0] not in EMIT):
                emit += dur
            for key, value in (extra or {}).items():
                totals[key] = totals.get(key, 0) + value
            if extra and extra.get("peak_alloc", 0) > peak:
                peak, peak_cells = extra["peak_alloc"], extra["cells"]
        per = 1.0 / requests
        evaluate_s = inclusive.get("protocol.evaluate_protocol", 0.0)
        metrics = {f"{layer}.self_s": self_s[layer] * per for layer in LAYERS}
        for name in ("auxsolver.max_aux_info_thm3", "regions.gap_metrics",
                     "ioformats.read_pmf", "ioformats.read_protocol",
                     "protocol.evaluate_protocol"):
            metrics[f"{name}_s"] = inclusive.get(name, 0.0) * per
        for name in ("auxsolver.max_aux_info_outer", "dist.cond_mutual_info",
                     "dist.marginal", "structure.maximal_common_function",
                     "structure.minimal_sufficient_statistic"):
            metrics[f"{name}_calls"] = calls.get(name, 0) * per
        metrics.update({
            "ioformats.emit_s": emit * per,
            "ioformats.bytes_in": totals.get("bytes_in", 0) * per,
            "ioformats.bytes_out": totals.get("bytes_out", 0) * per,
            "protocol.cells": totals.get("cells", 0) * per,
            "protocol.cells_per_s": (totals.get("cells", 0) / evaluate_s
                                     if evaluate_s else 0.0),
            "protocol.peak_alloc_mb": peak / MIB,
            "protocol.bytes_per_cell": peak / peak_cells if peak_cells else 0.0,
        })
        return metrics
