"""Spans around quiverlab's public functions, installed from outside.

`install()` wraps every public function defined in each layer module and
puts the wrapper into every `quiverlab` namespace that binds the function
by name (``ice`` imports ``mpr_ar_quiver`` directly, for instance).  For the
kernels only ``_kernels.rref`` is wrapped: ``rank``, ``nullspace`` and
``solve`` reach it through the module global, so each reduction counts
once.  ``cli.run`` and ``cli._render`` are wrapped as well, which splits
cache time from compute time.

Spans stay in memory as ``(name, parent, start, end, rows, cols)`` tuples,
start and end read from the process CPU clock like every time the
benchmark reports, and are reduced to per-layer metrics by `layer_metrics`.
A span is named ``<layer>.<function>``, where the layer is the module name
without its leading underscore (metric names start with a letter):
``kernels.rref``.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("_kernels", "dynkin", "reps", "stalks", "complexes", "morphcat",
          "ice", "boundary", "higgs", "braids", "cli")

# larger side of an rref input -> bucket
BUCKETS = (("tiny", 2), ("small", 16), ("mid", 128), ("large", None))

HOT_CALLS = ("reps.projective_rep", "reps.min_presentation", "reps.hom_basis",
             "morphcat.presentation", "complexes.minimize")
HOT_TIMES = ("higgs.preprojective_algebra", "higgs.phi_image",
             "braids.garside_normal_form")


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, shaped: bool = False):
        spans, stack, clock = self.spans, self._stack, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rows = cols = 0
            if shaped:
                rows, cols = (tuple(getattr(args[0], "shape", ())) + (1, 1))[:2]
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, parent, t0, clock(), rows, cols)
                stack.pop()

        return traced


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield attr, obj


def install(rec: Recorder) -> None:
    """Wrap the layer functions of every imported quiverlab module."""
    pkg = "quiverlab"
    mods = {layer: importlib.import_module(f"{pkg}.{layer}") for layer in LAYERS}
    wrappers: dict[int, object] = {}  # id of the original function -> its wrapper
    for layer, mod in mods.items():
        if layer == "_kernels":
            chosen = [("rref", mod.rref)]
        elif layer == "cli":
            chosen = list(_public_functions(mod)) + [("_render", mod._render)]
        else:
            chosen = list(_public_functions(mod))
        for attr, fn in chosen:
            wrappers[id(fn)] = rec.wrap(f"{layer.lstrip('_')}.{attr}", fn,
                                         shaped=layer == "_kernels")
    namespaces = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(ns, attr, wrapper)


def metric_names() -> list[str]:
    """Every per-layer metric of a traced run, in report order."""
    return list(layer_metrics([])) + ["cli.numpy_import_s", "cli.import_s", "trace.overhead_frac"]


def _bucket(side: int) -> str:
    return next(name for name, top in BUCKETS if top is None or side <= top)


def layer_metrics(spans) -> dict[str, float]:
    """Reduce spans to the per-layer metrics the benchmark reports."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer.lstrip('_')}.calls"] = 0
        out[f"{layer.lstrip('_')}.self_s"] = 0.0
    out["kernels.rref_calls"] = 0
    out["kernels.rref_s"] = 0.0
    out["kernels.rref_bytes_computed"] = 0
    for name, _ in BUCKETS:
        out[f"kernels.rref_calls.{name}"] = 0
        out[f"kernels.rref_s.{name}"] = 0.0
    for fn in HOT_CALLS:
        out[f"{fn}_calls"] = 0
    for fn in HOT_TIMES:
        out[f"{fn}_s"] = 0.0
    out["cli.render_s"] = 0.0
    out["cli.cache_io_s"] = 0.0
    out["cli.cache_hits"] = 0
    out["cli.cache_misses"] = 0

    child_time = [0.0] * len(spans)
    rendered = [False] * len(spans)
    for name, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
            if name == "cli._render":
                rendered[parent] = True
    for idx, (name, parent, t0, t1, rows, cols) in enumerate(spans):
        dur = t1 - t0
        layer, fn = name.split(".", 1)
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += dur - child_time[idx]
        if name == "kernels.rref":
            bucket = _bucket(max(rows, cols))
            out["kernels.rref_calls"] += 1
            out["kernels.rref_s"] += dur
            out["kernels.rref_bytes_computed"] += 8 * rows * cols
            out[f"kernels.rref_calls.{bucket}"] += 1
            out[f"kernels.rref_s.{bucket}"] += dur
        elif name in HOT_CALLS:
            out[f"{name}_calls"] += 1
        elif name == "cli._render":
            out["cli.render_s"] += dur
        elif name == "cli.run":
            out["cli.cache_io_s"] += dur - child_time[idx]
            out["cli.cache_misses" if rendered[idx] else "cli.cache_hits"] += 1
        # a hot function's time counts once, at its outermost span
        if name in HOT_TIMES and not _inside(spans, parent, name):
            out[f"{name}_s"] += dur
    return out


def _inside(spans, idx: int, name: str) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][1]
    return False
