"""Spans around calls into the library, recorded from outside it.

`Tracer.install` replaces public functions with timing wrappers in the
namespace where their callers look them up (so `survival_probability`'s call
of `survival_amplitude_oracle`, and `transfer`'s imported `on_common_grid`,
are caught too); `Tracer.remove` puts the originals back.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import inspect
import statistics
from contextlib import contextmanager
from time import perf_counter

from arrowlab import cosmo, entropy, friedrichs, grids, liouville, maps, spectral, transfer


def _bytes_out(args, out):
    return {"bytes_out": sum(x.nbytes for x in out)}


def _quadrature_bytes(args, out):
    # the (<=256) x n_points complex chunk the dense quadrature builds at once
    return {"bytes": min(256, out.size) * args["n_points"] * 16}


# (namespace, attribute, span name, counter hook(bound args, output) -> dict)
TRACED = (
    (grids, "coarse_values", "grids.coarse_values", None),
    (grids, "on_common_grid", "grids.on_common_grid", _bytes_out),
    (transfer, "on_common_grid", "grids.on_common_grid", _bytes_out),
    (transfer, "fp_baker", "transfer.fp_baker", lambda a, out: {"cells": out.values.size}),
    (friedrichs, "survival_probability", "friedrichs.survival_probability", None),
    (friedrichs, "survival_amplitude_oracle", "friedrichs.survival_amplitude_oracle", None),
    (friedrichs, "discretize", "friedrichs.discretize", lambda a, out: {"order": out[0].shape[0]}),
    (friedrichs, "survival_amplitude_quadrature", "friedrichs.survival_amplitude_quadrature",
     _quadrature_bytes),
    (friedrichs, "spectral_density", "friedrichs.spectral_density",
     lambda a, out: {"points": out[0].size}),
    (friedrichs, "find_pole", "friedrichs.find_pole", None),
    (friedrichs, "alpha", "friedrichs.alpha", None),
    (spectral, "bernoulli_poly", "spectral.bernoulli_poly", None),
    (spectral, "fp_poly", "spectral.fp_poly", None),
    (spectral, "biorthonormality_matrix", "spectral.biorthonormality_matrix", None),
    (liouville, "super_compose", "liouville.super_compose", None),
    (liouville, "super_product", "liouville.super_product", None),
    (liouville, "dephase_cesaro", "liouville.dephase_cesaro", None),
    (entropy, "voigt_monotonicity_suite", "entropy.voigt_monotonicity_suite", None),
    (cosmo, "critical_times", "cosmo.critical_times", None),
    (maps, "recurrence_stats", "maps.recurrence_stats", None),
)

OP = "op"  # root span of one op; its self time is the benchmark's own checking


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, counts]
        self._stack = []
        self._saved = []
        self._op_id = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op_id, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    @contextmanager
    def op(self, op_id):
        self._op_id = op_id
        idx = self._open(OP)
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = None

    def _wrap(self, name, fn, hook):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx][5] = hook(bound.arguments, out)
            return out

        return wrapper

    def install(self):
        for module, attr, name, hook in TRACED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, hook))

    def remove(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def per_op(self) -> dict:
        """{op id: {span name: {"self_s", "calls", counter sums and maxima}}}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        ops = {}
        for i, (name, start, end, _, op_id, counts) in enumerate(self.spans):
            layer = ops.setdefault(op_id, {}).setdefault(name, {"self_s": 0.0, "calls": 0})
            layer["self_s"] += end - start - child_time[i]
            layer["calls"] += 1
            for key, val in counts.items():
                if key == "bytes_out":
                    layer[key] = layer.get(key, 0) + val
                else:
                    layer[key] = max(layer.get(key, 0), val)
        return ops

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o, "counts": c}
                for n, s, e, p, o, c in self.spans]


def layer_metrics(ops: dict) -> dict:
    """Per-layer medians over ops: `<span>.self_s`, `<span>.calls`, counters."""
    names = {name for layers in ops.values() for name in layers}
    out = {}
    for name in sorted(names):
        for key in ("self_s", "calls", "bytes_out"):
            vals = [layers.get(name, {}).get(key, 0) for layers in ops.values()]
            if any(vals):
                out[f"{name}.{key}"] = statistics.median(vals)
    peak = lambda name, key: max(l.get(name, {}).get(key, 0) for l in ops.values())
    out["grids.cells_peak"] = peak("transfer.fp_baker", "cells")
    out["friedrichs.matrix_order"] = peak("friedrichs.discretize", "order")
    out["friedrichs.quadrature_points"] = peak("friedrichs.spectral_density", "points")
    out["friedrichs.quadrature_bytes"] = peak("friedrichs.survival_amplitude_quadrature", "bytes")
    per_op_layers = [sum(v["self_s"] for k, v in layers.items() if k != OP)
                     for layers in ops.values()]
    out["trace.layer_self_s"] = statistics.median(per_op_layers)
    out["trace.check_self_s"] = statistics.median(l[OP]["self_s"] for l in ops.values())
    return out
