"""Span tracing for the benchmark, installed from outside the program.

Each traced name is wrapped where its caller looks it up: a module
attribute read at call time, a class attribute reached through an
instance, or a name another module imported with ``from ... import``
(``diagnostics`` holds its own reference to ``sym_gradient``, so wrapping
``spectral.sym_gradient`` alone would miss its calls).  The FFTs are
traced at the ``scipy.fft`` boundary by swapping the module object that
``spectral`` calls through.  ``installed()`` restores every original on
exit and checks that it did.

Spans stay in memory as ``[name, start, end, parent, bytes, items]``,
where items counts component cubes for an FFT and cells for a sweep;
``layer_metrics`` turns them into per-pass counts and self times.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from contextlib import contextmanager

import numpy as np

from strainflow import diagnostics, initial_data, snapshots, solver, spectral, sym3, toy_ode

FFT_NAMES = ("rfftn", "irfftn", "fftn", "ifftn")
STEP = "solver.step"
RECORD = "diagnostics.record"
PASS = "bench.pass"
SETUP = "bench.setup"


class Tracer:
    """In-memory span recorder for one single-threaded benchmark run."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.process_time(), 0.0, parent, 0, 0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index):
        self.spans[index][2] = time.process_time()
        self._open.pop()

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)


def _fft_size(args, kwargs, result):
    arr = args[0]
    return arr.nbytes + result.nbytes, int(np.prod(arr.shape[:-3], dtype=int))


def _snapshot_save_size(args, kwargs, result):
    data = args[4] if len(args) > 4 else kwargs["data"]
    return np.asarray(data).size * 8, 0


def _snapshot_load_size(args, kwargs, result):
    return result.data.nbytes, 0


def _sweep_cells(args, kwargs, result):
    return 0, len(result)


def _traced(tracer, name, fn, measure=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if measure is not None:  # sized after the span closes, so not timed
            tracer.spans[index][4:6] = measure(args, kwargs, result)
        return result
    return wrapper


# (owner, attribute, span name, size function) for every lookup site
_SITES = (
    (spectral, "expand_half", "spectral.expand_half", None),
    (spectral, "sym_gradient", "spectral.sym_gradient", None),
    (diagnostics, "sym_gradient", "spectral.sym_gradient", None),
    (spectral, "vorticity", "spectral.vorticity", None),
    (diagnostics, "vorticity", "spectral.vorticity", None),
    (spectral, "divergence_residual", "spectral.divergence_residual", None),
    (solver, "divergence_residual", "spectral.divergence_residual", None),
    (solver.Stepper, "step", STEP, None),
    (diagnostics.RecordCollector, "__call__", RECORD, None),
    (diagnostics.RecordCollector, "finalize", "diagnostics.finalize", None),
    (diagnostics, "write_csv", "diagnostics.write_csv", None),
    (sym3, "eigenvalues", "sym3.eigenvalues", None),
    (sym3, "det", "sym3.det", None),
    (sym3, "tr_cubed", "sym3.tr_cubed", None),
    (snapshots, "save_snapshot", "snapshots.save_snapshot", _snapshot_save_size),
    (snapshots, "load_snapshot", "snapshots.load_snapshot", _snapshot_load_size),
    (toy_ode, "phase_sweep", "toy_ode.phase_sweep", _sweep_cells),
    (initial_data, "taylor_green", "initial_data.taylor_green", None),
    (initial_data, "random_div_free", "initial_data.random_div_free", None),
)


@contextmanager
def installed(tracer):
    """Wrap every traced name for the duration of the block."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _SITES]
    fft_module = spectral._fft_module
    proxy = types.SimpleNamespace(**{
        name: _traced(tracer, f"spectral.{name}", getattr(fft_module, name), _fft_size)
        for name in FFT_NAMES})
    try:
        for (owner, attr, name, measure), (_, _, fn) in zip(_SITES, originals):
            setattr(owner, attr, _traced(tracer, name, fn, measure))
        spectral._fft_module = proxy
        yield tracer
    finally:
        spectral._fft_module = fft_module
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    left = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, fn in originals
            if owner.__dict__[attr] is not fn]
    if spectral._fft_module is not fft_module:
        left.append("spectral._fft_module")
    if left:
        raise RuntimeError(f"trace wrappers not removed: {', '.join(left)}")


# Per-layer metrics reported for every workload, with unit and direction.
LAYER_METRICS = (
    [(f"spectral.{f}.{m}", u, "lower") for f in FFT_NAMES
     for m, u in (("calls", "count"), ("self_s", "s"), ("bytes_computed", "bytes"))]
    + [(f"spectral.{f}.{m}", u, "lower")
       for f in ("expand_half", "sym_gradient", "vorticity", "divergence_residual")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"solver.step.{m}", u, "lower")
       for m, u in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))]
    + [(f"diagnostics.record.{m}", u, "lower")
       for m, u in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))]
    + [("diagnostics.finalize.self_s", "s", "lower"),
       ("diagnostics.write_csv.self_s", "s", "lower")]
    + [(f"sym3.{f}.{m}", u, "lower") for f in ("eigenvalues", "det", "tr_cubed")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"snapshots.{f}.{m}", u, "lower") for f in ("save_snapshot", "load_snapshot")
       for m, u in (("calls", "count"), ("self_s", "s"), ("bytes", "bytes"))]
    + [("toy_ode.phase_sweep.total_s", "s", "lower"),
       ("toy_ode.phase_sweep.cells", "count", "higher"),
       ("initial_data.taylor_green.self_s", "s", "lower"),
       ("initial_data.random_div_free.self_s", "s", "lower"),
       ("setup.snapshots.save_snapshot.self_s", "s", "lower"),
       ("trace.overhead_frac", "ratio", "lower"),
       ("trace.coverage", "ratio", "higher"),
       ("counts.fft_calls_per_step", "count", "lower"),
       ("counts.fft_cubes_per_step", "count", "lower"),
       ("counts.expand_half_calls_per_step", "count", "lower"),
       ("counts.fft_calls_per_record", "count", "lower"),
       ("counts.fft_cubes_per_record", "count", "lower"),
       ("counts.sym3_det_calls_per_record", "count", "lower"),
       ("counts.divergence_residual_calls_per_record", "count", "lower")]
)


def _per_root(spans, root_name):
    """Aggregate spans under each top-level span named root_name.

    Returns one dict per root: layer name -> [calls, total_s, self_s,
    bytes, items], plus the root's duration and its children's total.
    """
    child_s = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
            root[i] = root[parent]
    groups = {}
    for i, (name, start, end, parent, nbytes, items) in enumerate(spans):
        if spans[root[i]][0] != root_name:
            continue
        group = groups.setdefault(root[i], {"layers": {}, "covered_s": 0.0})
        if i == root[i]:
            group["run_s"] = end - start
            continue
        if parent == root[i]:
            group["covered_s"] += end - start
        row = group["layers"].setdefault(name, [0, 0.0, 0.0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_s[i]
        row[3] += nbytes
        row[4] += items
    return [groups[k] for k in sorted(groups)]


def _per_unit_counts(spans):
    """FFT, expand_half, det and divergence-check counts per step and per record."""
    owner = [None] * len(spans)
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if name in (STEP, RECORD):
            owner[i] = name
        elif parent >= 0:
            owner[i] = owner[parent]
    tally = {STEP: {}, RECORD: {}}
    units = {STEP: 0, RECORD: 0}
    for i, (name, _, _, _, _, items) in enumerate(spans):
        if name in units:
            units[name] += 1
        if owner[i] is None or name == owner[i]:
            continue
        kind = "fft" if name.startswith("spectral.") and name[9:] in FFT_NAMES else name
        counts = tally[owner[i]]
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "fft":
            counts["cubes"] = counts.get("cubes", 0) + items

    def per(unit, key):
        return tally[unit].get(key, 0) / units[unit] if units[unit] else 0.0

    return {
        "counts.fft_calls_per_step": per(STEP, "fft"),
        "counts.fft_cubes_per_step": per(STEP, "cubes"),
        "counts.expand_half_calls_per_step": per(STEP, "spectral.expand_half"),
        "counts.fft_calls_per_record": per(RECORD, "fft"),
        "counts.fft_cubes_per_record": per(RECORD, "cubes"),
        "counts.sym3_det_calls_per_record": per(RECORD, "sym3.det"),
        "counts.divergence_residual_calls_per_record":
            per(RECORD, "spectral.divergence_residual"),
    }


def layer_metrics(spans):
    """Per-layer metrics: per-pass medians, set-up medians, counts, coverage.

    Counts are exact per pass (every pass repeats the same work); times
    are medians over the traced passes.  Layers a workload never reaches
    read 0.
    """
    passes = _per_root(spans, PASS)
    setups = _per_root(spans, SETUP)

    def median_of(groups, layer, column):
        return statistics.median(g["layers"].get(layer, [0, 0.0, 0.0, 0, 0])[column]
                                 for g in groups)

    column = {"calls": 0, "total_s": 1, "self_s": 2, "bytes": 3,
              "bytes_computed": 3, "cells": 4}
    out = {}
    for name, _, _ in LAYER_METRICS:
        if name.startswith(("trace.", "counts.")):  # set below and by the caller
            continue
        layer, _, metric = name.rpartition(".")
        if layer.startswith("initial_data."):
            out[name] = median_of(setups, layer, column[metric])
        elif layer.startswith("setup."):
            out[name] = median_of(setups, layer[len("setup."):], column[metric])
        else:
            out[name] = median_of(passes, layer, column[metric])
    out["trace.coverage"] = statistics.median(g["covered_s"] / g["run_s"] for g in passes)
    out.update(_per_unit_counts(spans))
    return out
