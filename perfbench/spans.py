"""Span recorder for the traced run.

The traced run swaps each traced function's name, in every ``polcomp``
module that binds it, for a wrapper that records one span: name, start,
end, parent span and op id.  Spans stay in flat arrays in memory until
the end of the run.  :meth:`Tracer.restore` puts the original names back.

A span's self time is its duration minus the durations of its direct
children (calls are strictly nested: the benchmark is single-threaded).
Per-layer metrics are derived from the spans by metric name:

* ``<module>.<function>.calls`` / ``.us_p50`` / ``.share``: call count,
  median inclusive microseconds per call, and inclusive time as a share
  of total op time;
* ``<module>.self_us_per_op``: the module's self time per op;
* ``io.bytes_written_per_op`` / ``io.bytes_read_per_op``: sizes of the
  files touched by the outermost ``io`` call of each chain.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

import numpy as np

#: Functions traced per module.  Everything a module calls across a layer
#: boundary on the workloads' paths, plus the functions the per-layer
#: metrics name.
TRACED = {
    "stokes": (
        "mueller_lcvr", "mueller_lcvr_triple", "compose", "apply", "invert_retarder",
        "transform_normalized", "fidelity", "normalize", "degree_of_polarization",
    ),
    "polarimetry": ("simulate_scan", "measure_stokes"),
    "lcvr": ("retardance_for_voltage", "voltage_for_retardance", "curve_slope_at", "build_curve"),
    "compensation": (
        "run_compensation", "coarse_step", "fine_tune_step", "solve_retardances",
        "infer_disturbed",
    ),
    "bench": ("virtual_measure",),
    "io": (
        "write_sweep", "read_sweep", "write_curve", "read_curve", "write_scan", "read_scan",
        "read_scan_metadata", "write_json_doc", "read_json_doc",
    ),
    "cli": ("main",),
}
#: Methods traced, as (module, class, method).
TRACED_METHODS = (("bench", "VirtualApparatus", "__call__"),)

#: Files an ``io`` call reads or writes: its path argument, its sidecar, or both.
_IO_FILES = {
    "read_scan_metadata": ("sidecar",),
    "write_json_doc": ("path",),
    "read_json_doc": ("path",),
}
_IO_DEFAULT_FILES = ("path", "sidecar")

OP = "op"


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._io_calls: list[tuple[int, str, str]] = []  # (span, function, path)
        self.bytes_read = 0
        self.bytes_written = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call."""
        nid = len(self.names)
        self.names.append(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        io_calls = self._io_calls if name.startswith("io.") else None
        short = name[len("io."):]
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if io_calls is not None and args:
                    io_calls.append((idx, short, os.fspath(args[0])))

        return traced

    def wrap_op(self, fn):
        """``fn`` as the root span of one op; the op id is ``fn``'s ``k``."""
        traced = self.wrap(OP, fn)

        def op(batch, k):
            self.op_id = k
            return traced(batch, k)

        return op

    def install(self) -> None:
        """Swap every traced name in every loaded ``polcomp`` module."""
        wrappers: dict[int, tuple[object, object]] = {}
        for mod_name, fns in TRACED.items():
            mod = importlib.import_module(f"polcomp.{mod_name}")
            for fn_name in fns:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self.wrap(f"{mod_name}.{fn_name}", fn))
        for key, mod in list(sys.modules.items()):
            if mod is None or not (key == "polcomp" or key.startswith("polcomp.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name, meth in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"polcomp.{mod_name}"), cls_name)
            fn = vars(cls)[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", fn))

    def restore(self) -> None:
        """Put back every name :meth:`install` swapped."""
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def account_io(self, sidecar_path) -> None:
        """Add the sizes of the files behind this op's outermost io calls.

        Called after each op, while its files are still in place; a call
        nested in another io call (a sidecar written by ``write_scan``)
        is already covered by its caller.
        """
        for idx, fn, path in self._io_calls:
            parent = self.parent[idx]
            if parent >= 0 and self.names[self.name[parent]].startswith("io."):
                continue
            size = 0
            for which in _IO_FILES.get(fn, _IO_DEFAULT_FILES):
                p = path if which == "path" else os.fspath(sidecar_path(path))
                if os.path.exists(p):
                    size += os.path.getsize(p)
            if fn.startswith("write"):
                self.bytes_written += size
            else:
                self.bytes_read += size
        self._io_calls.clear()

    def _arrays(self):
        def arr(a, dtype):
            # A copy, so the arrays stay free to grow.
            return np.frombuffer(a, dtype=dtype).copy() if len(a) else np.zeros(0, dtype=dtype)

        start = arr(self.start, np.int64)
        dur = arr(self.end, np.int64) - start
        parent = arr(self.parent, np.int64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return arr(self.name, np.int32), arr(self.op, np.int64), dur, dur - children

    def calls_per_op(self, span: str, n_ops: int) -> np.ndarray:
        """How often ``span`` ran in each op."""
        names, ops, _, _ = self._arrays()
        mask = names == self.names.index(span)
        return np.bincount(ops[mask], minlength=n_ops)

    def metrics(self, wanted: list[str], n_ops: int, untraced_op_ms_p50: float) -> dict:
        """The per-layer metrics in ``wanted``, by name.

        Every traced function has a name from :meth:`install` on, so a
        function that never ran reports 0 calls and 0 us.
        """
        names, _, dur, self_ns = self._arrays()
        ids = {name: i for i, name in enumerate(self.names)}
        modules = sorted({name.split(".")[0] for name in self.names})
        module = np.array([modules.index(n.split(".")[0]) for n in self.names])[names]
        op_total = float(dur[names == ids[OP]].sum())
        op_ms_p50 = float(np.median(dur[names == ids[OP]])) / 1e6
        out = {}
        for metric in wanted:
            head, _, stat = metric.rpartition(".")
            if metric == "trace_overhead_frac":
                out[metric] = op_ms_p50 / untraced_op_ms_p50 - 1.0
            elif metric == "io.bytes_written_per_op":
                out[metric] = self.bytes_written / n_ops
            elif metric == "io.bytes_read_per_op":
                out[metric] = self.bytes_read / n_ops
            elif stat == "self_us_per_op":
                out[metric] = float(self_ns[module == modules.index(head)].sum()) / 1e3 / n_ops
            else:
                d = dur[names == ids[head]]
                if stat == "calls":
                    out[metric] = int(d.size)
                elif stat == "us_p50":
                    out[metric] = float(np.median(d)) / 1e3 if d.size else 0.0
                elif stat == "share":
                    out[metric] = float(d.sum()) / op_total
                else:
                    raise ValueError(f"no rule computes per-layer metric {metric!r}")
        return out
