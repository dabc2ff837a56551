"""Span tracing of solenoidlab's public functions, from outside the package.

`Tracer.install()` wraps every public function that the layer modules
define (plus `SolenoidSpec.eta_inverse_lift`) and rebinds the wrapper in
every solenoidlab module that holds the original, so `from .x import f`
copies are traced too.  Each call records one span: name, start, end,
parent span and one work quantity (array elements, points, records, or
cache misses).  Spans stay in memory until `dump` writes them to an .npz
file; `summarize` turns that file into per-function totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

import numpy as np

LAYERS = ("cli", "maps", "numerics", "coding", "thermo", "geometry",
          "lamination")


def _size_of_arg(pos, name):
    def measure(args, kwargs, out):
        value = args[pos] if len(args) > pos else kwargs[name]
        return float(np.size(value))
    return measure


def _out_points(args, kwargs, out):
    return float(np.size(out[0]))


def _out_len(args, kwargs, out):
    return float(len(out))


def _cloud_points(args, kwargs, out):
    cloud = args[0] if args else kwargs["cloud"]
    return float(len(cloud.points))


def _table_depth(args, kwargs, out):
    return float(args[1] if len(args) > 1 else kwargs["n"])


# Work quantity recorded per call.  A cached function records 0 on a hit
# and, on a miss, its measure (default 1), e.g. the depth of a new table.
MEASURES = {
    "thermo.birkhoff_table": _table_depth,
    "numerics.solve_increasing": _size_of_arg(2, "targets"),
    "maps.eta_inverse_lift": _size_of_arg(1, "targets"),
    "coding.leaf_states": _out_points,
    "coding.word_representatives": _out_points,
    "lamination.leaf_intersections": _out_len,
    "geometry.box_dimension": _cloud_points,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")
        self.stack = [-1]
        self.cached = {}

    def wrap(self, span_name, fn):
        idx = len(self.names)
        self.names.append(span_name)
        measure = MEASURES.get(span_name)
        cache_info = getattr(fn, "cache_info", None)
        if cache_info is not None:
            self.cached[span_name] = fn

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(idx)
            self.parent.append(self.stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.qty.append(0.0)
            self.stack.append(i)
            misses = cache_info().misses if cache_info else 0
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if cache_info is None:
                if measure is not None:
                    self.qty[i] = measure(args, kwargs, out)
            elif cache_info().misses != misses:
                self.qty[i] = measure(args, kwargs, out) if measure else 1.0
            return out

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap the layer functions wherever solenoidlab binds them."""
        package = importlib.import_module("solenoidlab")
        modules = [importlib.import_module(f"solenoidlab.{m}") for m in LAYERS]
        holders = modules + [package]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type):
                    continue
                home = getattr(obj, "__module__", None)
                if not callable(obj) or home != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is obj:
                            setattr(holder, key, wrapper)
        spec_cls = importlib.import_module("solenoidlab.maps").SolenoidSpec
        spec_cls.eta_inverse_lift = self.wrap("maps.eta_inverse_lift",
                                              spec_cls.eta_inverse_lift)

    def dump(self, path):
        caches = {name: fn.cache_info()._asdict()
                  for name, fn in self.cached.items()}
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 qty=np.frombuffer(self.qty),
                 meta=np.array(json.dumps({"names": self.names,
                                           "caches": caches})))


def summarize(path):
    """Per-function totals of a dumped trace.

    Returns ({name: {calls, s, self_s, qty, miss_s, misses_by}},
    {name: cache_info}) with a row for every wrapped function, called or
    not.  Self time is a span's duration minus the durations of its child
    spans; miss_s sums the durations of the calls that missed a function's
    cache and misses_by counts those calls by quantity.
    """
    with np.load(path, allow_pickle=False) as data:
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        qty = data["qty"]
        meta = json.loads(str(data["meta"]))
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    self_time = dur - covered
    totals = {}
    for idx, label in enumerate(meta["names"]):
        mask = name == idx
        totals[label] = {
            "calls": int(mask.sum()),
            "s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
            "qty": float(qty[mask].sum()),
            "miss_s": float(dur[mask & (qty > 0)].sum()),
        }
        if label in meta["caches"]:
            keys, counts = np.unique(qty[mask & (qty > 0)], return_counts=True)
            totals[label]["misses_by"] = {f"{k:g}": int(c)
                                          for k, c in zip(keys, counts)}
    return totals, meta["caches"]
