"""Spans around the public functions of each simplexcenters layer.

``Tracer.install`` wraps, from outside the package, every public function
and every public method of a public class defined in a layer module, and
rebinds each name in every loaded ``simplexcenters`` module that imported
it.  A span records its name, start, end, parent span, the op it belongs
to and whether it raised.  Spans stay in memory (flat arrays) and are
reduced to per-layer figures when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("barycentric", "pedal", "apollonian", "fermat", "isogonic",
          "documents", "cli")

OP = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack: list[int] = []
        self.current_op = -1
        self._restore: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self.intern(name)
        stack, clock = self.stack, time.perf_counter
        spans_name, spans_parent, spans_op = self.name, self.parent, self.op
        starts, ends, failed = self.start, self.end, self.failed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans_name)
            spans_name.append(nid)
            spans_parent.append(stack[-1] if stack else -1)
            spans_op.append(self.current_op)
            failed.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public callables of every layer module."""
        modules = [importlib.import_module(f"simplexcenters.{m}") for m in LAYERS]
        loaded = [m for key, m in list(sys.modules.items())
                  if key == "simplexcenters" or key.startswith("simplexcenters.")]
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self.wrap(obj, f"{layer}.{name}")
                    for other in loaded:
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                self._rebind(other, key, traced)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, f"{layer}.{name}")

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = prefix if attr == "__init__" else f"{prefix}.{attr}"
            if inspect.isfunction(value):
                self._rebind(cls, attr, self.wrap(value, name))
            elif isinstance(value, (classmethod, staticmethod)):
                self._rebind(cls, attr, type(value)(self.wrap(value.__func__, name)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


class SpanSummary:
    """Per-name totals over the spans that ran inside an op.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, since a single thread
    makes every call.
    """

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        name = np.frombuffer(tracer.name, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        op = np.frombuffer(tracer.op, dtype=np.int32)
        duration = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        failed = np.frombuffer(tracer.failed, dtype=np.int8)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(name))
        own = duration - child
        keep = op >= 0
        k = len(self.names)
        self.spans = int(keep.sum())
        self.calls = np.bincount(name[keep], minlength=k)
        self.fails = np.bincount(name[keep], weights=failed[keep], minlength=k)
        self.self_s = np.bincount(name[keep], weights=own[keep], minlength=k)
        self.total_s = np.bincount(name[keep], weights=duration[keep], minlength=k)
        roots = keep & ~has_parent & (name == self._id(OP))
        self.op_wall = dict(zip(op[roots].tolist(), duration[roots].tolist()))
        sums = np.bincount(op[keep], weights=own[keep])
        self.op_self_sum = {o: float(sums[o]) for o in np.unique(op[keep]).tolist()}
        self._name, self._parent, self._keep = name, parent, keep
        self._op, self._duration = op, duration

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def get(self, field: str, name: str) -> float:
        i = self._id(name)
        return 0.0 if i < 0 else float(getattr(self, field)[i])

    def children_per_call(self, child: str, parent: str) -> np.ndarray:
        """Direct calls of ``child`` made by each call of ``parent``."""
        name, parent_of, keep = self._name, self._parent, self._keep
        made = keep & (name == self._id(child)) & (parent_of >= 0)
        counts = np.bincount(parent_of[made], minlength=len(name))
        return counts[keep & (name == self._id(parent))]

    def p50_ms(self, name: str, ops) -> float:
        """Median duration of a span over the given ops."""
        picked = self._keep & (self._name == self._id(name)) & np.isin(self._op, ops)
        return 1e3 * float(np.median(self._duration[picked])) if picked.any() else 0.0
