"""Per-layer spans for the traced run, installed from outside the program.

install() replaces every public module-level function of each splitcm
layer, plus the public methods and arithmetic operators of ClassStore and
BigComplex, with a wrapper that records a span: its name and its duration.
Spans are aggregated in memory as they close (calls and self time per
name) and written out when the run ends.  Self time is a span's duration minus
the durations of its child spans.  Only the traced run installs this; the
timing runs call the unwrapped program.
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("central", "quaternion", "linalg", "theta", "hecke", "quadratic", "numeric")
CLASSES = {"central": ("ClassStore",), "numeric": ("BigComplex",)}
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__"}


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, self_s]
        self.work = {"theta.terms": 0, "quadratic.forms": 0, "quaternion.orders_isometric.hits": 0}
        self._stack = []  # [child_s] per open span

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, clock = self._stack, time.perf_counter
        count = _WORK_COUNTERS.get(name)
        work = self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += span - frame[0]
                if stack:
                    stack[-1][0] += span
            if count:
                count(work, args, result)
            return result

        return traced

    def take(self):
        """Return the aggregates gathered since the last take() and reset them."""
        snap = {"spans": {k: list(v) for k, v in self.stats.items()}, "work": dict(self.work)}
        for v in self.stats.values():
            v[0], v[1] = 0, 0.0
        for k in self.work:
            self.work[k] = 0
        return snap


def _count_terms(work, args, result):
    work["theta.terms"] += args[1]


def _count_forms(work, args, result):
    work["quadratic.forms"] += len(result[0])


def _count_hits(work, args, result):
    work["quaternion.orders_isometric.hits"] += bool(result)


_WORK_COUNTERS = {
    "theta.representation_counts": _count_terms,
    "central.classify": _count_forms,
    "quaternion.orders_isometric": _count_hits,
}


def install(tracer):
    """Wrap the layers of the imported splitcm package; returns the span names."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module("splitcm." + layer)
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrapped[obj] = tracer.wrap("%s.%s" % (layer, name), obj)
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(mod, cls_name)
            for name, obj in list(vars(cls).items()):
                if name.startswith("_") and name not in OPERATORS:
                    continue
                label = "%s.%s.%s" % (layer, cls_name, name)
                if isinstance(obj, classmethod):
                    setattr(cls, name, classmethod(tracer.wrap(label, obj.__func__)))
                elif inspect.isfunction(obj):
                    setattr(cls, name, tracer.wrap(label, obj))
    # rebind every name the package's modules imported from one another
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "splitcm" or mod_name.startswith("splitcm."):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
    return sorted(tracer.stats)
