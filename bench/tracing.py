"""Spans and counters installed from outside the program.

``install_spans`` replaces each public function of the tumorsym modules at
every module that bound it by name, plus the ``values`` method of each
family class and the ``eval`` method of each constitutive triplet, with a
wrapper that records a span (name, start, end, parent).  Spans stay in
memory until the run ends.  ``install_counters`` wraps the arithmetic
dunders of ``DD`` and ``Dual`` with plain call counters; they run in a round
of their own so their cost does not land in any span's self time.  The
scalar helpers of ``numerics.dd`` and ``numerics.dual`` (two_prod, exp,
value, ...) are the inside of those counted operations and are not wrapped.
"""

import importlib
import inspect
import json
import time
from collections import Counter

MODULES = ("cli", "config", "core_model", "jets", "reduction", "residuals",
           "solutions", "symmetry", "numerics", "numerics.fd", "numerics.ode",
           "numerics.quadrature", "numerics.special")
DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
           "__rpow__", "__abs__")


def _modules():
    pkg = importlib.import_module("tumorsym")
    mods = {"": pkg}
    for name in MODULES + ("numerics.dd", "numerics.dual"):
        mods[name] = importlib.import_module(f"tumorsym.{name}")
    return mods


def _public_functions(mod, exported):
    """Functions defined in ``mod`` that its ``__all__`` lists or that the
    ``tumorsym`` package re-exports: the declared public API."""
    for name in sorted(set(getattr(mod, "__all__", ())) | exported):
        obj = getattr(mod, name, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = [-1]
        self._restore = []

    def _span(self, name, fn, wrap_result=False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return self._span(name, out) if wrap_result else out
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install_spans(self):
        mods = _modules()
        exported = set(vars(mods[""]))
        for home, mod in mods.items():
            if home in ("", "numerics.dd", "numerics.dual"):
                continue
            for fname, fn in _public_functions(mod, exported):
                # pressure_from_lambda returns the pressure profile P; its
                # evaluations are where the quadrature time goes
                wrapped = self._span(
                    f"{home}.{fname}", fn,
                    wrap_result=fname == "pressure_from_lambda")
                for other in mods.values():
                    for attr, obj in list(vars(other).items()):
                        if obj is fn:
                            self._patch(other, attr, wrapped)
        solutions, core = mods["solutions"], mods["core_model"]
        for cls in solutions.FAMILY_IDS.values():
            self._patch(cls, "values",
                        self._span("solutions.values", cls.values))
        for cls in (core.PowerLawTriplet, core.GeneralTriplet):
            self._patch(cls, "eval", self._span("core_model.eval", cls.eval))

    def install_counters(self):
        mods = _modules()
        for key, cls in (("numerics.dd.ops", mods["numerics.dd"].DD),
                         ("numerics.dual.ops", mods["numerics.dual"].Dual)):
            for attr in DUNDERS:
                if attr in vars(cls):
                    self._patch(cls, attr,
                                self._counter(key, vars(cls)[attr]))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def dump(self, path):
        """Write the spans once: a name table and rows of (name index,
        start ns, end ns, parent index) relative to the first span."""
        names, rows = {}, []
        origin = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)),
                         round((start - origin) * 1e9),
                         round((end - origin) * 1e9), parent])
        with open(path, "w") as fh:
            json.dump({"names": list(names), "spans": rows}, fh,
                      separators=(",", ":"))

    def summary(self):
        """{name: [calls, self seconds]}; self time is the span's duration
        minus the durations of its direct children (one thread, so the
        children never overlap)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += (end - start) - inner
        return out
