"""Spans around every public function of the dnls_ring package.

Each public function is replaced, in every package module that holds a
reference to it, by one wrapper that records (name, start, end, parent).
`gradient`, for instance, is wrapped in `lattice` and in `continuation`,
which imported it, so calls made through either name are seen. Public
methods of the package's classes are wrapped on the class. Spans stay in
memory; `round_totals` folds them into per-function call counts and self
time (duration minus the time covered by child spans) and clears them.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

PACKAGE = "dnls_ring"


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _label(fn) -> str:
    return f"{fn.__module__[len(PACKAGE) + 1:] or PACKAGE}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index]
        self._stack: list = []
        self._wrappers: dict = {}    # original function -> wrapper
        self._patched: list = []     # (owner, attribute, original value)
        self.watch: dict = {}        # name -> f(result, args), summed per round

    def _wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = _label(fn)
        spans, stack, watch = self.spans, self._stack, self.watch
        now = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, now(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if name in watch:
                span.append(watch[name](out, args))
            return out

        self._wrappers[fn] = wrapper
        return wrapper

    def labels(self) -> set:
        """Names of every function wrapped so far."""
        return {_label(fn) for fn in self._wrappers}

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = _package_modules()
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if (isinstance(val, types.FunctionType)
                        and val.__module__.startswith(PACKAGE)):
                    self._patch(mod, attr, self._wrap(val))
                elif (isinstance(val, type) and val.__module__ == mod.__name__):
                    self._patch_class(val)
        return self

    def _patch_class(self, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(val, types.FunctionType):
                self._patch(cls, attr, self._wrap(val))
            elif isinstance(val, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(val.__func__)))
            elif isinstance(val, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(val.__func__)))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def round_totals(self) -> dict:
        """{name: {"calls", "self_s", "watched"}} for the spans recorded since
        the last call; the spans are then dropped."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "watched": 0.0})
        for i, span in enumerate(self.spans):
            entry = totals[span[0]]
            entry["calls"] += 1
            entry["self_s"] += span[2] - span[1] - child[i]
            if len(span) > 4:
                entry["watched"] += span[4]
        self.spans.clear()
        return dict(totals)

    def dump(self, path) -> None:
        """Write the spans recorded so far as CSV (id, name, start, end,
        parent), times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[0]},{s[1] - t0:.9f},{s[2] - t0:.9f},{s[3]}\n")
