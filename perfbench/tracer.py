"""Span tracing of imspe_kit's public functions from outside the package.

The tracer replaces module attributes with timing wrappers and puts the
originals back on ``restore``.  A span records its name, start, end, parent
span and request id in flat arrays kept in memory; ``save`` writes them out
once the run is over.  Hot scalar functions that would drown in span cost
are wrapped by ``count`` instead, which only counts calls.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


class ModuleView:
    """Stand-in for a module that overrides some of its attributes.

    Installing a view as ``caller.module`` traces only the calls that
    ``caller`` makes, leaving the module's own internal calls untouched.
    """

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.counts: dict[str, int] = {}
        self.request = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.req.append(self.request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, rename: str | None = None) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if rename is not None:
            self.name[idx] = self._id(rename)

    # -- installing wrappers ----------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def spanned(self, func, name: str, tag=None, refusals=(), on_result=None):
        """Wrapper of ``func`` that records one span per call.

        ``tag(*args)`` appends a suffix to the span name; a call that raises
        one of ``refusals`` is renamed ``<name>|refused``; ``on_result(out)``
        is added to the counter ``name``.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            label = name if tag is None else f"{name}|{tag(*args, **kwargs)}"
            idx = tracer.open(label)
            try:
                out = func(*args, **kwargs)
            except refusals:
                tracer.close(idx, label + "|refused")
                raise
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx)
            if on_result is not None:
                tracer.counts[name] = tracer.counts.get(name, 0) + on_result(out)
            return out

        return wrapper

    def wrap(self, owner, attr: str, name: str, **kwargs) -> None:
        """Trace calls made through ``owner.attr``."""
        self._set(owner, attr, self.spanned(getattr(owner, attr), name, **kwargs))

    def wrap_everywhere(self, package: str, original, name: str, **kwargs) -> None:
        """Trace ``original`` under every name it is bound to in ``package``'s modules."""
        wrapper = self.spanned(original, name, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def view(self, owner, attr: str, spans: dict[str, str]) -> None:
        """Replace module ``owner.attr`` by a view tracing the listed functions.

        ``spans`` maps function name to span name.
        """
        module = getattr(owner, attr)
        overrides = {fn: self.spanned(getattr(module, fn), span) for fn, span in spans.items()}
        self._set(owner, attr, ModuleView(module, overrides))

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls made through ``owner.attr`` without recording spans."""
        func = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        self._set(owner, attr, counted)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, busy seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so the children never overlap.
        """
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        calls = np.bincount(names, minlength=len(self.names))
        busy = np.bincount(names, weights=dur, minlength=len(self.names))
        own = np.bincount(names, weights=dur - covered, minlength=len(self.names))
        return {
            n: {"calls": int(calls[i]), "s": float(busy[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.req, dtype=np.int32),
        )
