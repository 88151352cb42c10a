"""In-memory span tracer that instruments a package from the outside.

The tracer replaces chosen functions of an already imported package with
wrappers that record one span per call: span name, parent span, start and
end (``time.perf_counter_ns``).  A function is replaced at *every* binding
the package holds for it -- module globals (``from .algebra import
exp_element`` creates one per importing module), class attributes and
values of module-level dicts such as a dispatch table -- and
:meth:`Tracer.restore` puts every original back.

Spans live in flat arrays, so a report with millions of calls stays small;
spans of one report share a report id (see :meth:`Tracer.begin_report`).
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np


def package_modules(package: str) -> list:
    """The imported modules of ``package``, the package itself included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def find_bindings(fn, modules) -> list[tuple[object, str]]:
    """Every (container, key) in ``modules`` whose value is ``fn``.

    Containers are module dicts, classes defined in those modules, and
    dicts held in module globals.  Each container is listed once.
    """
    found = []
    seen = set()

    def visit(container, items):
        if id(container) in seen:
            return
        seen.add(id(container))
        for key, value in items:
            if value is fn:
                found.append((container, key))

    for mod in modules:
        namespace = vars(mod)
        visit(namespace, list(namespace.items()))
        for value in list(namespace.values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                visit(value, list(vars(value).items()))
            elif isinstance(value, dict):
                visit(value, list(value.items()))
    return found


def _set(container, key, value) -> None:
    if isinstance(container, type):
        setattr(container, key, value)
    else:
        container[key] = value


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._report_first: list[int] = []  # first span index of each report
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str | None, classify=None):
        """A wrapper of ``fn`` recording a span named ``name``.

        ``classify(args)``, when given instead, names each call's span (for
        instance float or exact product, by argument type).
        """
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack
        )
        clock = time.perf_counter_ns
        fixed = self.name_id(name) if classify is None else None
        name_id = self.name_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if classify is None else name_id(classify(args)))
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = len(self._start)
        self._name.append(self.name_id(name))
        self._parent.append(self._stack[-1])
        self._end.append(0)
        self._stack.append(idx)
        self._start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self._end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def begin_report(self) -> None:
        """Start a new report id; later spans belong to it."""
        self._report_first.append(len(self._start))

    # -- patching -------------------------------------------------------------

    def patch(self, fn, modules, name: str | None, classify=None) -> int:
        """Replace ``fn`` at each of its bindings in ``modules``; return how many."""
        bindings = find_bindings(fn, modules)
        if bindings:
            wrapper = self.wrap(fn, name, classify)
            for container, key in bindings:
                self._patches.append((container, key, fn))
                _set(container, key, wrapper)
        return len(bindings)

    def restore(self) -> None:
        """Put every patched binding back to its original function."""
        while self._patches:
            container, key, fn = self._patches.pop()
            _set(container, key, fn)

    # -- analysis -------------------------------------------------------------

    def table(self) -> dict[str, np.ndarray]:
        """Spans as columns: name id, parent index, report id, start, end (ns).

        Spans recorded before the first :meth:`begin_report` get report -1.
        """
        n = len(self._start)
        bounds = np.asarray([*self._report_first, n], dtype=np.int64)
        report = np.repeat(np.arange(-1, len(bounds) - 1), np.diff([0, *bounds]))
        return {
            "name": np.array(self._name, dtype=np.uint16),
            "parent": np.array(self._parent, dtype=np.int32),
            "report": report.astype(np.int32),
            "start": np.array(self._start, dtype=np.int64),
            "end": np.array(self._end, dtype=np.int64),
        }

    def summary(self) -> list[dict[str, dict[str, float]]]:
        """Per report id, per span name: ``calls``, ``self_s`` and ``total_s``.

        ``total_s`` is inclusive and double counts a name nested in itself.
        """
        t = self.table()
        dur = (t["end"] - t["start"]).astype(np.float64)
        has_parent = t["parent"] >= 0
        own = dur - np.bincount(
            t["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        k, reports = len(self.names), len(self._report_first)
        keep = t["report"] >= 0
        key = t["report"][keep].astype(np.int64) * k + t["name"][keep]
        size = reports * k
        calls = np.bincount(key, minlength=size).reshape(reports, k)
        self_ns = np.bincount(key, weights=own[keep], minlength=size).reshape(reports, k)
        total_ns = np.bincount(key, weights=dur[keep], minlength=size).reshape(reports, k)
        return [
            {
                name: {
                    "calls": int(calls[r, i]),
                    "self_s": float(self_ns[r, i]) * 1e-9,
                    "total_s": float(total_ns[r, i]) * 1e-9,
                }
                for i, name in enumerate(self.names)
                if calls[r, i]
            }
            for r in range(reports)
        ]

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file (names in ``names``)."""
        np.savez_compressed(path, names=np.array(self.names), **self.table())
