"""Span wrappers the benchmark installs around each layer's entry points.

The traced pass of ``run.py`` replaces every listed public method or
function with a wrapper that records one *span* per call: name, start,
end and the span that caused it, on a per-process stack timed with
``perf_counter_ns``.  One op makes millions of spans, so they are
aggregated in memory per ``(name, parent layer)`` into call count, total
time and *self* time (the span's duration minus what its child spans
cover); only the first :data:`RAW_SPAN_LIMIT` raw spans are kept.

This file knows nothing about the program under test: ``adapters.py``
resolves the entry points and hands the owning class or module here.
The wrappers cost a few hundred nanoseconds each, split between the
span itself and its parent's self time — per-layer times are for
comparing layers and commits with each other, never for end-to-end
claims (those come from the untraced pass).
"""
from __future__ import annotations

import functools
import itertools
import sys
from time import perf_counter_ns
from types import FunctionType

#: Raw spans kept per op, in completion order.
RAW_SPAN_LIMIT = 2000


def _all_subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


class Tracer:
    """One op's spans: the wrappers it installed and what they recorded."""

    def __init__(self) -> None:
        #: ``(span name, parent layer) -> [calls, total ns, self ns]``.
        self.aggregates: dict[tuple[str, str], list[int]] = {}
        #: ``(id, parent id, name, start ns, end ns)`` of the first spans.
        self.raw: list[tuple[int, int, str, int, int]] = []
        #: ``span name -> summed sizer(result)``, see :meth:`wrap_method`.
        self.sized: dict[str, int] = {}
        #: Entry points asked for but absent from the program.
        self.unwrapped: list[str] = []
        # Open spans, innermost last: [layer, ns covered by children, id].
        # The bottom frame stands for "no span"; forked workers inherit
        # the stack as it is at the fork.
        self._stack: list[list] = [["", 0, 0]]
        self._ids = itertools.count(1)

    def wrap(self, fn, layer: str, name: str, sizer=None):
        """``fn`` recording one span named ``name`` in ``layer`` per call."""
        stack = self._stack
        aggregates = self.aggregates
        raw = self.raw
        ids = self._ids

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0, next(ids)]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                key = (name, parent[0])
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = [0, 0, 0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if len(raw) < RAW_SPAN_LIMIT:
                    raw.append((frame[2], parent[2], name, start, end))

        if sizer is None:
            return span
        sized = self.sized
        sized.setdefault(name, 0)

        @functools.wraps(fn)
        def sized_span(*args, **kwargs):
            # Size only calls entering the layer: a layer's fallback that
            # loops over its own scalar entry point must not count twice.
            entering = stack[-1][0] != layer
            result = span(*args, **kwargs)
            if entering:
                sized[name] += sizer(result)
            return result

        return sized_span

    def wrap_method(self, cls: type, attr: str, layer: str, sizer=None) -> None:
        """Wrap ``cls.attr`` and every subclass override of it.

        ``sizer(result)`` is summed per span name into :attr:`sized` —
        the amount of work a call did when the call count understates it.
        """
        name = f"{layer}.{attr}"
        wrapped = False
        for klass in [cls, *_all_subclasses(cls)]:
            fn = klass.__dict__.get(attr)
            if isinstance(fn, FunctionType):
                setattr(klass, attr, self.wrap(fn, layer, name, sizer))
                wrapped = True
        if not wrapped:
            self.unwrapped.append(f"{cls.__module__}:{cls.__name__}.{attr}")

    def wrap_function(
        self, module, attr: str, layer: str, package: str
    ) -> None:
        """Wrap the module-level function ``module.attr`` wherever
        ``package``'s loaded modules imported it by name."""
        fn = getattr(module, attr, None)
        if not isinstance(fn, FunctionType):
            self.unwrapped.append(f"{module.__name__}:{attr}")
            return
        wrapped = self.wrap(fn, layer, f"{layer}.{attr}")
        prefix = package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == package or mod_name.startswith(prefix)
            ):
                continue
            if mod.__dict__.get(attr) is fn:
                setattr(mod, attr, wrapped)

    def report(self) -> dict:
        """Plain-data dump: aggregates per span name and parent layer."""
        spans: dict[str, dict[str, list[int]]] = {}
        for (name, parent_layer), agg in sorted(self.aggregates.items()):
            spans.setdefault(name, {})[parent_layer] = agg
        return {
            "spans": spans,
            "sized": dict(self.sized),
            "unwrapped": sorted(self.unwrapped),
            "raw_spans": self.raw,
        }
