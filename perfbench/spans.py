"""Span recorder for the traced run.

``SpanRecorder.installed(package)`` wraps the public functions of the
package's modules, and the public methods of the classes they define, at
their call boundaries, then restores the originals. A function imported
into another module under the same name (``boxlift.cli.iou3d`` is
``boxlift.metrics.iou3d``) is replaced in every namespace that binds it, so
calls are seen whichever way they are made. Nothing in the package changes.

Each span has a name, start and end (``perf_counter_ns``), the index of
its parent span and the id of the unit of work (one frame, or one command)
it belongs to; ``unit`` opens a unit's root span under a new id. Spans are
kept in memory up to ``SPAN_CAP`` and written as JSON lines by ``write``.
Per-name totals (calls, errors, busy and self time, and items: the summed
length of list results) are kept for every call, capped or not; self time
is a span's duration minus the time its child spans cover.
"""

import functools
import inspect
import json
import sys
from time import perf_counter_ns

SPAN_CAP = 200_000


class Stat:
    __slots__ = ("calls", "errors", "busy_ns", "self_ns", "items")

    def __init__(self):
        self.calls = self.errors = self.busy_ns = self.self_ns = self.items = 0


class SpanRecorder:
    def __init__(self):
        self.stats = {}
        self.spans = []  # [name, start_ns, end_ns, parent_index, unit_id]
        self.dropped = 0
        self.keep_spans = True
        self.unit_id = 0
        self._stack = []  # [span_index, child_ns] per open span

    def stat(self, name):
        return self.stats.get(name) or Stat()

    def unit(self, name):
        """Context manager: the root span of a new unit of work, under a new id."""
        self.unit_id += 1
        return self.span(name)

    def _enter(self, name):
        index = -1
        if self.keep_spans:
            if len(self.spans) < SPAN_CAP:
                index = len(self.spans)
                parent = self._stack[-1][0] if self._stack else -1
                self.spans.append([name, 0, 0, parent, self.unit_id])
            else:
                self.dropped += 1
        frame = [index, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, start, end, ok, result):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.busy_ns += duration
        stat.self_ns += duration - frame[1]
        if not ok:
            stat.errors += 1
        elif isinstance(result, list):
            stat.items += len(result)
        if frame[0] >= 0:
            span = self.spans[frame[0]]
            span[1], span[2] = start, end

    def span(self, name):
        """Context manager recording one span around a block of the benchmark."""
        return _Block(self, name)

    def wrap(self, name, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            start = perf_counter_ns()
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                exit_(name, frame, start, perf_counter_ns(), ok, result)

        return traced

    def installed(self, package, layers):
        return _Installed(self, package, layers)

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, unit in self.spans:
                handle.write(json.dumps([name, start, end, parent, unit]) + "\n")


class _Block:
    def __init__(self, recorder, name):
        self.recorder, self.name = recorder, name

    def __enter__(self):
        self.frame = self.recorder._enter(self.name)
        self.start = perf_counter_ns()

    def __exit__(self, exc_type, exc, tb):
        self.recorder._exit(
            self.name, self.frame, self.start, perf_counter_ns(), exc_type is None, None
        )


def _targets(package, layers):
    """(span name, function, class or None) for every function to wrap."""
    found = []
    for layer in layers:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{layer}.{attr}", obj, None))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found.append((f"{layer}.{attr}.{meth}", fn, obj))
    return found


class _Installed:
    """Context manager that swaps wrappers in and restores the originals."""

    def __init__(self, recorder, package, layers):
        self.recorder, self.package, self.layers = recorder, package, layers
        self.patched = []  # (owner, attribute, original)

    def __enter__(self):
        wrappers = {}  # id(original) -> wrapper, for functions bound in modules
        for name, fn, cls in _targets(self.package, self.layers):
            wrapper = self.recorder.wrap(name, fn)
            if cls is None:
                wrappers[id(fn)] = wrapper
            else:
                self._patch(cls, fn.__name__, wrapper)
        prefix = self.package + "."
        for key, module in list(sys.modules.items()):
            if key != self.package and not key.startswith(prefix):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        return self.recorder

    def _patch(self, owner, attr, wrapper):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, exc_type, exc, tb):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()
