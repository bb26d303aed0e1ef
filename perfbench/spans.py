"""Per-layer spans and work counts, recorded from outside the program.

While `Tracer.patch` is active, every public function of the layer modules
(`series`, `mellin`, `gallery`, `report`) is replaced by a wrapper that opens
a span, so the package's own calls through module attributes are captured
too.  The elementary functions of `mpmath.mp`, which the `precision` layer
fronts, are wrapped to count calls, charged to the innermost open span.
The benchmark itself opens one `cli` span per invocation.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

from mpmath import mp

LAYERS = ("series", "mellin", "gallery", "report")
ELEMENTARY = ("exp", "ln", "log", "sqrt", "atan", "sin", "cos", "sinh", "cosh", "ldexp")
# calls whose arguments and results are kept for the counts in layer_metrics
KEPT = ("series.u_direct", "series.r_correction", "series.predicted_correction",
        "report.render_json", "report.render_csv", "report.render_text")


class Span:
    __slots__ = ("name", "start", "end", "parent", "children_s", "elem_calls")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.children_s = 0.0
        self.elem_calls = 0
        self.start = time.perf_counter()
        self.end = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


class Tracer:
    """Spans kept in memory, plus the arguments and results of KEPT calls."""

    def __init__(self):
        self.spans = []
        self.kept = defaultdict(list)
        self.elem_calls = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children_s += span.end - span.start
            self.spans.append(span)

    def _wrap(self, name, fn):
        keep = name in KEPT

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                self.kept[name].append((args, result))
            return result
        return traced

    def _count(self, fn):
        def counted(*args, **kwargs):
            self.elem_calls += 1
            if self._stack:
                self._stack[-1].elem_calls += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def patch(self, package):
        """Wrap the layer modules of `package` and mpmath's elementary
        functions; everything is restored on exit."""
        saved = []
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))
        own = {name: mp.__dict__[name] for name in ELEMENTARY if name in mp.__dict__}
        for name in ELEMENTARY:
            setattr(mp, name, self._count(getattr(mp, name)))
        try:
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            for name in ELEMENTARY:
                if name in own:
                    setattr(mp, name, own[name])
                else:
                    delattr(mp, name)

    def totals(self):
        """name -> (calls, self seconds, elementary calls charged to it)."""
        out = defaultdict(lambda: [0, 0.0, 0])
        for span in self.spans:
            entry = out[span.name]
            entry[0] += 1
            entry[1] += span.self_s
            entry[2] += span.elem_calls
        return out
