"""Spans and counts recorded at the boundaries of meshtomo's layers.

The tracer wraps public functions of the package from outside: it replaces
the function object in every loaded ``meshtomo`` module that bound it, so
calls made inside the program (``rasterize`` inside ``mc_kernel_sweep``,
``nnls`` inside ``tv_direct``) are recorded as well as the benchmark's own.
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time


class Tracer:
    """In-memory span recorder.

    A span is (name, start, end, parent span index, operation id). The time a
    wrapper spends on its own bookkeeping is summed in ``overhead_s``: it is
    the traced run's wall time minus what the same calls take untraced.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None
        self.overhead_s = 0.0
        self.counts = {}
        # Iteration and convergence counts are taken only while this is set,
        # so they describe one pass over the distinct inputs and repeat exactly.
        self.counting = True
        self._patches = []

    # -- recording -------------------------------------------------------

    def count(self, name, value=1):
        if self.counting:
            self.counts[name] = self.counts.get(name, 0) + value

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def wrap(self, module, attr, name, on_call=None, on_result=None):
        """Replace ``module.attr`` by a recording wrapper everywhere it is bound.

        ``on_call(args, kwargs)`` may return (args, kwargs, finish) to change
        how the original is called; ``finish(result)`` then maps the result
        back to what the caller expects. ``on_result(args, kwargs, result)``
        may return extra counts to add. ``name`` may be a callable of
        (args, kwargs) giving the span name.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            span_name = name(args, kwargs) if callable(name) else name
            finish = None
            if on_call is not None:
                args, kwargs, finish = on_call(args, kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            t1 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t2 = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (span_name, t1, t2, parent, tracer.op_id)
            if on_result is not None:
                for key, value in on_result(args, kwargs, result).items():
                    tracer.count(f"{span_name}.{key}", value)
            tracer.count(f"{span_name}.calls")
            if finish is not None:
                result = finish(result)
            tracer.overhead_s += (t1 - t0) + (time.perf_counter() - t2)
            return result

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "") or "").startswith("meshtomo"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def restore(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def median_s(self, name):
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def self_times(self):
        """Self time per span name: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def layer_self_s(self):
        """Self time summed per layer (the first dotted part of a span name)."""
        out = {}
        for name, value in self.self_times().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + value
        return out

    def table(self):
        """Rows (name, calls, median s, tail label, tail s) for every span name.

        The tail is the highest percentile with at least ten samples beyond
        it, given only when there are 40 or more samples.
        """
        rows = []
        for name in sorted({s[0] for s in self.spans}):
            values = sorted(self.durations(name))
            n = len(values)
            tail_label, tail = "", None
            if n >= 40:
                pct = int(100 * (1 - 10 / n))
                tail_label = f"p{pct}"
                tail = values[min(n - 1, int(pct / 100 * n))]
            rows.append((name, n, statistics.median(values), tail_label, tail))
        return rows

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts,
                       "overhead_s": self.overhead_s}, fh)
            fh.write("\n")
