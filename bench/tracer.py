"""Span tracer that wraps sbxs functions where their callers look them up.

Each wrapped call records one span: op id, span id, parent span id, layer,
function name, thread, wall start/end, self CPU time and the exception
type if it raised.  Self time is the span's thread CPU time minus the CPU
time of the spans it called on the same thread; thread CPU time (not wall)
keeps spans that run concurrently on pool threads from being counted twice.
Spans stay in memory until the benchmark writes them out.

Modules are fetched through importlib, never by `import sbxs.gbessel as m`:
the package `__init__` rebinds names such as `sbxs.gbessel` to functions.
"""

import importlib
import threading
import time
from itertools import count

# Fields of one span tuple.
SPAN_FIELDS = ("op", "span", "parent", "layer", "name", "thread",
               "t0", "t1", "self_cpu", "exc", "note")


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self, targets):
        # targets: (module name, attribute, layer, note) where note maps
        # (args, result) to a small value stored with the span, or is None.
        self.targets = targets
        self.spans = []
        self.op = None
        self._local = threading.local()
        self._ids = count(1)
        self._saved = []

    def install(self):
        for module, attr, layer, note in self.targets:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, layer, attr, note))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def wrap(self, fn, layer, name, note=None):
        local = self._local
        ids = self._ids
        spans = self.spans
        perf = time.perf_counter
        cpu = time.thread_time
        ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            exc = None
            result = None
            t0 = perf()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = type(err).__name__
                raise
            finally:
                c1 = cpu()
                t1 = perf()
                stack.pop()
                used = c1 - c0
                if parent is not None:
                    parent[1] += used
                spans.append((
                    self.op, frame[0], parent[0] if parent else None, layer,
                    name, ident(), t0, t1, used - frame[1], exc,
                    note(args, result) if note is not None and exc is None
                    else None,
                ))

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """Write every span as one CSV line, header first."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(",".join("" if v is None else str(v).replace(",", ";")
                                  for v in span) + "\n")
