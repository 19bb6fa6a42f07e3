"""In-memory spans recorded around calls into the package's layers.

The tracer patches module attributes that callers look up at call time
(for example `gkpstab.cli.run`), so every call through that name opens a
span.  A span's parent is the innermost span still open in the same
thread; spans opened in a worker thread with nothing open there start a
tree of their own.  Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, count]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, count=0, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, count]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_decoder(self, name, decoder):
        """Decoder callable whose spans carry the number of trials decoded."""

        def traced(z, rng):
            return self.call(name, decoder, z, rng, count=len(z))

        return traced

    def patch(self, module, attr, name, wrapper=None):
        """Replace module.attr by a traced version until `restore`."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, (wrapper or self.wrap)(name, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path):
        with gzip.open(path, "wt") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans}, handle)


def children(spans):
    out = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            out[span[PARENT]].append(i)
    return out


def self_times(spans, kids=None):
    """Each span's duration minus the part of it its children cover."""
    kids = children(spans) if kids is None else kids
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for k in sorted(kids[i], key=lambda j: spans[j][START]):
            lo = max(spans[k][START], reach)
            hi = min(spans[k][END], span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span[END] - span[START] - covered)
    return out


def subtree(kids, root):
    todo, out = [root], []
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids[i])
    return out


def worst_self_sum_error(spans):
    """Largest |sum of self times - wall time| / wall time over root spans."""
    kids = children(spans)
    selfs = self_times(spans, kids)
    worst = 0.0
    for i, span in enumerate(spans):
        wall = span[END] - span[START]
        if span[PARENT] < 0 and kids[i] and wall > 0:
            total = sum(selfs[j] for j in subtree(kids, i))
            worst = max(worst, abs(total - wall) / wall)
    return worst
