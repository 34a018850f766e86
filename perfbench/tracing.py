"""In-memory span recorder for the traced benchmark run.

A span is (id, name, start, end, parent, op): the layer call it times,
its perf_counter interval in seconds, the span that caused it and the
benchmark operation it belongs to.  Spans are recorded from the
benchmark's own files, around each public call it makes into a qfm
module; nothing inside the package is instrumented.  Counts are recorded
at the same boundaries, keyed by pass, so a count can be read for one
fixed pass of inputs.

A disabled tracer still runs every call, through the same methods, but
records nothing; the untraced passes that give the end-to-end metrics
use one.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def call(self, name, fn, *args, op=None, parent=None, **kwargs):
        """Run ``fn(*args, **kwargs)``, as a span named ``name`` when
        enabled.  The parent defaults to the innermost open span."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, op)

    def last_id(self):
        """Id of the most recently started span."""
        return len(self.spans) - 1

    def count(self, pass_index, name, value):
        if self.enabled:
            self.counts[(pass_index, name)] += value

    def median_ms(self, name):
        """Median duration in ms of the spans named ``name``; 0 when the
        workload never made that call."""
        durations = [end - start for _, n, start, end, _, _ in self.spans if n == name]
        return statistics.median(durations) * 1e3 if durations else 0.0

    def self_ms(self, name):
        """Median self time in ms of the spans named ``name``: duration
        minus the durations of the spans that name it as parent.  The
        children of a CLI span are the library calls it makes, re-timed
        after it on identical inputs, so they are subtracted whole."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        selfs = [
            (end - start) - child[sid]
            for sid, n, start, end, _, _ in self.spans
            if n == name
        ]
        return statistics.median(selfs) * 1e3 if selfs else 0.0

    def pass_count(self, pass_index, name):
        return self.counts.get((pass_index, name), 0)

    def dump(self, path):
        """Write every span and count as JSON."""
        spans = [
            {"id": s, "name": n, "start": a, "end": b, "parent": p, "op": op}
            for s, n, a, b, p, op in self.spans
        ]
        counts = [
            {"pass": k[0], "name": k[1], "value": v} for k, v in sorted(self.counts.items())
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)
