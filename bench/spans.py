"""In-memory span recorder and the arithmetic the benchmark reports with.

A span is one call into a wrapped public name: its name, start, end, the
span that was open when it started (its parent) and the run it belongs to.
Spans stay in memory while the benchmark runs and are written out at the
end.  Nothing here imports graphsplit, so the arithmetic is testable alone.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
import time

# Percentiles offered by the tail rule, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


class Tracer:
    """Records a span around every call of a function made by :meth:`wrap`.

    Spans are kept as parallel lists (name, start, end, parent index, run
    id) so a few hundred thousand of them stay cheap to hold.
    """

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.run = []
        self.run_id = ""
        self._stack = []

    def wrap(self, span_name, fn):
        names, starts, ends = self.name, self.start, self.end
        parents, runs, stack = self.parent, self.run, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span_name)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def spans(self):
        """The spans as (name, start, end, parent, run) tuples."""
        return list(zip(self.name, self.start, self.end, self.parent,
                        self.run))

    def write(self, path):
        """Write one JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for i, (name, t0, t1, parent, run) in enumerate(self.spans()):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "run": run}))
                fh.write("\n")


def union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.  Children that overlap each other
    are counted once."""
    children = {}
    for i, (_, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        kids = children.get(i)
        covered = union_length(kids, t0, t1) if kids else 0.0
        out.append((t1 - t0) - covered)
    return out


def ancestors_named(spans, wanted):
    """For every span, the index of its nearest ancestor whose name is in
    ``wanted`` (the span itself excluded), or -1."""
    out = [-1] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            out[i] = parent if spans[parent][0] in wanted else out[parent]
    return out


def subtree_accounting(spans, selfs, root):
    """Sum of the self times of ``root`` and all its descendants, divided
    by the duration of ``root``.  Exactly 1 when children nest inside
    their parents and siblings do not overlap."""
    inside = {root}
    acc = selfs[root]
    end = spans[root][2]
    for i in range(root + 1, len(spans)):
        if spans[i][1] > end:
            break   # spans are stored in start order
        if spans[i][3] in inside:
            inside.add(i)
            acc += selfs[i]
    duration = spans[root][2] - spans[root][1]
    return acc / duration if duration > 0 else 1.0


def _rank(p, n):
    # rounding first keeps 99.9 * 1000 / 100 from ceiling to 1000
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n):
    """The highest percentile in the ladder with at least ten of ``n``
    samples strictly beyond its nearest-rank position, or None."""
    best = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def nearest_rank(sorted_values, p):
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def summarize(values):
    """Median, the tail percentile of the rule above and the sample
    count."""
    vals = sorted(values)
    out = {"n": len(vals)}
    if not vals:
        return out
    out["median"] = statistics.median(vals)
    p = tail_percentile(len(vals))
    if p is not None:
        out["p%g" % p] = nearest_rank(vals, p)
    return out
