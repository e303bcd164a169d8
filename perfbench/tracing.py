"""In-memory span tracer for the traced benchmark run.

The tracer wraps functions and methods of ``pressure_lab`` from the
benchmark's own files.  Each wrapped call records a span (name, start, end,
parent span, op id) and may add to named counts.  Spans are only taken in
the process that created the tracer: pool workers forked from it run the
plain functions.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index or None, op id]
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))   # op id -> name -> n
        self.op_id = None
        self._stack = []
        self._pid = os.getpid()
        self._patches = []         # (owner, attribute, original)

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name, n):
        self.counts[self.op_id][name] += n

    def wrap(self, name, fn, count=None):
        """fn traced as span `name`; count(args, kwargs, result) yields
        (count name, n) pairs added after the call returns."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                for key, n in count(args, kwargs, result):
                    self.count(key, n)
            return result
        return traced

    def patch_function(self, fn, name, count=None):
        """Replace fn by its traced form in every pressure_lab module that
        holds it (``from .x import f`` leaves one reference per module)."""
        traced = self.wrap(name, fn, count)
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "pressure_lab":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, traced)

    def patch_method(self, cls, attr, name, count=None):
        self.patch(cls, attr, self.wrap(name, cls.__dict__[attr], count))

    def patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children (overlaps counted once, children clipped
    to the parent)."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        intervals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[index])
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out
