"""In-memory span tracer installed from outside the package.

``Tracer.install`` replaces a package function by a timing wrapper in
every ``railswin`` module namespace that holds it, so callers that look
the function up as a module global (``T.linear``, ``load_coco`` inside
``railswin.cli``) go through the wrapper.  Each wrapped call records one
span: name, start, end and the index of the enclosing span.  Counters
are recorded at the same boundaries.  Nothing is written until the run
ends.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []  # (module, attribute, original)
        self.missing = []

    # -- recording ---------------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] += n

    def outermost(self):
        """Name of the outermost open span, or '' outside any span."""
        return self.names[self._stack[0]] if self._stack else ""

    def span_wrapper(self, name, fn, hook=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(clock())
            tracer.ends.append(0)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.ends[idx] = clock()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts[name] += 1
            tracer.counts[(name, tracer.outermost())] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, target, name, span=True, hook=None):
        """Wrap ``module:attr`` wherever a railswin module refers to it.

        A target that no longer exists is noted in ``missing`` and its
        metrics read 0, so a renamed function shows in the trace instead
        of stopping the run.
        """
        module_name, attr = target.split(":")
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.missing.append(target)
            return
        make = self.span_wrapper if span else self.count_wrapper
        wrapper = make(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "railswin" or mod_name.startswith("railswin.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def take(self):
        """Return the recorded spans as arrays and start a fresh record."""
        spans = SpanTable(self.names, self.parents, self.starts, self.ends)
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        counts, self.counts = self.counts, collections.Counter()
        return spans, counts


class SpanTable:
    """Finished spans; times in nanoseconds, parent -1 for a root span."""

    def __init__(self, names, parents, starts, ends):
        self.names = list(names)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        self.durations = self.ends - self.starts
        self._own = None
        self._index = collections.defaultdict(list)
        for i, n in enumerate(self.names):
            self._index[n].append(i)

    def __len__(self):
        return len(self.names)

    def self_times(self):
        """Span duration minus the time its direct children cover.

        Calls are single-threaded and nested, so direct children are
        disjoint sub-intervals of their parent.
        """
        if self._own is None:
            own = self.durations.copy()
            has_parent = self.parents >= 0
            np.subtract.at(own, self.parents[has_parent], self.durations[has_parent])
            self._own = own
        return self._own

    def inside(self, name):
        """Boolean mask: span is ``name`` or has an ancestor named ``name``."""
        mask = np.zeros(len(self), dtype=bool)
        for i, (n, p) in enumerate(zip(self.names, self.parents)):
            mask[i] = n == name or (p >= 0 and mask[p])
        return mask

    def total_ns(self, names, within=None):
        """Time covered by spans in ``names`` that have no ancestor in ``names``."""
        names = set(names)
        members = sorted(i for n in names for i in self._index.get(n, ()))
        total = 0
        for i in members:
            if within is not None and not within[i]:
                continue
            p = self.parents[i]
            nested = False
            while p >= 0:
                if self.names[p] in names:
                    nested = True
                    break
                p = self.parents[p]
            if not nested:
                total += int(self.durations[i])
        return total

    def calls(self, name):
        return len(self._index.get(name, ()))

    def layer_self_ns(self, prefix):
        own = self.self_times()
        return int(sum(own[i] for i, n in enumerate(self.names) if n.startswith(prefix + ".")))

    def name_self_ns(self, name):
        own = self.self_times()
        return int(sum(own[i] for i in self._index.get(name, ())))

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, n in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{n},{self.starts[i]},{self.ends[i]}\n")
