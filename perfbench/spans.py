"""In-memory span tracer that wraps functions by patching module attributes.

A ``Tracer`` replaces attributes (module functions or class methods) with
wrappers that record one span per call: name id, parent span id, start and
end (``time.perf_counter``), a size (rows, bytes, ...) and a failure flag.
Spans are appended in call order, so a parent always precedes its children.
``uninstall`` puts every original attribute back.  Nothing here imports the
traced program; callers say what to wrap.

Columns are ``array`` buffers rather than per-span objects so that a run with
a million spans stays at tens of megabytes.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.failed = array("b")
        self.counts = defaultdict(float)
        self._stack = [-1]
        self._patches = []

    # -- installing ---------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, owner, attr, name, size=None, on_exit=None):
        """Trace calls of ``owner.attr``.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``;
        ``size(args, kwargs)`` gives the span's size column; ``on_exit(tracer,
        span_id, args, kwargs, result)`` runs after every call (``result`` is
        None when the call raised) and may add to ``tracer.counts``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fixed_id = None if callable(name) else self.name_id(name)
        parent, names, start, end = self.parent, self.name, self.start, self.end
        sizes, failed, stack = self.size, self.failed, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(fixed_id if fixed_id is not None else self.name_id(name(args, kwargs)))
            sizes.append(size(args, kwargs) if size is not None else 0)
            failed.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                failed[sid] = 1
                raise
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
                if on_exit is not None:
                    on_exit(self, sid, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self):
        """Restore every patched attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def columns(self):
        """The spans as numpy columns (copies)."""
        return {
            "parent": np.array(self.parent, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "size": np.array(self.size, dtype=np.int64),
            "failed": np.array(self.failed, dtype=np.int8),
        }

    def save(self, path):
        """Write the spans and the name table to an ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


class SpanTable:
    """Aggregates over a tracer's spans: inclusive, outermost and self times."""

    def __init__(self, tracer):
        cols = tracer.columns()
        self.names = tracer.names
        self.parent = cols["parent"]
        self.name = cols["name"]
        self.size = cols["size"]
        self.failed = cols["failed"]
        self.dur = cols["end"] - cols["start"]
        has_parent = self.parent >= 0
        self.child_time = np.bincount(self.parent[has_parent],
                                      weights=self.dur[has_parent],
                                      minlength=len(self.dur))

    def mask(self, names):
        wanted = set(names)
        return np.isin(self.name, [i for i, nm in enumerate(self.names) if nm in wanted])

    def has_ancestor(self, ancestor_mask):
        """For each span, whether some proper ancestor is in ``ancestor_mask``."""
        found = np.zeros(len(self.dur), dtype=bool)
        anc = self.parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                return found
            found[live] |= ancestor_mask[anc[live]]
            anc[live] = self.parent[anc[live]]

    def calls(self, names):
        return int(self.mask(names).sum())

    def failures(self, names):
        return int(self.failed[self.mask(names)].sum())

    def rows(self, names, within=None):
        m = self.mask(names)
        if within is not None:
            m &= self.has_ancestor(self.mask(within))
        return int(self.size[m].sum())

    def seconds(self, names):
        """Wall time covered by the spans in ``names``, nested ones counted once."""
        m = self.mask(names)
        return float(self.dur[m & ~self.has_ancestor(m)].sum())

    def self_seconds(self, names):
        """Span time minus the time covered by direct child spans."""
        m = self.mask(names)
        return float((self.dur[m] - self.child_time[m]).sum())
