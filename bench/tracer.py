"""Span recorder for the traced benchmark run.

A ``Tracer`` replaces module-level bindings of qmlp functions (and a few
table entries) with wrappers that record one span per call: name, start,
end, parent span and the benchmark phase it ran in. Spans live in flat
in-memory arrays until the run ends; ``table()`` then computes self times
(a span's duration minus the time its child spans cover) and ``dump()``
writes the raw spans out. ``restore()`` puts every original binding back,
and ``leaked()`` proves it did.

Counting hooks run in their own ``_trace`` span, so the time they take is
charged to neither the wrapped call nor its caller. The wrappers' own
bookkeeping (about a microsecond per call) lands in the caller's self time.
"""

import time
from array import array
from contextlib import contextmanager

import numpy as np

HOOK_SPAN = "_trace"


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._name = array("q")
        self._parent = array("q")
        self._phase = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = []
        self._cur_phase = -1
        self.counts = {}
        self._patched = []
        self._history = []
        self._hook_id = self.name_id(HOOK_SPAN)

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        i = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._phase.append(self._cur_phase)
        self._end.append(0)
        self._stack.append(i)
        self._start.append(time.perf_counter_ns())
        return i

    def _close(self, i):
        self._end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def phase(self, name):
        """Tag every span and count inside the block with a phase name."""
        prev = self._cur_phase
        self._cur_phase = self.name_id(name)
        try:
            with self.span("phase." + name):
                yield
        finally:
            self._cur_phase = prev

    def count(self, key, n=1):
        k = (self._cur_phase, key)
        self.counts[k] = self.counts.get(k, 0) + int(n)

    def counted(self, key, phase=None):
        """Sum of a count, over every phase or over one phase name."""
        pid = None if phase is None else self._ids.get(phase, -2)
        return sum(v for (p, k), v in self.counts.items() if k == key and pid in (None, p))

    # -- patching -----------------------------------------------------------

    def _install(self, owner, key, wrapper, original):
        wrapper.__wrapped__ = original
        self._patched.append((owner, key, original))
        self._history.append((owner, key, original))
        _set(owner, key, wrapper)

    def wrap(self, owner, key, name=None, name_of=None, before=None, after=None):
        """Record a span around every call made through ``owner.key``.

        ``name_of(args)`` may pick the span name id per call instead of
        ``name``. ``before(args)`` runs ahead of the call and its result is
        passed to ``after(args, result, state)``, which runs after the span
        closes, inside a hook span.
        """
        original = _get(owner, key)
        nid = None if name is None else self.name_id(name)
        hook_id = self._hook_id
        open_, close_ = self._open, self._close

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            i = open_(nid if name_of is None else name_of(args))
            try:
                result = original(*args, **kwargs)
            finally:
                close_(i)
            if after is not None:
                j = open_(hook_id)
                try:
                    after(args, result, state)
                finally:
                    close_(j)
            return result

        self._install(owner, key, traced, original)

    def count_calls(self, owner, key, counter):
        """Count calls made through ``owner.key`` without recording spans."""
        original = _get(owner, key)
        count = self.count

        def counting(*args, **kwargs):
            count(counter)
            return original(*args, **kwargs)

        self._install(owner, key, counting, original)

    def restore(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            _set(owner, key, original)

    def leaked(self):
        """Bindings patched at any time that do not hold their original now."""
        return [
            f"{getattr(owner, '__name__', type(owner).__name__)}.{key}"
            for owner, key, original in self._history
            if _get(owner, key) is not original
        ]

    # -- results ------------------------------------------------------------

    def arrays(self):
        """Raw spans as int64 arrays: name, parent, phase, start_ns, end_ns."""
        as_np = lambda a: np.frombuffer(a, dtype=np.int64) if len(a) else np.zeros(0, np.int64)
        return {
            "name": as_np(self._name),
            "parent": as_np(self._parent),
            "phase": as_np(self._phase),
            "start_ns": as_np(self._start),
            "end_ns": as_np(self._end),
        }

    def table(self):
        return SpanTable(self.names, self.arrays())

    def dump(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Closed spans with self times, queried by name, parent name and phase."""

    def __init__(self, names, arrs):
        self._ids = {n: i for i, n in enumerate(names)}
        self.name = arrs["name"]
        self.phase = arrs["phase"]
        parent = arrs["parent"]
        self.dur = arrs["end_ns"] - arrs["start_ns"]
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_ns = self.dur - child
        self.parent_name = np.where(has_parent, self.name[np.maximum(parent, 0)], -1)

    def _ids_of(self, names):
        if isinstance(names, str):
            names = (names,)
        return [self._ids.get(n, -2) for n in names]

    def select(self, name, parent=None, phase=None):
        mask = np.isin(self.name, self._ids_of(name))
        if parent is not None:
            mask &= np.isin(self.parent_name, self._ids_of(parent))
        if phase is not None:
            mask &= np.isin(self.phase, self._ids_of(phase))
        return mask

    def calls(self, name, parent=None, phase=None):
        return int(np.count_nonzero(self.select(name, parent, phase)))

    def total_ns(self, name, parent=None, phase=None):
        return float(self.dur[self.select(name, parent, phase)].sum())

    def self_total_ns(self, name, parent=None, phase=None):
        return float(self.self_ns[self.select(name, parent, phase)].sum())
