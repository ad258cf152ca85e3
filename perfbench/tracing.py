"""Span tracing from outside the simulator, by wrapping public calls.

The benchmark never edits the program under test.  It replaces public
functions and methods with timing wrappers for the duration of a traced
pass and restores the originals afterwards (:meth:`Tracer.uninstall`).

Two kinds of boundary are recorded:

- *coarse* boundaries (a pass, a cell, ``Engine.__init__``/``run``, a
  PTSB commit, a detector tick, T2P, a store get/put, a state write)
  get one span per call: name, start, end, parent;
- *per-access* boundaries (``mem_access``, ``directory.access``, both
  translates, physical-memory reads and writes) run millions of times
  per pass, so each call only adds to a count and a self time kept on
  the innermost open span.

Self time is a call's duration minus the time its traced children
cover.  A per-access wrapper costs about as much as a small callee, so
the tracer measures that cost once (:meth:`_calibrate`) and takes it
out of both the callee's and the caller's self time; what remains of
it shows only in the traced pass's wall time.  Spans and counts live
in memory until the pass ends.

One span stack serves every thread.  That is exact for the programs
this benchmark drives: the campaign service hands each shard to one
worker thread while the event loop only waits for it, so traced code
never runs on two threads at once.
"""

import functools
import inspect
from time import perf_counter_ns


class Tracer:
    """Spans plus per-span fine counters for one or more passes."""

    def __init__(self):
        #: [name, start_ns, end_ns, parent_index, self_ns, fine]
        self.spans = []
        #: counts the layer wrappers take from call arguments/results
        self.counts = {}
        #: (span index, parent's child time, parent's fine counters)
        self._stack = []
        #: time covered by finished children of the innermost frame
        self._child_ns = 0
        #: fine counters of calls made while no span is open
        self._root_fine = {}
        #: fine counters of the innermost open span
        self._fine = self._root_fine
        self._patches = []
        #: per-call wrapper cost inside / outside the timed interval
        self._inner_ns = self._outer_ns = 0
        self._inner_ns, self._outer_ns = self._calibrate()

    def _calibrate(self, calls=20000, rounds=5):
        """Per-call cost of :meth:`fine_wrapper` inside and outside the
        interval it times, from wrapping a no-op (minimum over rounds)."""
        def noop():
            pass
        traced = self.fine_wrapper("calibrate", noop)
        inner = outer = None
        for _ in range(rounds):
            start = perf_counter_ns()
            for _ in range(calls):
                noop()
            raw = perf_counter_ns() - start
            start = perf_counter_ns()
            for _ in range(calls):
                traced()
            wrapped = perf_counter_ns() - start
            measured = self._root_fine.pop("calibrate")[1]
            this_inner = max(0, (measured - raw) // calls)
            this_outer = max(0, (wrapped - measured) // calls)
            inner = this_inner if inner is None else min(inner, this_inner)
            outer = this_outer if outer is None else min(outer, this_outer)
        self._child_ns = 0
        return inner, outer

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def open(self, name):
        """Open a coarse span; returns its index for :meth:`close`."""
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        fine = {}
        self._stack.append((index, self._child_ns, self._fine))
        self.spans.append([name, perf_counter_ns(), None, parent, 0,
                           fine])
        self._child_ns = 0
        self._fine = fine
        return index

    def close(self, index):
        """Close span ``index`` and charge its duration to the parent."""
        end = perf_counter_ns()
        popped, parent_child_ns, parent_fine = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[popped][0]!r} closed out of order")
        span = self.spans[index]
        duration = end - span[1]
        span[2] = end
        span[4] = duration - self._child_ns
        self._child_ns = parent_child_ns + duration
        self._fine = parent_fine

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def count(self, name, amount=1):
        """Add ``amount`` to the named count."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def span_wrapper(self, name, fn):
        """``fn`` traced as one coarse span per call."""
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index = tracer.open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(index)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
        return traced

    def fine_wrapper(self, name, fn):
        """``fn`` traced as a count plus self time on the open span."""
        tracer = self
        inner, outer = self._inner_ns, self._outer_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter_ns()
            saved = tracer._child_ns
            tracer._child_ns = 0
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                record = tracer._fine.get(name)
                if record is None:
                    record = tracer._fine[name] = [0, 0]
                record[0] += 1
                record[1] += duration - tracer._child_ns - inner
                tracer._child_ns = saved + duration + outer
        return traced

    def patch(self, owner, attr, wrapper_factory):
        """Replace ``owner.attr`` (which ``owner`` itself must define)
        with ``wrapper_factory(original)``; undone by :meth:`uninstall`.

        Patching only names an owner defines itself keeps inherited
        no-op hooks untouched, so the engine's ``is not
        RuntimeHooks.<hook>`` override checks read exactly as they do
        untraced.
        """
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r}")
        original = vars(owner)[attr]
        setattr(owner, attr, wrapper_factory(original))
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def totals(self):
        """Per-name totals: ``{name: {"calls", "ns", "self_ns"}}`` over
        every coarse span and fine counter recorded so far."""
        out = {}

        def add(name, calls, ns, self_ns):
            entry = out.setdefault(name,
                                   {"calls": 0, "ns": 0, "self_ns": 0})
            entry["calls"] += calls
            entry["ns"] += ns
            entry["self_ns"] += self_ns

        fines = [self._root_fine]
        for span in self.spans:
            add(span[0], 1, span[2] - span[1], span[4])
            fines.append(span[5])
        for fine in fines:
            for name, (calls, self_ns) in fine.items():
                add(name, calls, 0, self_ns)
        return out

    def export(self):
        """The spans as plain dicts (written out when a run ends)."""
        return [{"name": s[0], "start_ns": s[1], "end_ns": s[2],
                 "parent": s[3], "self_ns": s[4],
                 "fine": {k: list(v) for k, v in s[5].items()}}
                for s in self.spans]
