"""Spans recorded from outside the library.

A ``Tracer`` replaces a function attribute of a module or class with a
wrapper that times every call under a span name, and puts the original back
on ``close``.  A span's self time is its duration minus the part covered by
the wrapped calls made inside it (its child spans).  Spans are folded into
per-name totals (calls, inclusive seconds, self seconds) as they close, so
memory stays flat however many calls a workload makes.  Exact counters are
recorded at the same boundaries with ``count``.

Each thread keeps its own span stack, so the wrappers are safe under the
``spectrum-grid`` thread pool; the totals are updated under one lock.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.root_s = 0.0  # summed duration of spans opened with no span open in their thread
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    # -- state read by hooks ------------------------------------------------

    @property
    def phase(self):
        """Phase label of the innermost enclosing span that set one, in this thread."""
        return getattr(self._local, "phase", None)

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)`` until ``close``."""
        orig = getattr(owner, attr)
        new = make(orig)
        functools.update_wrapper(new, orig)
        setattr(owner, attr, new)
        self._patched.append((owner, attr, orig))

    def wrap(self, owner, attr, name, after=None, phase=None):
        """Time every call of ``owner.attr`` as a span.

        ``name`` is the span name, or a callable ``(args, kwargs) -> name``.
        ``after(args, kwargs, result)`` runs once the span has closed; its
        own time is kept out of the enclosing span's self time.  ``phase``,
        if given, is the label ``Tracer.phase`` reports to wrapped calls
        made inside this one.
        """
        local, lock = self._local, self._lock

        def make(orig):
            def traced(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                child = [0.0]
                stack.append(child)
                outer_phase = getattr(local, "phase", None)
                if phase is not None:
                    local.phase = phase
                t0 = time.perf_counter()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    local.phase = outer_phase
                    stack.pop()
                    with lock:
                        self.calls[label] += 1
                        self.total_s[label] += dt
                        self.self_s[label] += dt - child[0]
                        if not stack:
                            self.root_s += dt
                if after is not None:
                    after(args, kwargs, result)
                if stack:
                    stack[-1][0] += time.perf_counter() - t0
                return result

            return traced

        self.patch(owner, attr, make)

    def close(self):
        """Put back every attribute this tracer replaced, newest first."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)
