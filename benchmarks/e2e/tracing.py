"""In-memory spans recorded from outside the program.

The benchmark times calls into each layer's public functions by replacing
the bound method on one *instance* with a timing wrapper (``Tracer.wrap``);
nothing under ``src/`` is edited.  A span is ``{id, name, start, end, parent,
query_id}``; the spans of one query share ``query_id``.  Spans live in memory
and are written out when the run ends.

A tracer created with ``record=False`` (the untraced run) wraps only
``OffloadClient`` calls: their time is what a query spends *awaiting* the
offload, and the rest of the query is the client's own compute
(``client_active``).  A traced run installs every wrapper and switches
``record`` off for its measured phase; a switched-off wrapper costs two clock
reads.
"""

import asyncio
import contextvars
import functools
import itertools
import json
import time
from contextlib import contextmanager

_CURRENT = contextvars.ContextVar("e2e_span", default=None)

#: Spans under this prefix are awaits on ``OffloadClient``, not client compute.
AWAIT_PREFIX = "runtime.client."


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "query_id", "root",
                 "awaited", "count", "replayed", "payload")

    def __init__(self, sid, name, parent, query_id):
        self.id = sid
        self.name = name
        self.parent = parent.id if parent is not None else None
        self.root = parent.root if parent is not None else self
        self.query_id = parent.query_id if parent is not None else query_id
        self.start = time.perf_counter()
        self.end = self.start
        self.awaited = 0.0      # on a root span: seconds inside AWAIT_PREFIX
        self.count = 0          # e.g. ciphertexts handled by the call
        self.replayed = False   # synthetic child from the in-process replay
        self.payload = None     # (args, result) of a wrapped call, if kept

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)

    def as_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "query_id": self.query_id, "count": self.count,
                "replayed": self.replayed}


class Tracer:
    def __init__(self, record: bool):
        self.record = record
        self.spans = []
        #: (name, query_id, ms) of every client await, recorded or not.
        self.awaits = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name, query_id=None):
        parent = _CURRENT.get()
        span = Span(next(self._ids), name, parent, query_id)
        token = _CURRENT.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _CURRENT.reset(token)
            if name.startswith(AWAIT_PREFIX):
                self.awaits.append((name, span.query_id, span.ms))
                if span.root is not span:
                    span.root.awaited += span.end - span.start
            if self.record:
                self.spans.append(span)

    def add_replayed(self, name, parent, start, seconds):
        """A synthetic child of *parent* laid at *start*; returns its end."""
        span = Span(next(self._ids), name, parent, None)
        span.start, span.end, span.replayed = start, start + seconds, True
        self.spans.append(span)
        return span.end

    def wrap(self, obj, attr, name, count=None, keep=False):
        """Time every call of ``obj.attr`` as a span called *name*.

        *count* maps the call's positional arguments to a work count;
        *keep* retains ``(args, kwargs, result)`` on the span for the replay.
        Client awaits are always wrapped; everything else only when recording.
        """
        if not (self.record or name.startswith(AWAIT_PREFIX)):
            return
        fn = getattr(obj, attr)

        def note(span, args, kwargs, result):
            if count is not None:
                span.count = count(*args)
            if keep and self.record:
                span.payload = (args, kwargs, result)

        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def timed(*args, **kwargs):
                with self.span(name) as span:
                    result = await fn(*args, **kwargs)
                    note(span, args, kwargs, result)
                    return result
        else:
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                with self.span(name) as span:
                    result = fn(*args, **kwargs)
                    note(span, args, kwargs, result)
                    return result
        setattr(obj, attr, timed)

    # ------------------------------------------------------------ analysis
    def children(self, span):
        return [s for s in self.spans if s.parent == span.id]

    def self_seconds(self, span) -> float:
        """Span duration minus the part its children cover (never < 0)."""
        covered = sum(max(0.0, min(c.end, span.end) - max(c.start, span.start))
                      for c in self.children(span))
        return max(0.0, (span.end - span.start) - covered)

    def per_query_ms(self, name, query_ids):
        """Per query: total milliseconds of spans called *name*."""
        totals = {q: 0.0 for q in query_ids}
        for s in self.spans:
            if s.name == name and not s.replayed and s.query_id in totals:
                totals[s.query_id] += s.ms
        return list(totals.values())

    def per_query_count(self, name, query_ids):
        totals = {q: 0 for q in query_ids}
        for s in self.spans:
            if s.name == name and not s.replayed and s.query_id in totals:
                totals[s.query_id] += s.count
        return list(totals.values())

    def dump(self, path, header):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header, "spans": [s.as_json() for s in self.spans]},
                      fh)
            fh.write("\n")
