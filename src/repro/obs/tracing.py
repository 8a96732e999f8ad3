"""Nested wall-clock spans with Chrome trace-event export.

A :class:`Tracer` records ``with tracer.span("train.forward"):`` blocks
as completed spans over ``time.perf_counter``.  Spans nest: each span
remembers its depth and parent at entry, so the recorded list is a
flattened tree per thread.  :meth:`Tracer.to_chrome` converts the record
into the Chrome trace-event JSON format (``ph: "X"`` complete events,
microsecond timestamps) that loads directly into ``chrome://tracing`` or
https://ui.perfetto.dev — open the file there to see exactly where a
training or serving run spent its time.

Request-scoped tracing (PR 7) adds :class:`TraceContext` — a W3C
``traceparent``-style (trace id, span id) pair that crosses thread and
process boundaries where the implicit per-thread span stack cannot.
The serving layer mints one context per HTTP request (honoring an
incoming ``traceparent`` header), opens its root span with
``tracer.span(name, ctx=request_ctx)`` on the handler thread, and hands
the context to the decode-loop thread, which attaches queue-wait /
prefill / decode spans under the same trace with
:meth:`Tracer.record_span`.  :meth:`Tracer.trace_slice` then exports one
request's spans as a self-contained Chrome trace.

Disabled tracers (``Tracer(enabled=False)``, or the shared
:data:`NULL_TRACER`) hand out one reusable no-op context manager, so
instrumented hot paths cost a dict lookup and nothing else when tracing
is off.  Trace ids come from ``os.urandom`` — never from a seeded NumPy
generator — so tracing cannot perturb seeded experiments.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
from dataclasses import dataclass

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")


@dataclass(frozen=True)
class TraceContext:
    """W3C ``traceparent``-style identity of one span in one trace.

    ``trace_id`` (32 hex chars) names the end-to-end request; ``span_id``
    (16 hex chars) names this span within it; ``parent_id`` is the span
    that caused it (None at the root).  Contexts are immutable values —
    safe to share across threads — and are generated from ``os.urandom``,
    so minting them never touches seeded RNG streams.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def new(cls) -> "TraceContext":
        """Fresh root context: new trace id, new span id, no parent."""
        return cls(trace_id=os.urandom(16).hex(),
                   span_id=os.urandom(8).hex())

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        """Parse a W3C ``traceparent`` header; None if absent/malformed.

        Accepts ``00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>``
        and rejects the all-zero ids the spec reserves as invalid.
        """
        if not header:
            return None
        match = _TRACEPARENT_RE.match(header.strip().lower())
        if match is None:
            return None
        _, trace_id, span_id, _ = match.groups()
        if set(trace_id) == {"0"} or set(span_id) == {"0"}:
            return None
        return cls(trace_id=trace_id, span_id=span_id)

    def child(self) -> "TraceContext":
        """New context in the same trace, parented at this span."""
        return TraceContext(trace_id=self.trace_id,
                            span_id=os.urandom(8).hex(),
                            parent_id=self.span_id)

    def to_traceparent(self) -> str:
        """Serialize as a W3C ``traceparent`` header value (sampled)."""
        return f"00-{self.trace_id}-{self.span_id}-01"


class _NullSpan:
    """Reusable no-op context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live ``with`` block; records itself on the tracer at exit."""

    __slots__ = ("tracer", "name", "args", "start", "depth", "parent", "tid",
                 "ctx")

    def __init__(self, tracer: "Tracer", name: str, args: dict,
                 ctx: TraceContext | None = None):
        self.tracer = tracer
        self.name = name
        self.args = args
        self.ctx = ctx

    def __enter__(self):
        stack = self.tracer._stack_for_thread()
        self.depth = len(stack)
        self.parent = stack[-1].name if stack else None
        if self.ctx is None:
            # Inherit the enclosing span's trace (same thread); a span
            # with no traced ancestor stays outside any trace.
            enclosing = stack[-1].ctx if stack else None
            if enclosing is not None:
                self.ctx = TraceContext(trace_id=enclosing.trace_id,
                                        span_id=self.tracer._next_span_id(),
                                        parent_id=enclosing.span_id)
        self.tid = threading.get_ident()
        stack.append(self)
        self.start = self.tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = self.tracer.clock()
        stack = self.tracer._stack_for_thread()
        if stack and stack[-1] is self:
            stack.pop()
        self.tracer._record(self, end)
        return False


class Tracer:
    """Collects nested spans for one process.

    Parameters
    ----------
    enabled:
        When False every :meth:`span` returns a shared no-op context
        manager and nothing is recorded.
    clock:
        Monotonic time source (seconds); ``time.perf_counter`` by default.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[dict] = []       # completed spans, completion order
        self._stacks: dict[int, list[_Span]] = {}
        self._pid = os.getpid()
        self._span_ids = itertools.count(1)

    def _next_span_id(self) -> str:
        # next() on one shared count is atomic under the GIL, so ids are
        # unique across the handler and decode threads without a lock.
        return f"{next(self._span_ids):016x}"

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, ctx: TraceContext | None = None, **args):
        """Context manager timing one named block; spans nest freely.

        ``ctx`` pins the span's trace identity explicitly (the serving
        layer's per-request root span); without it the span inherits the
        enclosing span's trace on the same thread, if any.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, args, ctx=ctx)

    def record_span(self, name: str, start: float, end: float,
                    parent: TraceContext | None = None,
                    **args) -> TraceContext | None:
        """Record a completed span retrospectively from saved timestamps.

        This is the cross-thread reparenting path: the decode loop knows
        when a request was submitted/admitted/first-sampled long after
        the fact and on a different thread than the request's root span,
        so it records those phases by timestamp and parents them under
        ``parent`` (the request's :class:`TraceContext`) rather than the
        local span stack.  Returns the recorded span's context (None
        when the tracer is disabled).
        """
        if not self.enabled:
            return None
        ctx = None
        if parent is not None:
            ctx = TraceContext(trace_id=parent.trace_id,
                               span_id=self._next_span_id(),
                               parent_id=parent.span_id)
        record = {
            "name": name,
            "start": start,
            "end": end,
            "depth": 0,
            "parent": None,
            "tid": threading.get_ident(),
            "args": args,
            "trace_id": ctx.trace_id if ctx else None,
            "span_id": ctx.span_id if ctx else None,
            "parent_id": ctx.parent_id if ctx else None,
        }
        self.spans.append(record)
        return ctx

    def _stack_for_thread(self) -> list:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return stack

    def _record(self, span: _Span, end: float) -> None:
        ctx = span.ctx
        record = {
            "name": span.name,
            "start": span.start,
            "end": end,
            "depth": span.depth,
            "parent": span.parent,
            "tid": span.tid,
            "args": span.args,
            "trace_id": ctx.trace_id if ctx else None,
            "span_id": ctx.span_id if ctx else None,
            "parent_id": ctx.parent_id if ctx else None,
        }
        self.spans.append(record)

    def reset(self) -> None:
        self.spans.clear()
        self._stacks.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome(self) -> dict:
        """The trace as a Chrome trace-event JSON object.

        Complete ("X") events carry microsecond ``ts``/``dur`` on the
        shared ``perf_counter`` timeline; viewers only use differences,
        so the arbitrary epoch is irrelevant.
        """
        return self._chrome_from(self.spans)

    def _span_event(self, rec: dict) -> dict:
        # dur from the truncated endpoints (not the float difference)
        # so nesting survives integer conversion: a child's [ts, ts+dur]
        # stays inside its parent's.
        ts = int(rec["start"] * 1e6)
        args = rec["args"]
        if rec.get("trace_id") is not None:
            args = dict(args, trace_id=rec["trace_id"],
                        span_id=rec["span_id"], parent_id=rec["parent_id"])
        return {
            "name": rec["name"],
            "cat": "repro",
            "ph": "X",
            "ts": ts,
            "dur": max(int(rec["end"] * 1e6) - ts, 1),
            "pid": self._pid,
            "tid": rec["tid"],
            "args": args,
        }

    def _chrome_from(self, spans: list) -> dict:
        events = [self._span_event(rec) for rec in spans]
        events.sort(key=lambda e: e["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def trace_slice(self, trace_id: str) -> dict:
        """One trace's spans as a self-contained Chrome trace object.

        Filters the completed-span record to ``trace_id`` (spans from
        any thread — the handler's root plus the decode loop's phases)
        and returns ``{"traceEvents": [...], "trace_id": ...}``.  The
        serving layer exposes this as ``GET /v1/trace?id=<trace_id>``.
        """
        spans = [rec for rec in list(self.spans)
                 if rec.get("trace_id") == trace_id]
        chrome = self._chrome_from(spans)
        chrome["trace_id"] = trace_id
        return chrome

    def write_chrome(self, path) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as f:
            json.dump(self.to_chrome(), f, indent=1, default=float)
            f.write("\n")


NULL_TRACER = Tracer(enabled=False)
