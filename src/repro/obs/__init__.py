"""Telemetry for training, inference, and benches — the "measure first" layer.

The paper's phenomenology is entirely quantitative (loss curves, the
``C ~ 6PD`` compute accounting of §3/§6, tokens/sec); this package is
how the repo actually measures those quantities at runtime, with zero
dependencies beyond the standard library:

- :mod:`repro.obs.metrics` — counters/gauges/histograms, pushed or read
  from the object that keeps the count (the serving engine and worker
  register readers), with a JSON-ready
  :meth:`~metrics.MetricsRegistry.snapshot`.
- :mod:`repro.obs.tracing` — nested ``perf_counter`` spans exported as
  Chrome trace-event JSON (open in ``chrome://tracing`` / Perfetto).
- :mod:`repro.obs.events` — structured JSONL event log (one dict per
  train step / generation request).
- :mod:`repro.obs.profiler` — opt-in per-module forward/backward timing
  and array-``nbytes`` memory accounting, hooked into
  :class:`repro.nn.Module` and the autograd tape.
- :mod:`repro.obs.exposition` — Prometheus text exposition of the
  metrics registry (``GET /metrics`` on the serving layer).
- :mod:`repro.obs.slo` — sliding-window SLO evaluation (p99 TTFT, shed
  rate, error rate, queue depth) with a three-state
  ``ok|degraded|failing`` verdict and breach/recovery events.
- :mod:`repro.obs.flight` — crash flight recorder: dumps the newest
  events + spans of the bundle it is attached to as
  ``flightrecord.json`` when a serving process dies.

Request-scoped tracing crosses threads via
:class:`~repro.obs.tracing.TraceContext` (W3C ``traceparent``-style
ids): the serving layer mints one per HTTP request and the engine's
decode thread parents queue-wait/prefill/decode spans under it.

Everything is off by default.  Instrumented layers (:class:`Trainer`,
:class:`GenerationEngine`, the bench harness) accept an
:class:`Observability` bundle; passing ``None`` routes every hook to
shared null objects whose cost is a few no-op calls per *step* — noise
against a single matmul — and instrumentation never touches RNG streams,
so instrumented runs are bit-identical to bare ones.

Quick start::

    from repro.obs import Observability

    obs = Observability.standard()
    history = train_lm_on_stream(model, ids, num_steps=200, obs=obs)
    obs.tracer.write_chrome("trace.json")   # -> chrome://tracing
    print(obs.metrics.snapshot()["train.steps"])
"""

from __future__ import annotations

import json
import os

from .events import NULL_EVENTS, EventLog
from .exposition import to_prometheus
from .flight import FlightRecorder
from .metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from .profiler import ModuleStats, Profiler, parameter_bytes
from .slo import SLOMonitor, SLOThresholds
from .tracing import NULL_TRACER, TraceContext, Tracer


class Observability:
    """Bundle of tracer + metrics + event log threaded through the stack.

    Any component may be omitted; omitted components are replaced by the
    shared null objects, so instrumented code calls them unconditionally.
    """

    __slots__ = ("tracer", "metrics", "events")

    def __init__(self, tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 events: EventLog | None = None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.events = events if events is not None else NULL_EVENTS

    @classmethod
    def standard(cls, events_path=None) -> "Observability":
        """Everything on: fresh tracer + registry + in-memory event log.

        ``events_path`` streams the event log to disk as JSONL in
        addition to keeping it in memory.
        """
        return cls(
            tracer=Tracer(),
            metrics=MetricsRegistry(),
            events=EventLog(path=events_path),
        )

    @property
    def enabled(self) -> bool:
        return (self.tracer.enabled or self.events.enabled
                or not isinstance(self.metrics, NullMetrics))

    def write_artifacts(self, directory) -> dict[str, str]:
        """Dump trace.json / metrics.json / events.jsonl into ``directory``.

        Returns the paths written (only for enabled components).
        """
        os.makedirs(directory, exist_ok=True)
        paths: dict[str, str] = {}
        if self.tracer.enabled:
            paths["trace"] = os.path.join(directory, "trace.json")
            self.tracer.write_chrome(paths["trace"])
        if not isinstance(self.metrics, NullMetrics):
            paths["metrics"] = os.path.join(directory, "metrics.json")
            with open(paths["metrics"], "w") as f:
                json.dump(self.metrics.snapshot(), f, indent=2, default=float)
                f.write("\n")
        if self.events.enabled:
            paths["events"] = os.path.join(directory, "events.jsonl")
            self.events.write(paths["events"])
        return paths


NULL_OBS = Observability()

__all__ = [
    "Observability",
    "NULL_OBS",
    "Tracer",
    "TraceContext",
    "NULL_TRACER",
    "to_prometheus",
    "SLOMonitor",
    "SLOThresholds",
    "FlightRecorder",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "EventLog",
    "NULL_EVENTS",
    "Profiler",
    "ModuleStats",
    "parameter_bytes",
]
