"""Prometheus text exposition of a :class:`MetricsRegistry`.

Turns the registry's counters/gauges/histograms into the Prometheus
text exposition format (version 0.0.4) that any Prometheus-compatible
scraper accepts, with nothing beyond the standard library.  The serving
layer mounts the result at ``GET /metrics``, which makes a live
``InferenceServer`` scrapeable while it runs — the missing half of the
PR 2 telemetry story, where metrics only left the process as a
post-hoc JSON snapshot.

Mapping rules:

- Metric names are sanitized to ``[a-zA-Z_:][a-zA-Z0-9_:]*`` (the
  registry's dotted names become underscores: ``engine.steps`` →
  ``engine_steps``).
- :class:`~repro.obs.metrics.Counter` series gain the conventional
  ``_total`` suffix and ``TYPE counter``.
- :class:`~repro.obs.metrics.Gauge` series are emitted as-is with
  ``TYPE gauge``.
- :class:`~repro.obs.metrics.Histogram` series become full histogram
  families: cumulative ``_bucket{le="..."}`` lines over
  :data:`DEFAULT_BUCKETS` (estimated from the deterministic decimated
  sample, pinned so ``le="+Inf"`` equals the exact count), plus exact
  ``_sum`` and ``_count`` lines.
- ``labels`` are attached to every sample line, with label values
  escaped per the spec (backslash, double quote, newline).
"""

from __future__ import annotations

import math
import re

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

# Prometheus' client-library default latency buckets (seconds).
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0)


def sanitize_name(name: str) -> str:
    """Metric name mangled into the Prometheus-legal character set."""
    name = _NAME_BAD_CHARS.sub("_", name)
    if not name or not _NAME_OK.match(name):
        name = "_" + name
    return name


def escape_label_value(value: str) -> str:
    """Label value with backslash, double-quote, and newline escaped."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def format_value(value: float) -> str:
    """A sample value in exposition syntax (+Inf/-Inf/NaN spelled out)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{sanitize_name(k)}="{escape_label_value(v)}"'
                     for k, v in labels.items())
    return "{" + inner + "}"


def _merge(labels: dict | None, extra: dict) -> dict:
    merged = dict(labels or {})
    merged.update(extra)
    return merged


def to_prometheus(registry, labels: dict | None = None) -> str:
    """The registry rendered as Prometheus text exposition format.

    Parameters
    ----------
    registry:
        A :class:`~repro.obs.metrics.MetricsRegistry` (or the null
        registry, which renders as an empty exposition).  Series with a
        reader read their owner here, on the calling thread.
    labels:
        Constant labels stamped on every sample line (e.g.
        ``{"job": "repro-serve"}``); values are escaped per the spec.

    Returns the full exposition body, terminated by a newline.
    """
    from .metrics import Counter, Gauge, Histogram

    lines: list[str] = []
    for name in registry.names():
        metric = registry.get(name)
        base = sanitize_name(name)
        if isinstance(metric, Counter):
            out = base if base.endswith("_total") else base + "_total"
            lines.append(f"# TYPE {out} counter")
            lines.append(f"{out}{_label_str(labels)} "
                         f"{format_value(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base}{_label_str(labels)} "
                         f"{format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {base} histogram")
            for bound, cumulative in zip(
                    DEFAULT_BUCKETS, metric.bucket_counts(DEFAULT_BUCKETS)):
                bucket_labels = _merge(labels, {"le": format_value(bound)})
                lines.append(f"{base}_bucket{_label_str(bucket_labels)} "
                             f"{cumulative}")
            inf_labels = _merge(labels, {"le": "+Inf"})
            lines.append(f"{base}_bucket{_label_str(inf_labels)} "
                         f"{metric.count}")
            lines.append(f"{base}_sum{_label_str(labels)} "
                         f"{format_value(metric.total)}")
            lines.append(f"{base}_count{_label_str(labels)} {metric.count}")
    return "\n".join(lines) + "\n" if lines else "\n"


CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
