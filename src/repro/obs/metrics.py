"""Metrics registry: counters, gauges, and histograms.

The registry is the numerical half of the telemetry layer: cheap
monotonic counters (steps, tokens), point-in-time gauges (loss, queue
depth), and histograms with exact count/mean/min/max plus approximate
percentiles.  Everything is plain Python — no background threads, no
locks, no dependencies — and :meth:`MetricsRegistry.snapshot` exports
one JSON-ready dict.

Instrumented code paths accept a registry or the :data:`NULL_METRICS`
sink; the null sink hands out no-op instruments so hot loops never
branch on "is telemetry on?".

A count its owner already keeps is read, not copied:
``counter(name, read=fn)`` and ``gauge(name, read=fn)`` register a
series whose value is ``fn()`` at snapshot and exposition time, so it
runs on the thread that reads the registry.
"""

from __future__ import annotations


class Counter:
    """Monotonically increasing count (events, tokens, steps)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written point-in-time value (loss, occupancy, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class _Read:
    """``value`` is the owner's ``read()``, called when it is read."""

    __slots__ = ()

    def __init__(self, name: str, read):
        self.name = name
        self._read = read

    value = property(lambda self: float(self._read()))


class _ReadCounter(_Read, Counter):
    __slots__ = ("_read",)


class _ReadGauge(_Read, Gauge):
    __slots__ = ("_read",)


class Histogram:
    """Distribution of observed values (step latencies, request sizes).

    Count/total/min/max are exact.  Percentiles come from a bounded
    sample: once ``max_samples`` values are stored, every other stored
    sample is dropped and only every ``stride``-th future observation is
    kept — deterministic (no RNG draw, so instrumented code cannot
    perturb seeded experiments) and memory-bounded.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_samples", "_stride", "_skip", "_max_samples")

    def __init__(self, name: str, max_samples: int = 4096):
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._stride = 1
        self._skip = 0
        self._max_samples = max_samples

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._skip:
            self._skip -= 1
            return
        self._samples.append(value)
        self._skip = self._stride - 1
        if len(self._samples) >= self._max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile of the stored sample, q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def bucket_counts(self, bounds: list[float]) -> list[int]:
        """Cumulative counts at each upper bound (Prometheus ``le`` style).

        Exact counts per bucket are not kept — only the decimated sample
        — so each bucket's cumulative count is estimated from the
        sample's empirical CDF scaled to the true total.  The estimate
        is deterministic, monotone non-decreasing, and pinned so that a
        final ``+Inf`` bucket equals :attr:`count` exactly, which is
        what the text exposition format requires.
        """
        if not self.count:
            return [0] * len(bounds)
        ordered = sorted(self._samples)
        counts = []
        for bound in bounds:
            covered = sum(1 for v in ordered if v <= bound)
            counts.append(round(self.count * covered / len(ordered)))
        return counts

    def snapshot(self) -> dict:
        if not self.count:
            return {"type": "histogram", "count": 0}
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named get-or-create store of metric instruments.

    ``counter("train.steps")`` returns the same :class:`Counter` on every
    call, so independently instrumented layers share series by name.
    ``counter(name, read=fn)`` (or ``gauge``) registers a series that
    reads its owner instead; registering the name again replaces the
    reader, so a registry shared by successive owners reads the newest.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls, reader=None, read=None):
        metric = self._metrics.get(name)
        if metric is not None and not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        if read is not None:
            metric = self._metrics[name] = reader(name, read)
        elif metric is None:
            metric = self._metrics[name] = cls(name)
        return metric

    def counter(self, name: str, read=None) -> Counter:
        return self._get(name, Counter, _ReadCounter, read)

    def gauge(self, name: str, read=None) -> Gauge:
        return self._get(name, Gauge, _ReadGauge, read)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        """The registered instrument for ``name``, or None."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """One JSON-ready dict of every registered series."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}


class _NullInstrument:
    """No-op stand-in for Counter/Gauge/Histogram on disabled paths."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class NullMetrics:
    """Registry lookalike whose instruments discard every update."""

    _instrument = _NullInstrument()

    def counter(self, name: str, read=None) -> _NullInstrument:
        return self._instrument

    def gauge(self, name: str, read=None) -> _NullInstrument:
        return self._instrument

    def histogram(self, name: str) -> _NullInstrument:
        return self._instrument

    def __contains__(self, name: str) -> bool:
        return False

    def get(self, name: str) -> None:
        return None

    def names(self) -> list[str]:
        return []

    def snapshot(self) -> dict:
        return {}


NULL_METRICS = NullMetrics()
