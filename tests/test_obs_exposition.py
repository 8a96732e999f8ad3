"""Prometheus text exposition format: mapping, escaping, validity.

``repro.obs.exposition`` is what ``GET /metrics`` serves, so its output
must be accepted by any Prometheus-compatible scraper.  These tests
pin the mapping rules (counter ``_total`` suffixes, gauge passthrough,
histogram ``_bucket``/``_sum``/``_count`` families) and run every
exposition through :func:`parse_exposition` — a strict text-format
parser that raises on anything malformed — so "a parser accepts it" is
a tested property, not a hope.
"""

import math
import re

import pytest

from repro.obs import MetricsRegistry
from repro.obs.exposition import (
    DEFAULT_BUCKETS,
    escape_label_value,
    format_value,
    sanitize_name,
    to_prometheus,
)

NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
SAMPLE_RE = re.compile(
    rf"^({NAME_RE})(\{{(.*)\}})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$")
LABEL_RE = re.compile(rf'({NAME_RE})="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> dict:
    """Strict parse of the text exposition format; raises on violations.

    Returns ``{metric_base_name: {"type": ..., "samples": [(name,
    labels, value), ...]}}``.  Enforces: newline-terminated body, TYPE
    declared before its samples, legal sample-line syntax, and numeric
    values.
    """
    if not text.endswith("\n"):
        raise ValueError("exposition must end with a newline")
    families: dict = {}
    declared: dict = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ValueError(f"bad TYPE: {line!r}")
            declared[name] = kind
            families.setdefault(name, {"type": kind, "samples": []})
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("#"):
            raise ValueError(f"unknown comment line: {line!r}")
        match = SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed sample line: {line!r}")
        name, _, labels_raw, value = match.groups()
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        owner = base if base in declared else name
        if owner not in declared:
            raise ValueError(f"sample {name!r} before its TYPE line")
        labels = dict(LABEL_RE.findall(labels_raw)) if labels_raw else {}
        if value not in ("+Inf", "-Inf", "NaN"):
            float(value)
        families[owner]["samples"].append((name, labels, value))
    return families


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestNameAndValueRules:
    def test_dotted_names_sanitized(self):
        assert sanitize_name("engine.queue_wait.seconds") == \
            "engine_queue_wait_seconds"

    def test_leading_digit_prefixed(self):
        assert sanitize_name("9lives")[0] not in "0123456789"

    def test_label_value_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_format_value_specials(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(float("nan")) == "NaN"
        assert format_value(3.0) == "3"
        assert float(format_value(0.25)) == 0.25


class TestCounterGaugeMapping:
    def test_counter_total_suffix_and_type(self, registry):
        registry.counter("engine.steps").inc(41)
        registry.counter("engine.steps").inc()
        text = to_prometheus(registry)
        families = parse_exposition(text)
        assert families["engine_steps_total"]["type"] == "counter"
        ((name, labels, value),) = families["engine_steps_total"]["samples"]
        assert name == "engine_steps_total" and value == "42"

    def test_counter_already_suffixed_not_doubled(self, registry):
        registry.counter("requests_total").inc(3)
        text = to_prometheus(registry)
        assert "requests_total_total" not in text
        assert "requests_total 3" in text

    def test_gauge_type_and_negative_value(self, registry):
        registry.gauge("queue.depth").set(-2)
        families = parse_exposition(to_prometheus(registry))
        assert families["queue_depth"]["type"] == "gauge"
        assert families["queue_depth"]["samples"][0][2] == "-2"

    def test_constant_labels_on_every_line(self, registry):
        registry.counter("a").inc()
        registry.gauge("b").set(1)
        text = to_prometheus(registry, labels={"job": 'we"ird\njob'})
        for _, labels, _ in (s for fam in parse_exposition(text).values()
                             for s in fam["samples"]):
            assert labels["job"] == 'we\\"ird\\njob'


class TestHistogramMapping:
    def test_bucket_lines_cumulative_and_pinned(self, registry):
        hist = registry.histogram("ttft.seconds")
        for value in (0.001, 0.003, 0.02, 0.07, 0.9, 3.0, 20.0):
            hist.observe(value)
        families = parse_exposition(to_prometheus(registry))
        family = families["ttft_seconds"]
        assert family["type"] == "histogram"
        buckets = [(labels["le"], int(value)) for name, labels, value
                   in family["samples"] if name.endswith("_bucket")]
        # one line per default bound plus +Inf, in ascending order
        assert [le for le, _ in buckets] == \
            [format_value(b) for b in DEFAULT_BUCKETS] + ["+Inf"]
        counts = [c for _, c in buckets]
        assert counts == sorted(counts)          # cumulative => monotone
        assert counts[-1] == hist.count          # +Inf pinned to exact count
        (sum_line,) = [v for n, _, v in family["samples"]
                       if n.endswith("_sum")]
        (count_line,) = [v for n, _, v in family["samples"]
                         if n.endswith("_count")]
        assert math.isclose(float(sum_line), hist.total)
        assert int(count_line) == hist.count

    def test_empty_histogram_all_zero(self, registry):
        registry.histogram("empty.seconds")
        families = parse_exposition(to_prometheus(registry))
        for name, _, value in families["empty_seconds"]["samples"]:
            assert float(value) == 0.0

    def test_bucket_estimates_scale_to_total_count(self, registry):
        # Decimation keeps only a sample; cumulative estimates must still
        # be in true-count units, not sample units.
        hist = registry.histogram("big.seconds")
        for i in range(10000):
            hist.observe(i / 1000.0)  # ramp over [0, 10)
        counts = hist.bucket_counts([5.0, 10.0])
        assert counts[1] == 10000
        assert abs(counts[0] - 5000) < 500


class TestWholeExposition:
    def test_empty_registry_still_valid(self, registry):
        parse_exposition(to_prometheus(registry))

    def test_mixed_registry_round_trip(self, registry):
        registry.counter("serve.accepted").inc(7)
        registry.gauge("engine.active_slots").set(3)
        registry.histogram("engine.ttft_seconds").observe(0.05)
        families = parse_exposition(to_prometheus(registry))
        assert set(families) == {"serve_accepted_total",
                                 "engine_active_slots",
                                 "engine_ttft_seconds"}
