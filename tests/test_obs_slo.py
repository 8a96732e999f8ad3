"""SLO monitor and flight recorder unit tests.

``SLOMonitor`` drives ``GET /healthz``'s three-state verdict, so the
transition logic (ok → degraded → failing and back), the sliding-window
semantics, and the breach/recovery events are all pinned here.
``FlightRecorder`` is the crash blackbox; the bound on what it dumps
from the attached telemetry, and its dump format, are pinned likewise.
HTTP-level integration of both lives in ``tests/test_serve.py``.
"""

import json
import threading

import pytest

from repro.obs import (
    EventLog,
    FlightRecorder,
    Observability,
    SLOMonitor,
    SLOThresholds,
)
from repro.obs.slo import STATUS_DEGRADED, STATUS_FAILING, STATUS_OK


class TestSLOVerdict:
    def test_empty_window_is_ok(self):
        monitor = SLOMonitor()
        verdict = monitor.evaluate()
        assert verdict["status"] == STATUS_OK
        assert verdict["breached"] == []
        assert verdict["window_size"] == 0

    def test_one_breached_signal_is_degraded(self):
        monitor = SLOMonitor(SLOThresholds(ttft_p99_s=0.1, min_requests=1))
        monitor.observe_request(ttft_s=5.0)
        verdict = monitor.evaluate()
        assert verdict["status"] == STATUS_DEGRADED
        assert verdict["breached"] == ["ttft_p99_s"]
        assert verdict["signals"]["ttft_p99_s"]["value"] == 5.0

    def test_two_breached_signals_is_failing(self):
        monitor = SLOMonitor(SLOThresholds(
            ttft_p99_s=0.1, max_error_rate=0.0, min_requests=1))
        monitor.observe_request(ttft_s=5.0)
        monitor.observe_request(error=True)
        verdict = monitor.evaluate()
        assert verdict["status"] == STATUS_FAILING
        assert verdict["breached"] == ["error_rate", "ttft_p99_s"]

    def test_min_requests_gates_rate_signals(self):
        monitor = SLOMonitor(SLOThresholds(
            max_shed_rate=0.0, min_requests=3))
        monitor.observe_request(shed=True)
        monitor.observe_request(shed=True)
        assert monitor.status == STATUS_OK  # window too small to judge
        monitor.observe_request(shed=True)
        assert monitor.status == STATUS_DEGRADED

    def test_queue_depth_signal_not_gated(self):
        monitor = SLOMonitor(SLOThresholds(max_queue_depth=4))
        monitor.observe_queue_depth(5)
        assert monitor.status == STATUS_DEGRADED
        monitor.observe_queue_depth(2)
        assert monitor.status == STATUS_OK

    def test_none_threshold_disables_signal(self):
        monitor = SLOMonitor(SLOThresholds(
            ttft_p99_s=None, max_shed_rate=None, max_error_rate=None,
            max_queue_depth=None, min_requests=1))
        monitor.observe_request(ttft_s=1e9, shed=True, error=True)
        monitor.observe_queue_depth(10**9)
        assert monitor.status == STATUS_OK

    def test_window_evicts_old_observations(self):
        monitor = SLOMonitor(SLOThresholds(max_error_rate=0.0,
                                           min_requests=1), window=4)
        monitor.observe_request(error=True)
        assert monitor.status == STATUS_DEGRADED
        for _ in range(4):  # push the error out of the ring
            monitor.observe_request(ttft_s=0.01)
        verdict = monitor.evaluate()
        assert verdict["status"] == STATUS_OK
        assert verdict["window_size"] == 4

    def test_p99_interpolates(self):
        values = [float(i) for i in range(1, 101)]
        assert SLOMonitor._p99(values) == pytest.approx(99.01)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SLOMonitor(window=0)


class TestSLOEvents:
    def test_breach_and_recovery_emit_once_per_transition(self):
        log = EventLog()
        monitor = SLOMonitor(SLOThresholds(max_error_rate=0.0,
                                           min_requests=1),
                             window=4, events=log)
        monitor.observe_request(error=True)
        monitor.observe_request(error=True)  # still degraded: no new event
        for _ in range(4):
            monitor.observe_request(ttft_s=0.01)
        names = [record["event"] for record in log.records]
        assert names == ["slo_breach", "slo_recovered"]
        assert log.records[0]["status"] == STATUS_DEGRADED
        assert log.records[0]["signals"] == ["error_rate"]
        assert log.records[1]["previous"] == STATUS_DEGRADED

    def test_escalation_emits_second_breach(self):
        log = EventLog()
        monitor = SLOMonitor(SLOThresholds(
            ttft_p99_s=0.1, max_error_rate=0.0, min_requests=1),
            events=log)
        monitor.observe_request(ttft_s=5.0)   # ok -> degraded
        monitor.observe_request(error=True)   # degraded -> failing
        statuses = [record["status"] for record in log.records]
        assert statuses == [STATUS_DEGRADED, STATUS_FAILING]


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        obs = Observability.standard()
        recorder = FlightRecorder(capacity=3).attach(obs)
        for i in range(10):
            obs.events.emit(f"e{i}")
            with obs.tracer.span(f"s{i}"):
                pass
        snap = recorder.snapshot()
        assert [e["event"] for e in snap["events"]] == ["e7", "e8", "e9"]
        assert [s["name"] for s in snap["spans"]] == ["s7", "s8", "s9"]

    def test_attach_captures_events_and_spans(self, tmp_path):
        obs = Observability.standard()
        recorder = FlightRecorder(path=tmp_path / "fr.json").attach(obs)
        obs.events.emit("hello", x=1)
        with obs.tracer.span("work"):
            pass
        snap = recorder.snapshot()
        assert snap["events"][0]["event"] == "hello"
        assert snap["spans"][0]["name"] == "work"

    def test_record_crash_dumps_blackbox(self, tmp_path):
        path = tmp_path / "flightrecord.json"
        obs = Observability.standard()
        recorder = FlightRecorder(path=path, capacity=8).attach(obs)
        obs.events.emit("before")
        out = recorder.record_crash(RuntimeError("boom"), request_id=7)
        assert out == str(path)
        assert recorder.dumps == 1
        record = json.loads(path.read_text())
        assert record["reason"] == "crash"
        assert "boom" in record["error"]
        assert record["request_id"] == 7
        names = [e["event"] for e in record["events"]]
        assert names == ["before", "crash"]

    def test_dump_manual_reason_and_capacity(self, tmp_path):
        path = tmp_path / "fr.json"
        recorder = FlightRecorder(path=path, capacity=5)
        recorder.dump()
        record = json.loads(path.read_text())
        assert record["reason"] == "manual"
        assert record["capacity"] == 5

    def test_thread_safe_recording(self, tmp_path):
        obs = Observability.standard()
        recorder = FlightRecorder(path=tmp_path / "fr.json",
                                  capacity=64).attach(obs)

        def spin(tag):
            for i in range(100):
                obs.events.emit(f"{tag}{i}")

        threads = [threading.Thread(target=spin, args=(t,))
                   for t in "abcd"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(recorder.snapshot()["events"]) == 64

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
