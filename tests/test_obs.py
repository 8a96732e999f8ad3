"""Unit tests for repro.obs: metrics, tracing, events, profiler, bundle,
and the instrumentation hooks in the trainer and generation engine."""

import threading
import json

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import TransformerConfig, TransformerLM
from repro.infer import GenerationEngine, SamplingParams
from repro.lm import FFNLM, make_windows
from repro.nn import Adam
from repro.obs import (
    NULL_EVENTS,
    NULL_METRICS,
    NULL_OBS,
    NULL_TRACER,
    EventLog,
    MetricsRegistry,
    Observability,
    Profiler,
    Tracer,
    parameter_bytes,
)
from repro.train import Trainer


class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("steps")
        c.inc()
        c.inc(4)
        assert c.value == 5.0
        assert reg.counter("steps") is c  # get-or-create shares by name
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = MetricsRegistry().gauge("loss")
        g.set(3.5)
        assert g.value == 3.5

    def test_histogram_exact_stats(self):
        h = MetricsRegistry().histogram("lat")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.min == 1.0 and h.max == 4.0
        assert h.mean == 2.5
        assert h.percentile(0.0) == 1.0
        assert h.percentile(1.0) == 4.0
        assert h.percentile(0.5) == 2.5  # linear interpolation
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_histogram_decimation_keeps_exact_aggregates(self):
        from repro.obs.metrics import Histogram

        h = Histogram("lat", max_samples=8)
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100
        assert h.total == float(sum(range(100)))
        assert h.min == 0.0 and h.max == 99.0
        assert len(h._samples) <= 8
        # percentiles stay approximately right on the decimated sample
        assert h.percentile(0.5) == pytest.approx(50.0, abs=15.0)

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.histogram("b").observe(1.0)
        snap = reg.snapshot()
        assert snap["a"] == {"type": "counter", "value": 2.0}
        assert snap["b"]["type"] == "histogram" and snap["b"]["count"] == 1
        assert json.loads(json.dumps(snap)) == snap  # JSON-ready
        assert reg.names() == ["a", "b"] and "a" in reg

    def test_empty_histogram_snapshot(self):
        snap = MetricsRegistry().histogram("empty").snapshot()
        assert snap == {"type": "histogram", "count": 0}

    def test_reader_series_read_their_owner(self):
        from repro.obs import to_prometheus

        reg = MetricsRegistry()
        owner = {"done": 1, "depth": 0}
        reg.counter("done", read=lambda: owner["done"])
        reg.gauge("depth", read=lambda: owner["depth"])
        owner.update(done=5, depth=2)       # read at snapshot, not copied
        assert reg.snapshot() == {"depth": {"type": "gauge", "value": 2.0},
                                  "done": {"type": "counter", "value": 5.0}}
        assert "done_total 5\n" in to_prometheus(reg)
        assert reg.counter("done").value == 5.0   # lookup keeps the reader
        reg.counter("done", read=lambda: 7)       # a newer owner replaces it
        assert reg.snapshot()["done"]["value"] == 7.0
        with pytest.raises(TypeError):
            reg.gauge("done", read=lambda: 1)

    def test_null_metrics_absorbs_everything(self):
        c = NULL_METRICS.counter("whatever")
        c.inc()
        NULL_METRICS.gauge("g").set(1.0)
        NULL_METRICS.histogram("h").observe(2.0)
        NULL_METRICS.counter("read", read=lambda: 1)
        assert NULL_METRICS.snapshot() == {}
        assert "whatever" not in NULL_METRICS


class TestTracer:
    def test_span_nesting_recorded(self):
        t = Tracer()
        with t.span("outer", step=1):
            with t.span("inner"):
                pass
        assert [s["name"] for s in t.spans] == ["inner", "outer"]  # completion order
        inner, outer = t.spans
        assert inner["depth"] == outer["depth"] + 1
        assert inner["parent"] == "outer" and outer["parent"] is None
        # child interval lies within the parent interval
        assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
        assert outer["args"] == {"step": 1}

    def test_chrome_export_round_trips(self, tmp_path):
        t = Tracer()
        with t.span("a"):
            sum(range(1000))  # give the spans measurable (>1us) width
            with t.span("b"):
                sum(range(1000))
        path = tmp_path / "trace.json"
        t.write_chrome(path)
        trace = json.loads(path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert {e["name"] for e in events} == {"a", "b"}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        for e in complete:
            assert isinstance(e["ts"], int) and isinstance(e["dur"], int)
            assert e["dur"] >= 1
        by_name = {e["name"]: e for e in complete}
        # nesting survives the microsecond conversion: b inside a
        a, b = by_name["a"], by_name["b"]
        assert a["ts"] <= b["ts"] and b["ts"] + b["dur"] <= a["ts"] + a["dur"]
        assert events == sorted(events, key=lambda e: e["ts"])

    def test_total_seconds_and_reset(self):
        t = Tracer(clock=iter([0.0, 1.0, 2.0, 5.0]).__next__)
        with t.span("work"):
            pass
        with t.span("work"):
            pass
        assert sum(s["end"] - s["start"] for s in t.spans) == \
            pytest.approx(4.0)
        t.reset()
        assert t.spans == []

    def test_disabled_tracer_records_nothing(self):
        with NULL_TRACER.span("x", arg=1):
            pass
        assert NULL_TRACER.spans == []
        # shared no-op span object: no per-call allocation
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestEventLog:
    def test_emit_and_filter(self):
        log = EventLog()
        log.emit("step", loss=1.0)
        log.emit("eval", acc=0.5)
        log.emit("step", loss=0.5)
        assert len(log) == 3
        assert [r["loss"] for r in log.of_type("step")] == [1.0, 0.5]
        assert all("t" in r for r in log.records)

    def test_jsonl_write(self, tmp_path):
        log = EventLog()
        log.emit("a", x=1)
        log.emit("b", y=[1, 2])
        path = tmp_path / "events.jsonl"
        log.write(path)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["a", "b"]

    def test_streaming_path(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with EventLog(path=path) as log:
            log.emit("one", n=1)
            log.emit("two", n=2)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["n"] for r in records] == [1, 2]

    def test_disabled_is_noop(self):
        assert NULL_EVENTS.emit("x", a=1) is None
        assert len(NULL_EVENTS) == 0

    def test_close_releases_file_handle(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path)
        log.emit("one", n=1)
        log.close()
        assert log._fh is None
        log.emit("two", n=2)  # reopens in append mode; nothing is lost
        log.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["n"] for r in records] == [1, 2]

    def test_fsync_emits_are_durable_per_record(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path, fsync=True)
        log.emit("one", n=1)
        # no flush/close: the line must already be on disk
        assert json.loads(path.read_text())["n"] == 1
        log.close()

    def test_concurrent_emit_never_interleaves_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path)
        payload = "x" * 256

        def spin(tag):
            for i in range(200):
                log.emit("spin", tag=tag, i=i, pad=payload)

        threads = [threading.Thread(target=spin, args=(t,))
                   for t in "abcd"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 800
        for line in lines:  # every line is one complete JSON object
            record = json.loads(line)
            assert record["pad"] == payload
        assert len(log) == 800


def _tiny_transformer():
    cfg = TransformerConfig(vocab_size=16, max_seq_len=16, d_model=16,
                            num_heads=2, num_layers=2)
    return TransformerLM(cfg, rng=0)


class TestProfiler:
    def _step(self, model):
        x = np.array([[1, 2, 3, 4]])
        y = np.array([[2, 3, 4, 5]])
        model.zero_grad()
        loss = model.loss(x, y)
        loss.backward()
        return float(loss.data)

    def test_per_module_stats(self):
        model = _tiny_transformer()
        prof = Profiler()
        with prof.profile(model):
            self._step(model)
        root = prof.stats["model"]
        assert root.calls >= 1
        assert root.forward_s > 0.0
        assert root.forward_s >= root.self_s >= 0.0
        assert root.param_count == model.num_parameters()
        assert root.param_bytes == parameter_bytes(model)
        # submodules were discovered and their names are dotted paths
        assert any(label.startswith("model.") for label in prof.stats)
        # arrays are charged to the innermost module that made them, so
        # the total across modules is what must be positive
        assert sum(s.activation_bytes for s in prof.stats.values()) > 0
        # backward time landed somewhere (per-module or unattributed)
        total_bwd = (sum(s.backward_s for s in prof.stats.values())
                     + prof.unattributed_backward_s)
        assert total_bwd > 0.0

    def test_patches_fully_restored(self):
        model = _tiny_transformer()
        orig_make = Tensor._make
        orig_pass_down = Tensor._pass_down
        with Profiler().profile(model):
            self._step(model)
        assert Tensor._make is orig_make
        assert Tensor._pass_down is orig_pass_down
        # no instance-level forward shadows remain
        for _, module in model.named_modules():
            assert "forward" not in vars(module)

    def test_profiled_run_bit_identical(self):
        model = _tiny_transformer()
        bare = self._step(model)
        with Profiler().profile(model):
            profiled = self._step(model)
        assert profiled == bare
        assert self._step(model) == bare  # and after detach

    def test_double_attach_rejected(self):
        a, b = _tiny_transformer(), _tiny_transformer()
        prof = Profiler()
        with prof.profile(a):
            with pytest.raises(RuntimeError):
                Profiler()._attach(b, "other")

    def test_summary_and_report(self):
        model = _tiny_transformer()
        prof = Profiler()
        with prof.profile(model):
            self._step(model)
        summary = prof.summary()
        assert json.loads(json.dumps(summary)) == summary
        assert "<unattributed backward>" in summary
        assert summary["model"]["calls"] >= 1
        report = prof.report()
        assert "model" in report and "fwd s" in report
        prof.reset()
        assert prof.stats == {} and prof.unattributed_backward_s == 0.0


class TestObservabilityBundle:
    def test_null_bundle_disabled(self):
        assert not NULL_OBS.enabled
        assert Observability().enabled is False

    def test_standard_bundle_enabled(self):
        obs = Observability.standard()
        assert obs.enabled
        assert obs.tracer is not NULL_TRACER
        assert obs.metrics.snapshot() == {}

    def test_write_artifacts(self, tmp_path):
        obs = Observability.standard()
        with obs.tracer.span("x"):
            pass
        obs.metrics.counter("n").inc()
        obs.events.emit("e", k=1)
        paths = obs.write_artifacts(tmp_path / "out")
        assert set(paths) == {"trace", "metrics", "events"}
        trace = json.loads(open(paths["trace"]).read())
        assert trace["traceEvents"][0]["name"] == "x"
        metrics = json.loads(open(paths["metrics"]).read())
        assert metrics["n"]["value"] == 1.0
        events = [json.loads(line) for line in open(paths["events"])]
        assert events[0]["event"] == "e"

    def test_write_artifacts_skips_disabled(self, tmp_path):
        obs = Observability(metrics=MetricsRegistry())  # tracer/events off
        assert obs.enabled
        paths = obs.write_artifacts(tmp_path)
        assert set(paths) == {"metrics"}


class TestTrainerInstrumentation:
    def _setup(self):
        rng = np.random.default_rng(0)
        stream = np.array([0, 1, 2, 3] * 100)
        lm = FFNLM(4, window=2, embed_dim=8, hidden_dim=16, rng=0)
        ctx, tgt = make_windows(stream, 2)

        def batch_fn(step):
            idx = rng.integers(0, len(tgt), size=16)
            return ctx[idx], tgt[idx]

        return lm, batch_fn

    def test_metrics_spans_events(self):
        lm, batch_fn = self._setup()
        obs = Observability.standard()
        trainer = Trainer(lm, Adam(lm.parameters(), lr=1e-2), batch_fn, obs=obs)
        history = trainer.run(5)

        snap = obs.metrics.snapshot()
        assert snap["train.steps"]["value"] == 5.0
        assert snap["train.tokens"]["value"] == 5 * 16
        assert snap["train.step_seconds"]["count"] == 5
        assert snap["train.loss"]["value"] == history.final_loss

        names = {s["name"] for s in obs.tracer.spans}
        assert {"train.run", "train.step", "train.forward",
                "train.backward", "train.optimizer"} <= names
        steps = [s for s in obs.tracer.spans if s["name"] == "train.step"]
        assert len(steps) == 5 and all(s["parent"] == "train.run" for s in steps)

        step_events = obs.events.of_type("train_step")
        assert len(step_events) == 5
        first = step_events[0]
        assert first["loss"] == history.losses[0]
        assert first["tokens"] == 16
        assert first["grad_norm"] is not None  # obs on -> norm computed
        assert first["flops_per_sec"] > 0
        # obs on also means grad norms land in the history
        assert len(history.grad_norms) == 5

    def test_instrumented_loss_trajectory_identical(self):
        lm_a, batch_a = self._setup()
        bare = Trainer(lm_a, Adam(lm_a.parameters(), lr=1e-2), batch_a).run(5)
        lm_b, batch_b = self._setup()
        obs = Observability.standard()
        instrumented = Trainer(lm_b, Adam(lm_b.parameters(), lr=1e-2),
                               batch_b, obs=obs).run(5)
        assert instrumented.losses == bare.losses


class TestEngineInstrumentation:
    def _model(self):
        cfg = TransformerConfig(vocab_size=32, max_seq_len=32, d_model=16,
                                num_heads=2, num_layers=1)
        return TransformerLM(cfg, rng=0)

    def test_request_timing_ordering(self):
        model = self._model()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True))
        for prompt in ([1, 2], [3, 4], [5, 6]):
            engine.submit(prompt, 6)
        results = engine.run()
        assert len(results) == 3
        for r in results:
            t = r.timing
            assert t.submitted <= t.admitted <= t.first_token <= t.finished
            assert t.new_tokens == 6
            assert t.queue_wait_s >= 0 and t.prefill_s > 0 and t.decode_s >= 0
            assert t.ttft_s > 0 and t.tokens_per_sec > 0
        # third request had to wait for a slot on a 2-slot engine
        assert results[2].timing.queue_wait_s > 0

    def test_zero_token_request_timing(self):
        engine = GenerationEngine(self._model(), batch_size=1)
        engine.submit([1, 2, 3], 0)
        (result,) = engine.run()
        assert result.timing.new_tokens == 0
        assert result.timing.tokens_per_sec == 0.0

    def test_stats_snapshot(self):
        model = self._model()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True))
        for prompt in ([1, 2], [3, 4]):
            engine.submit(prompt, 5)
        engine.run()
        stats = engine.stats()
        assert stats["batch_size"] == 2
        assert stats["active_slots"] == 0 and stats["queue_depth"] == 0
        assert stats["requests_submitted"] == 2
        assert stats["requests_completed"] == 2
        assert stats["sampled_tokens"] == 10
        assert stats["total_steps"] > 0
        assert 0.0 < stats["occupancy"] <= 1.0
        # both slots equally loaded the whole run -> full occupancy
        assert stats["occupancy"] == 1.0

    def test_obs_emits_lifecycle(self):
        model = self._model()
        obs = Observability.standard()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True), obs=obs)
        for prompt in ([1, 2], [3, 4], [5, 6]):
            engine.submit(prompt, 4)
        engine.run()
        assert len(obs.events.of_type("request_submitted")) == 3
        assert len(obs.events.of_type("request_admitted")) == 3
        assert len(obs.events.of_type("request_finished")) == 3
        snap = obs.metrics.snapshot()
        assert snap["engine.steps"]["value"] == engine.total_steps
        assert snap["engine.sampled_tokens"]["value"] == 12
        assert snap["engine.ttft_seconds"]["count"] == 3
        assert all(s["name"] == "engine.step" for s in obs.tracer.spans)
        assert len(obs.tracer.spans) == engine.total_steps

    def test_instrumented_engine_bit_identical(self):
        model = self._model()
        prompt = [2, 4, 6]
        ref = model.generate_fast(prompt, 10, rng=np.random.default_rng(7),
                                  temperature=0.9)
        obs = Observability.standard()
        engine = GenerationEngine(model, batch_size=1,
                                  rng=np.random.default_rng(7),
                                  params=SamplingParams(temperature=0.9),
                                  obs=obs)
        engine.submit(prompt, 10)
        (result,) = engine.run()
        assert result.tokens == ref
