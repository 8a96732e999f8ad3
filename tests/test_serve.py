"""Serving-layer suite: worker concurrency, HTTP endpoints, admission.

Three layers under test, bottom up: :class:`EngineWorker` (the decode
loop that is the engine's one owner, running posted calls between
steps), admission control (shed / reject / timeout semantics), and the
HTTP front end (status codes, chunked streaming, stats).  The
load-level integrity story — zero lost or duplicated requests under
bursty arrivals — is exercised end-to-end by
``benchmarks/bench_serving.py --smoke`` via its own tier-1 test.
"""

import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro.core import TransformerConfig, TransformerLM
from repro.infer import GenerationEngine, SamplingParams
from repro.obs import (FlightRecorder, MetricsRegistry, Observability,
                       SLOMonitor, SLOThresholds)
from repro.train import faults
from repro.serve import (
    AdmissionPolicy,
    EngineWorker,
    InferenceServer,
    RejectError,
    ServeClient,
    ServeClientError,
    ShedError,
)


def tiny_model(**kwargs):
    cfg = TransformerConfig(vocab_size=11, max_seq_len=64, d_model=16,
                            num_heads=2, num_layers=2, **kwargs)
    return TransformerLM(cfg, rng=0)


class SlowModel:
    """decode_step with a fixed sleep: makes serving timing controllable."""

    def __init__(self, inner, delay_s):
        self._inner = inner
        self.delay_s = delay_s
        self.config = inner.config

    def decode_step(self, tokens, positions, states):
        time.sleep(self.delay_s)
        return self._inner.decode_step(tokens, positions, states)


class CountingModel:
    """decode_step that counts model steps: measures waits in steps."""

    def __init__(self, inner):
        self._inner = inner
        self.config = inner.config
        self.steps = 0

    def decode_step(self, tokens, positions, states):
        self.steps += 1
        return self._inner.decode_step(tokens, positions, states)


def record_callers(engine, names=("submit", "cancel", "step", "stats",
                                  "drain")):
    """Wrap engine methods to record which threads call each of them."""
    callers = {name: set() for name in names}
    for name in names:
        method = getattr(engine, name)

        def traced(*args, _name=name, _method=method, **kwargs):
            callers[_name].add(threading.get_ident())
            return _method(*args, **kwargs)

        setattr(engine, name, traced)
    return callers


class ReaderThreads(MetricsRegistry):
    """Registry that records the thread every series reader runs on."""

    def __init__(self):
        super().__init__()
        self.threads = set()

    def _traced(self, read):
        def traced():
            self.threads.add(threading.get_ident())
            return read()
        return traced if read is not None else None

    def counter(self, name, read=None):
        return super().counter(name, read=self._traced(read))

    def gauge(self, name, read=None):
        return super().gauge(name, read=self._traced(read))


def finishes(call, timeout=10.0):
    """Run ``call()`` on a fresh thread; fail unless it returns in time.

    Returns ``("ok", value)`` or ``("raised", exception)``.
    """
    outcome = []

    def run():
        try:
            outcome.append(("ok", call()))
        except BaseException as exc:
            outcome.append(("raised", exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "call stranded: no thread answered it"
    return outcome[0]


@pytest.fixture(scope="module")
def model():
    return tiny_model()


def make_worker(model_, batch_size=2, policy=None, **engine_kwargs):
    engine_kwargs.setdefault("params", SamplingParams(greedy=True))
    engine = GenerationEngine(model_, batch_size=batch_size, **engine_kwargs)
    return EngineWorker(engine, policy=policy)


class TestEngineWorker:
    def test_blocking_roundtrip_matches_generate_fast(self, model):
        with make_worker(model) as worker:
            handle = worker.submit([1, 2, 3], 8)
            result = handle.wait(timeout=30)
        assert result.tokens == model.generate_fast([1, 2, 3], 8, greedy=True)
        assert result.finish_reason == "length"
        assert not handle.timed_out

    def test_streamed_tokens_match_final_completion(self, model):
        with make_worker(model) as worker:
            handle = worker.submit([4, 5], 6)
            streamed = list(handle.tokens())
            result = handle.wait(timeout=30)
        assert streamed == result.completion
        assert result.tokens == model.generate_fast([4, 5], 6, greedy=True)

    def test_submit_while_running_from_second_thread(self, model):
        """The server pattern: one thread streams while another submits."""
        with make_worker(model, batch_size=2) as worker:
            first = worker.submit([1], 20)
            second_result = {}

            def late_submit():
                # Interleaves with the decode loop mid-flight of `first`.
                handle = worker.submit([2, 3], 10)
                second_result["result"] = handle.wait(timeout=30)

            thread = threading.Thread(target=late_submit)
            thread.start()
            first_result = first.wait(timeout=30)
            thread.join(timeout=30)
        assert first_result.tokens == model.generate_fast([1], 20, greedy=True)
        assert second_result["result"].tokens == \
            model.generate_fast([2, 3], 10, greedy=True)

    def test_many_concurrent_submitters_no_loss_no_mixups(self, model):
        prompts = [[p] for p in range(1, 9)]
        refs = {tuple(p): model.generate_fast(p, 10, greedy=True)
                for p in prompts}
        outcomes = []
        lock = threading.Lock()
        with make_worker(model, batch_size=4,
                         policy=AdmissionPolicy(max_queue_depth=32)) as worker:
            def drive(prompt):
                result = worker.submit(prompt, 10).wait(timeout=60)
                with lock:
                    outcomes.append((prompt, result))

            threads = [threading.Thread(target=drive, args=(p,))
                       for p in prompts]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert len(outcomes) == len(prompts)
        ids = [r.request_id for _, r in outcomes]
        assert len(set(ids)) == len(ids)
        for prompt, result in outcomes:
            assert result.tokens == refs[tuple(prompt)]

    def test_zero_new_tokens_completes_inline(self, model):
        with make_worker(model) as worker:
            result = worker.submit([3, 4], 0).wait(timeout=5)
        assert result.tokens == [3, 4]
        assert result.finish_reason == "length"

    def test_invalid_requests_reject_without_engine_damage(self, model):
        with make_worker(model) as worker:
            with pytest.raises(RejectError):
                worker.submit([], 5)
            with pytest.raises(RejectError):
                worker.submit([1], -1)
            with pytest.raises(RejectError):
                worker.submit([1] * 60, 30)  # exceeds model window
            # engine still serves fine afterwards
            assert worker.submit([1], 4).wait(timeout=30).tokens == \
                model.generate_fast([1], 4, greedy=True)
            stats = worker.stats()
        assert stats["server"]["rejected"] == 3
        assert stats["server"]["accepted"] == 1

    def test_token_budget_rejected(self, model):
        policy = AdmissionPolicy(max_tokens_per_request=8)
        with make_worker(model, policy=policy) as worker:
            with pytest.raises(RejectError):
                worker.submit([1], 9)
            assert worker.submit([1], 8).wait(timeout=30) is not None

    def test_queue_cap_sheds(self, model):
        slow = SlowModel(model, 0.01)
        policy = AdmissionPolicy(max_queue_depth=0)
        with make_worker(slow, batch_size=1, policy=policy) as worker:
            first = worker.submit([1], 25)
            next(first.tokens())  # admitted: slot busy, queue empty
            with pytest.raises(ShedError):
                worker.submit([2], 5)
            stats = worker.stats()
            assert stats["server"]["shed"] == 1
            first.wait(timeout=60)

    def test_timeout_cancels_and_reclaims_slot(self, model):
        slow = SlowModel(model, 0.02)
        policy = AdmissionPolicy(max_queue_depth=4, request_timeout_s=0.15)
        with make_worker(slow, batch_size=1, policy=policy) as worker:
            handle = worker.submit([1, 2], 40)
            result = handle.wait(timeout=30)
            assert handle.timed_out
            assert result.finish_reason == "cancelled"
            assert len(result.tokens) < 2 + 40  # partial
            # slot is free again: a short request completes normally
            quick = worker.submit([3], 2).wait(timeout=30)
            assert quick.finish_reason == "length"
            stats = worker.stats()
        assert stats["active_slots"] == 0
        assert stats["server"]["timeouts"] == 1

    def test_close_cancels_pending_and_rejects_new(self, model):
        slow = SlowModel(model, 0.02)
        worker = make_worker(slow, batch_size=1).start()
        handle = worker.submit([1], 40)
        worker.close()
        assert handle.wait(timeout=5).finish_reason == "cancelled"
        with pytest.raises(RejectError) as excinfo:
            worker.submit([2], 5)
        assert excinfo.value.status == 503


class TestOneOwner:
    """Only the decode thread calls the engine; no call is ever stranded.

    Waits are counted in model steps (:class:`CountingModel`), never
    timed, and nothing sleeps.
    """

    def test_submit_reaches_engine_within_one_step(self, model):
        counting = CountingModel(model)
        worker = make_worker(counting, batch_size=2)
        engine_submit = worker.engine.submit
        reached = []

        def submit(*args, **kwargs):
            reached.append((counting.steps, worker.engine.num_active))
            return engine_submit(*args, **kwargs)

        worker.engine.submit = submit
        with worker:
            first = worker.submit([1], 60)
            next(first.tokens())        # first is decoding now
            posted = counting.steps
            second = worker.submit([2], 1)
            steps_at_engine, active = reached[-1]
            assert steps_at_engine - posted <= 1
            assert active == 1          # first was still in its slot
            assert second.wait(timeout=30).finish_reason == "length"
            assert first.wait(timeout=30).finish_reason == "length"

    def test_only_the_decode_thread_calls_the_engine(self, model):
        registry = ReaderThreads()
        worker = make_worker(model, batch_size=2,
                             policy=AdmissionPolicy(max_queue_depth=64),
                             obs=Observability(metrics=registry))
        callers = record_callers(worker.engine)
        results = []

        def client(i):
            handle = worker.submit([1 + i % 9], 12)
            worker.stats()
            assert "engine_steps_total" in worker.metrics_text()
            if i % 3 == 0:
                worker.cancel(handle.request_id)
            results.append(handle.wait(timeout=60))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the clients harder
        try:
            worker.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = worker.stats()
            worker.close()
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({result.request_id for result in results}) == 12
        assert stats["server"]["accepted"] == 12
        assert stats["server"]["completed"] == 12
        (decode_thread,) = callers["step"]
        assert set().union(*callers.values()) == {decode_thread}
        # The metrics readers touch engine and worker state: they too
        # run on the decode thread only.
        assert registry.threads == {decode_thread}
        assert threading.get_ident() != decode_thread

    def test_calls_before_start_run_on_the_caller(self, model):
        worker = make_worker(model)
        kind, handle = finishes(lambda: worker.submit([1, 2], 4))
        assert kind == "ok"
        assert finishes(worker.stats)[1]["queue_depth"] == 1
        with worker:
            assert handle.wait(timeout=30).tokens == \
                model.generate_fast([1, 2], 4, greedy=True)

    def test_calls_after_a_failed_start_run_on_the_caller(self, model,
                                                          monkeypatch):
        worker = make_worker(model)

        def refuse():
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(worker._thread, "start", refuse)
        with pytest.raises(RuntimeError):
            worker.start()
        kind, handle = finishes(lambda: worker.submit([1, 2], 0))
        assert kind == "ok" and handle.wait(timeout=5).tokens == [1, 2]
        assert finishes(worker.close)[0] == "ok"

    @pytest.mark.parametrize("restart", [False, True])
    def test_calls_after_close_run_on_the_caller(self, model, restart):
        worker = make_worker(model).start()
        worker.start()                  # a second start() is a no-op
        assert worker.submit([1], 2).wait(timeout=30) is not None
        worker.close()
        if restart:
            worker.start()              # start() after close() stays closed
        kind, exc = finishes(lambda: worker.submit([1], 2))
        assert kind == "raised" and exc.status == 503
        assert finishes(worker.stats)[1]["server"]["inflight"] == 0
        assert finishes(lambda: worker.cancel(0)) == ("ok", False)
        assert finishes(worker.close)[0] == "ok"

    def test_calls_after_a_crash_run_on_the_caller(self, model):
        worker = make_worker(model).start()
        with faults.inject("serve.step", faults.SimulatedCrash):
            result = worker.submit([1], 5).wait(timeout=30)
        assert result.finish_reason == "cancelled"
        kind, exc = finishes(lambda: worker.submit([1], 2))
        assert kind == "raised" and exc.status == 503
        assert finishes(worker.stats)[1]["server"]["crashed"] is True
        assert worker.health()["status"] == "failing"
        assert finishes(worker.close)[0] == "ok"

    def test_call_from_the_decode_thread_runs_inline(self, model):
        worker = make_worker(model)
        on_token = worker.engine.on_token
        inflight = []

        def hook(request_id, token):
            inflight.append(worker.stats()["server"]["inflight"])
            on_token(request_id, token)

        worker.engine.on_token = hook
        worker.start()
        handle = finishes(lambda: worker.submit([3], 3))[1]
        assert handle.wait(timeout=30).finish_reason == "length"
        assert inflight == [1, 1, 1]
        assert finishes(worker.close)[0] == "ok"


def serve(model_, batch_size=2, policy=None, obs=None, slo=None, flight=None,
          **engine_kwargs):
    engine_kwargs.setdefault("params", SamplingParams(greedy=True))
    engine = GenerationEngine(model_, batch_size=batch_size,
                              obs=obs, **engine_kwargs)
    return InferenceServer(engine, policy=policy, slo=slo, flight=flight)


def raw_submit(server, prompt, max_new_tokens, headers=None):
    """POST /v1/submit via raw http.client, returning response headers too."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        payload = json.dumps({"prompt": list(prompt),
                              "max_new_tokens": max_new_tokens}).encode()
        conn.request("POST", "/v1/submit", body=payload,
                     headers={"Content-Type": "application/json",
                              **(headers or {})})
        response = conn.getresponse()
        body = json.loads(response.read().decode())
        return response.status, dict(response.getheaders()), body
    finally:
        conn.close()


def metric_twins(stats):
    """Each engine and worker counter or gauge series of ``/metrics``,
    mapped to its ``/v1/stats`` twin (the spec series read 0 on an
    engine without speculation, which has no ``spec`` section)."""
    kv, server = stats["kv"], stats["server"]
    prefix = kv["prefix_cache"]
    spec = stats.get("spec", dict.fromkeys(
        ("proposed", "accepted", "rejected", "accepted_tokens_per_step"), 0))
    return {
        "engine_steps_total": stats["total_steps"],
        "engine_sampled_tokens_total": stats["sampled_tokens"],
        "engine_active_slots": stats["active_slots"],
        "engine_queue_depth": stats["queue_depth"],
        "engine_kv_pages_free": kv["pages_free"],
        "engine_kv_pages_used": kv["pages_used"],
        "engine_kv_pages_shared": kv["pages_shared"],
        "engine_kv_bytes_pool": kv["kv_bytes_pool"],
        "engine_kv_bytes_in_use": kv["kv_bytes_in_use"],
        "engine_preemptions_total": kv["preemptions"],
        "prefix_cache_hit_total": prefix["hits"],
        "prefix_cache_miss_total": prefix["misses"],
        "prefix_cache_evict_total": prefix["evictions"],
        "engine_spec_proposed_total": spec["proposed"],
        "engine_spec_accepted_total": spec["accepted"],
        "engine_spec_rejected_total": spec["rejected"],
        "engine_spec_accepted_tokens_per_step":
            spec["accepted_tokens_per_step"],
        "serve_accepted_total": server["accepted"],
        "serve_shed_total": server["shed"],
        "serve_rejected_total": server["rejected"],
        "serve_timeouts_total": server["timeouts"],
        "serve_completed_total": server["completed"],
        "serve_inflight": server["inflight"],
    }


def assert_one_source(client) -> dict:
    """Scrape ``/metrics`` and ``/v1/stats`` of an idle server; every
    counter and gauge must equal its twin.  Returns the twins."""
    from tests.test_obs_exposition import parse_exposition

    families = parse_exposition(client.metrics())
    scraped = {name: float(family["samples"][0][2])
               for name, family in families.items()
               if family["type"] in ("counter", "gauge")}
    twins = metric_twins(client.stats())
    assert scraped == pytest.approx(twins)
    return twins


class TestHTTPServer:
    def test_healthz_and_404(self, model):
        with serve(model) as server:
            client = ServeClient(server.host, server.port)
            health = client.healthz()
            assert health["status"] == "ok"
            assert set(health["signals"]) == {
                "ttft_p99_s", "shed_rate", "error_rate", "queue_depth"}
            with pytest.raises(ServeClientError) as excinfo:
                client._request("GET", "/nope")
            assert excinfo.value.status == 404

    def test_accepted_connections_disable_nagle(self, model, monkeypatch):
        """Streamed chunks must not wait on the client's delayed ACK:
        the server sets TCP_NODELAY on each socket it accepts."""
        from repro.serve.server import _Handler

        nodelay = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        with serve(model) as server:
            ServeClient(server.host, server.port).healthz()
        assert nodelay and all(nodelay)

    def test_listen_backlog_holds_a_client_burst(self, model):
        """A burst of clients waits in the listen backlog until the
        accept loop reaches it, instead of being reset: 24 connections
        to a server that is not accepting yet all succeed."""
        server = serve(model)   # listening, no accept loop until start()
        conns = []
        try:
            for _ in range(24):
                try:
                    conns.append(socket.create_connection(
                        (server.host, server.port), timeout=0.5))
                except OSError:
                    break
        finally:
            for conn in conns:
                conn.close()
            server.close()
        assert len(conns) == 24

    def test_close_before_start_frees_the_port(self, model):
        server = serve(model)
        server.close()
        probe = socket.socket()
        try:
            probe.bind((server.host, server.port))
        finally:
            probe.close()

    def test_batch1_greedy_bit_identical_to_generate_fast(self, model):
        with serve(model, batch_size=1) as server:
            client = ServeClient(server.host, server.port)
            for prompt in ([1, 2, 3], [9], [4, 5, 6, 7]):
                body = client.submit(prompt, 10)
                assert body["tokens"] == \
                    model.generate_fast(prompt, 10, greedy=True)
                assert body["completion"] == body["tokens"][len(prompt):]
                assert body["timing"]["ttft_s"] >= 0

    def test_streaming_ndjson_matches_blocking(self, model):
        with serve(model) as server:
            client = ServeClient(server.host, server.port)
            records = list(client.stream([2, 4], 7))
        assert "request_id" in records[0]
        tokens = [r["token"] for r in records if "token" in r]
        final = records[-1]
        assert final["done"] is True
        assert tokens == final["completion"]
        assert final["tokens"] == model.generate_fast([2, 4], 7, greedy=True)

    def test_stop_token_semantics_over_http(self, model):
        with serve(model, batch_size=1,
                   params=SamplingParams(greedy=True,
                                         stop_token=5)) as server:
            client = ServeClient(server.host, server.port)
            default = client.submit([1], 12)
            assert default["tokens"] == \
                model.generate_fast([1], 12, greedy=True, stop_token=5)
            # explicit null disables the engine-wide stop token
            overridden = client.submit([1], 12, stop_token=None)
            assert overridden["tokens"] == \
                model.generate_fast([1], 12, greedy=True)

    def test_bad_request_400(self, model):
        with serve(model) as server:
            client = ServeClient(server.host, server.port)
            for body in ({}, {"prompt": [1]}, {"max_new_tokens": 3},
                         {"prompt": [1], "max_new_tokens": "many"}):
                with pytest.raises(ServeClientError) as excinfo:
                    client._request("POST", "/v1/submit", body)
                assert excinfo.value.status == 400

    def test_stream_must_be_a_json_boolean(self, model):
        body = {"prompt": [1, 2], "max_new_tokens": 3}
        with serve(model, batch_size=1) as server:
            client = ServeClient(server.host, server.port)
            for bad in ("false", "true", 0, 1, None, [True]):
                with pytest.raises(ServeClientError) as excinfo:
                    client._request("POST", "/v1/submit",
                                    {**body, "stream": bad})
                assert excinfo.value.status == 400
                assert "stream" in excinfo.value.body["detail"]
            assert client.stats()["server"]["accepted"] == 0
            absent = client._request("POST", "/v1/submit", body)
            explicit = client._request("POST", "/v1/submit",
                                       {**body, "stream": False})
            assert explicit["completion"] == absent["completion"]
            records = list(client.stream([1, 2], 3))
            assert records[-1]["completion"] == absent["completion"]

    def test_negative_content_length_gets_400(self, model):
        with serve(model) as server:
            with socket.create_connection((server.host, server.port),
                                          timeout=2.0) as sock:
                sock.sendall(b"POST /v1/submit HTTP/1.1\r\n"
                             b"Host: localhost\r\n"
                             b"Content-Type: application/json\r\n"
                             b"Content-Length: -1\r\n\r\n")
                status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"400"

    def test_queue_cap_returns_429_with_retry_after(self, model):
        slow = SlowModel(model, 0.01)
        policy = AdmissionPolicy(max_queue_depth=0, retry_after_s=0.5)
        with serve(slow, batch_size=1, policy=policy) as server:
            client = ServeClient(server.host, server.port)
            stream = client.stream([1, 2, 3], 30)
            next(stream)            # request_id line
            next(stream)            # first token: admitted, slot busy
            with pytest.raises(ServeClientError) as excinfo:
                client.submit([4], 5)
            assert excinfo.value.status == 429
            assert float(excinfo.value.headers["Retry-After"]) == 0.5
            for _ in stream:        # let the in-flight request finish
                pass
            assert client.stats()["server"]["shed"] == 1

    def test_timeout_returns_504_with_partial_result(self, model):
        slow = SlowModel(model, 0.02)
        policy = AdmissionPolicy(max_queue_depth=4, request_timeout_s=0.15)
        with serve(slow, batch_size=1, policy=policy) as server:
            client = ServeClient(server.host, server.port)
            with pytest.raises(ServeClientError) as excinfo:
                client.submit([1, 2, 3], 50)
            assert excinfo.value.status == 504
            assert excinfo.value.body["finish_reason"] == "cancelled"
            assert len(excinfo.value.body["tokens"]) >= 3
            # slot reclaimed: the next request is served
            assert client.submit([1], 2)["finish_reason"] == "length"

    def test_stats_midflight_and_after(self, model):
        slow = SlowModel(model, 0.01)
        with serve(slow, batch_size=2) as server:
            client = ServeClient(server.host, server.port)
            stream = client.stream([1, 2], 30)
            next(stream)
            next(stream)            # admitted and decoding
            mid = client.stats()
            assert mid["active_slots"] == 1
            assert mid["server"]["inflight"] == 1
            assert mid["server"]["accepted"] == 1
            for _ in stream:
                pass
            done = client.stats()
        assert done["active_slots"] == 0
        assert done["server"]["completed"] == 1
        assert done["requests_submitted"] == done["requests_completed"] == 1

    def test_concurrent_http_clients(self, model):
        prompts = [[p] for p in range(8)]
        refs = {tuple(p): model.generate_fast(p, 8, greedy=True)
                for p in prompts}
        results = {}
        lock = threading.Lock()
        with serve(model, batch_size=4,
                   policy=AdmissionPolicy(max_queue_depth=16)) as server:
            def drive(prompt):
                client = ServeClient(server.host, server.port)
                body = client.submit(prompt, 8)
                with lock:
                    results[tuple(prompt)] = body

            threads = [threading.Thread(target=drive, args=(p,))
                       for p in prompts]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            stats = server.stats()
        assert len(results) == len(prompts)
        for prompt, body in results.items():
            assert body["tokens"] == refs[prompt]
        ids = [body["request_id"] for body in results.values()]
        assert len(set(ids)) == len(ids)
        assert stats["server"]["accepted"] == stats["server"]["completed"] == 8

    def test_serving_metrics_and_events_surface(self, model):
        obs = Observability.standard()
        with serve(model, obs=obs) as server:
            client = ServeClient(server.host, server.port)
            client.submit([1, 2], 5)
        snapshot = obs.metrics.snapshot()
        assert snapshot["serve.accepted"]["value"] == 1
        assert snapshot["serve.completed"]["value"] == 1
        assert snapshot["engine.ttft_seconds"]["count"] == 1
        assert len(obs.events.of_type("request_submitted")) == 1
        assert len(obs.events.of_type("request_finished")) == 1


class TestTracePropagation:
    def test_traceparent_roundtrip_and_cross_thread_export(self, model):
        obs = Observability.standard()
        trace_id, caller_span = "ab" * 16, "cd" * 8
        with serve(model, obs=obs) as server:
            status, headers, _ = raw_submit(
                server, [1, 2], 5,
                headers={"traceparent": f"00-{trace_id}-{caller_span}-01"})
            assert status == 200
            assert headers["X-Trace-Id"] == trace_id
            assert headers["traceparent"].split("-")[1] == trace_id
            exported = ServeClient(server.host, server.port).trace(trace_id)
        assert exported["trace_id"] == trace_id
        events = exported["traceEvents"]
        assert events and all(
            e["args"]["trace_id"] == trace_id for e in events)
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        assert {"serve.request", "request.queue_wait",
                "request.prefill", "request.decode_step"} <= set(by_name)
        (root,) = by_name["serve.request"]
        # the handler's root span continues the remote caller's span
        assert root["args"]["parent_id"] == caller_span
        # engine-side phases are parented under the request's root span
        # even though they are recorded from the decode thread
        engine_spans = (by_name["request.queue_wait"]
                        + by_name["request.prefill"]
                        + by_name["request.decode_step"])
        for span in engine_spans:
            assert span["args"]["parent_id"] == root["args"]["span_id"]
        assert {span["tid"] for span in engine_spans} != {root["tid"]}

    def test_fresh_trace_minted_without_header(self, model):
        obs = Observability.standard()
        with serve(model, obs=obs) as server:
            _, first, _ = raw_submit(server, [1], 3)
            _, second, _ = raw_submit(server, [2], 3)
        assert len(first["X-Trace-Id"]) == 32
        assert int(first["X-Trace-Id"], 16) != 0
        assert first["X-Trace-Id"] != second["X-Trace-Id"]

    def test_malformed_traceparent_gets_fresh_trace(self, model):
        obs = Observability.standard()
        with serve(model, obs=obs) as server:
            for bad in ("nonsense", "00-zz-yy-01",
                        "00-" + "0" * 32 + "-" + "cd" * 8 + "-01"):
                status, headers, _ = raw_submit(
                    server, [1], 3, headers={"traceparent": bad})
                assert status == 200
                assert len(headers["X-Trace-Id"]) == 32

    def test_streaming_first_record_carries_trace_id(self, model):
        obs = Observability.standard()
        with serve(model, obs=obs) as server:
            client = ServeClient(server.host, server.port)
            records = list(client.stream([1, 2], 4))
        assert len(records[0]["trace_id"]) == 32

    def test_trace_ids_surface_in_request_events(self, model):
        obs = Observability.standard()
        trace_id = "ef" * 16
        with serve(model, obs=obs) as server:
            raw_submit(server, [1, 2], 3,
                       headers={"traceparent":
                                f"00-{trace_id}-{'cd' * 8}-01"})
        for name in ("request_submitted", "request_admitted",
                     "request_finished"):
            (event,) = obs.events.of_type(name)
            assert event["trace_id"] == trace_id


class TestObservabilityPlane:
    def test_metrics_endpoint_is_prometheus_parseable(self, model):
        from tests.test_obs_exposition import parse_exposition

        obs = Observability.standard()
        with serve(model, obs=obs) as server:
            client = ServeClient(server.host, server.port)
            client.submit([1, 2], 5)
            text = client.metrics()
        families = parse_exposition(text)
        assert families["serve_accepted_total"]["type"] == "counter"
        ((_, labels, value),) = families["serve_accepted_total"]["samples"]
        assert labels["job"] == "repro_serve" and value == "1"
        assert families["engine_ttft_seconds"]["type"] == "histogram"

    def test_metrics_endpoint_with_telemetry_disabled(self, model):
        with serve(model) as server:
            client = ServeClient(server.host, server.port)
            client.submit([1], 3)
            text = client.metrics()
        assert text.strip() == ""  # NullMetrics: empty but valid exposition

    def test_trace_endpoint_requires_id(self, model):
        with serve(model) as server:
            client = ServeClient(server.host, server.port)
            with pytest.raises(ServeClientError) as excinfo:
                client.trace("")
            assert excinfo.value.status == 400
            body = client.trace("deadbeef")
            assert body["traceEvents"] == []
            assert body["tracing_enabled"] is False

    def test_healthz_degraded_on_one_breach(self, model):
        slo = SLOMonitor(SLOThresholds(ttft_p99_s=0.0, min_requests=1))
        with serve(model, slo=slo) as server:
            client = ServeClient(server.host, server.port)
            client.submit([1, 2], 3)
            health = client.healthz()
        assert health["status"] == "degraded"
        assert health["breached"] == ["ttft_p99_s"]

    def test_healthz_503_when_failing(self, model):
        slo = SLOMonitor(SLOThresholds(ttft_p99_s=0.0, max_queue_depth=-1,
                                       min_requests=1))
        with serve(model, slo=slo) as server:
            client = ServeClient(server.host, server.port)
            client.submit([1, 2], 3)
            with pytest.raises(ServeClientError) as excinfo:
                client.healthz()
        assert excinfo.value.status == 503
        assert excinfo.value.body["status"] == "failing"

    def test_stats_carry_slo_verdict_and_metrics(self, model):
        obs = Observability.standard()
        with serve(model, obs=obs) as server:
            client = ServeClient(server.host, server.port)
            client.submit([1, 2], 4)
            stats = client.stats()
        assert stats["slo"]["status"] == "ok"
        assert "ttft_p99_s" in stats["slo"]["signals"]
        assert stats["metrics"]["serve.completed"]["value"] == 1

    def test_shed_and_timeout_feed_slo_window(self, model):
        slow = SlowModel(model, 0.01)
        policy = AdmissionPolicy(max_queue_depth=0, retry_after_s=0.1)
        slo = SLOMonitor(SLOThresholds(max_shed_rate=0.0, min_requests=1))
        with serve(slow, batch_size=1, policy=policy, slo=slo) as server:
            client = ServeClient(server.host, server.port)
            stream = client.stream([1, 2, 3], 20)
            next(stream)
            next(stream)            # slot busy now
            with pytest.raises(ServeClientError):
                client.submit([4], 5)       # shed -> 429
            health_body = client.healthz()
            for _ in stream:
                pass
        assert health_body["status"] == "degraded"
        assert health_body["breached"] == ["shed_rate"]
        assert health_body["signals"]["shed_rate"]["value"] > 0


class TestOneSource:
    """``/metrics`` and ``/v1/stats`` read one count per fact.

    Every engine and worker counter or gauge series on ``/metrics``
    equals its ``/v1/stats`` twin (:func:`metric_twins`) on an idle
    server, and a bundle shared by successive engines reads the newest.
    """

    def test_speculative_engine_metrics_equal_stats(self, model):
        import numpy as np

        from repro.infer import SpeculativeConfig
        from repro.lm import LanguageModelDraft, NGramLM

        system = [1, 2, 3, 4, 5, 6, 7, 8]
        ngram = NGramLM(vocab_size=model.config.vocab_size, order=4,
                        add_k=0.01)
        ngram.fit(np.asarray(model.generate_fast(system + [9], 12,
                                                 greedy=True)))
        spec = SpeculativeConfig(draft=LanguageModelDraft(ngram), k=4)
        with serve(model, batch_size=2, kv_page_size=4, speculative=spec,
                   obs=Observability.standard()) as server:
            client = ServeClient(server.host, server.port)
            client.submit(system + [9], 12)          # prefix miss
            list(client.stream(system + [10], 12))   # prefix hits
            client.submit(system + [3], 6)
            with pytest.raises(ServeClientError):
                client.submit([model.config.vocab_size], 3)   # rejected
            twins = assert_one_source(client)
        assert (twins["prefix_cache_hit_total"],
                twins["prefix_cache_miss_total"]) == (2, 1)
        for name in ("engine_steps_total", "engine_sampled_tokens_total",
                     "prefix_cache_hit_total", "prefix_cache_miss_total",
                     "serve_accepted_total", "serve_completed_total",
                     "serve_rejected_total", "engine_spec_proposed_total",
                     "engine_spec_accepted_total",
                     "engine_spec_accepted_tokens_per_step",
                     "engine_kv_pages_used", "engine_kv_bytes_in_use"):
            assert twins[name] > 0, name

    def test_preempting_evicting_engine_metrics_equal_stats(self, model):
        server = serve(model, batch_size=2, kv_page_size=4, kv_num_pages=8,
                       obs=Observability.standard())
        # Queued before the loop starts, so both are admitted together
        # and outgrow the 8-page pool: the younger one is preempted.
        handles = [server.worker.submit(prompt, 20)
                   for prompt in ([1, 2, 3, 4], [5, 6, 7, 8])]
        with server:
            for handle in handles:
                assert handle.wait(timeout=30).finish_reason == "length"
            client = ServeClient(server.host, server.port)
            for i in range(5):                  # churn: LRU evictions
                client.submit([i + 1] * 8 + [i + 2], 4)
            twins = assert_one_source(client)
        assert twins["engine_preemptions_total"] > 0
        assert twins["prefix_cache_evict_total"] > 0

    def test_shared_bundle_reads_the_newest_engine(self, model):
        obs = Observability.standard()
        with serve(model, batch_size=1, obs=obs) as server:
            client = ServeClient(server.host, server.port)
            client.submit([1, 2, 3], 6)
            client.submit([4, 5], 6)
        with serve(model, batch_size=1, obs=obs) as server:
            client = ServeClient(server.host, server.port)
            client.submit([1, 2], 4)
            twins = assert_one_source(client)
        assert twins["serve_accepted_total"] == 1
        assert twins["engine_sampled_tokens_total"] == 4


class TestFlightRecorderOverHTTP:
    def test_crash_mid_stream_dumps_blackbox(self, model, tmp_path):
        path = tmp_path / "flightrecord.json"
        obs = Observability.standard()
        flight = FlightRecorder(path=path, capacity=256)
        slow = SlowModel(model, 0.005)
        with serve(slow, obs=obs, flight=flight) as server:
            client = ServeClient(server.host, server.port)
            with faults.inject("serve.step", faults.SimulatedCrash, skip=3):
                records = list(client.stream([1, 2], 30))
            final = records[-1]
            assert final["finish_reason"] == "cancelled"
            # the worker is down: health reports failing, new work is shed
            with pytest.raises(ServeClientError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
            assert excinfo.value.body["crashed"] is True
        assert path.exists()
        blackbox = json.loads(path.read_text())
        assert blackbox["reason"] == "crash"
        assert "SimulatedCrash" in blackbox["error"]
        names = [e["event"] for e in blackbox["events"]]
        assert "server_crash" in names
        assert "request_submitted" in names

    def test_blackbox_contains_inflight_request_trace(self, model, tmp_path):
        path = tmp_path / "flightrecord.json"
        obs = Observability.standard()
        flight = FlightRecorder(path=path, capacity=256)
        slow = SlowModel(model, 0.005)
        trace_id = "ba" * 16
        with serve(slow, obs=obs, flight=flight) as server:
            with faults.inject("serve.step", faults.SimulatedCrash, skip=4):
                status, headers, body = raw_submit(
                    server, [1, 2, 3], 30,
                    headers={"traceparent":
                             f"00-{trace_id}-{'cd' * 8}-01"})
        assert body["finish_reason"] == "cancelled"
        blackbox = json.loads(path.read_text())
        event_traces = {e.get("trace_id") for e in blackbox["events"]}
        assert trace_id in event_traces
        span_names = {s["name"] for s in blackbox["spans"]}
        assert "request.prefill" in span_names
        assert "request.decode_step" in span_names


class TestAdmissionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue_depth=-1)
        with pytest.raises(ValueError):
            AdmissionPolicy(request_timeout_s=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_tokens_per_request=-1)

    def test_free_slots_admit_even_at_cap_zero(self):
        policy = AdmissionPolicy(max_queue_depth=0)
        policy.check(queue_depth=0, free_slots=2, max_new_tokens=4)  # ok
        with pytest.raises(ShedError):
            policy.check(queue_depth=0, free_slots=0, max_new_tokens=4)

    def test_waiting_counts_exclude_immediately_admitted(self):
        policy = AdmissionPolicy(max_queue_depth=2)
        # queue of 3 but 2 free slots -> only 1 actually waits
        policy.check(queue_depth=3, free_slots=2, max_new_tokens=4)
        with pytest.raises(ShedError):
            policy.check(queue_depth=4, free_slots=2, max_new_tokens=4)

    def test_token_budget(self):
        policy = AdmissionPolicy(max_tokens_per_request=16)
        policy.check(queue_depth=0, free_slots=1, max_new_tokens=16)
        with pytest.raises(RejectError):
            policy.check(queue_depth=0, free_slots=1, max_new_tokens=17)

    def test_to_dict_roundtrips_knobs(self):
        policy = AdmissionPolicy(max_queue_depth=3, max_tokens_per_request=9,
                                 request_timeout_s=1.5, retry_after_s=0.2)
        assert policy.to_dict() == {
            "max_queue_depth": 3, "max_tokens_per_request": 9,
            "request_timeout_s": 1.5, "retry_after_s": 0.2,
        }


class TestPromptLimitParity:
    """PR 8 satellite: one length check for both submit paths.

    ``prompt + max_new_tokens`` greater than the cache window must
    produce the *same* structured 400 — with a machine-readable
    ``limits`` dict — whether the client blocks or streams, and the
    exact boundary (sum == window) must be accepted on both.
    """

    def test_boundary_accepted_on_both_paths(self, model):
        window = model.config.max_seq_len
        with serve(model, batch_size=1) as server:
            client = ServeClient(server.host, server.port)
            blocking = client.submit([1] * (window - 4), 4)
            assert blocking["finish_reason"] in ("length", "stop_token")
            records = list(client.stream([1] * (window - 4), 4))
            assert records[-1]["done"] is True
            # prompt exactly at the window with zero budget is also legal
            assert client.submit([1] * window, 0)["finish_reason"] == "length"

    def test_over_window_identical_400_on_both_paths(self, model):
        window = model.config.max_seq_len
        with serve(model, batch_size=1) as server:
            client = ServeClient(server.host, server.port)
            with pytest.raises(ServeClientError) as blocking:
                client.submit([1] * window, 1)
            with pytest.raises(ServeClientError) as streaming:
                list(client.stream([1] * window, 1))
            assert blocking.value.status == streaming.value.status == 400
            assert blocking.value.body == streaming.value.body
            limits = blocking.value.body["limits"]
            assert limits["max_seq_len"] == window
            assert limits["prompt_len"] == window
            assert limits["max_new_tokens"] == 1

    def test_bad_prompt_ids_identical_400_and_server_survives(self, model):
        vocab = model.config.vocab_size
        in_range, integers = f"[0, {vocab})", "integer token ids"
        count = "max_new_tokens must be an integer"
        # A token budget compares max_new_tokens before the engine sees it.
        for policy in (None, AdmissionPolicy(max_tokens_per_request=8)):
            with serve(model, batch_size=1, policy=policy) as server:
                client = ServeClient(server.host, server.port)
                # JSON true, 2.9 and "3" are not integers, though int()
                # reads them as 1, 2 and 3.
                for prompt, max_new_tokens, named in (
                        ([vocab], 3, in_range), ([-1], 3, in_range),
                        (5, 3, integers), ([None], 3, integers),
                        ([[1]], 3, integers), ([True, 2, 3], 3, integers),
                        ([1, 2, 3], 2.9, count), ([1, 2, 3], True, count),
                        ([1, 2, 3], "3", count)):
                    bodies = []
                    for stream in (False, True):
                        with pytest.raises(ServeClientError) as excinfo:
                            client._request("POST", "/v1/submit", {
                                "prompt": prompt,
                                "max_new_tokens": max_new_tokens,
                                "stream": stream})
                        assert excinfo.value.status == 400
                        bodies.append(excinfo.value.body)
                    assert bodies[0] == bodies[1]
                    assert named in bodies[0]["detail"]
                assert client.submit([1, 2], 3)["finish_reason"] == "length"
                assert client.healthz()["status"] != "failing"

    def test_client_sends_what_it_is_given(self, model):
        """ServeClient rounds nothing: 2.9 and [1.5, 2] reach the server
        as given and get its 400 on both paths; NumPy integers and
        arrays, which json cannot encode, go as the ints they hold."""
        import numpy as np

        with serve(model, batch_size=1) as server:
            client = ServeClient(server.host, server.port)
            for prompt, max_new_tokens, named in (
                    ([1, 2, 3], 2.9, "max_new_tokens must be an integer"),
                    ([1, 2, 3], True, "max_new_tokens must be an integer"),
                    ([1.5, 2], 3, "integer token ids"),
                    (5, 3, "integer token ids")):
                with pytest.raises(ServeClientError) as blocking:
                    client.submit(prompt, max_new_tokens)
                with pytest.raises(ServeClientError) as streaming:
                    list(client.stream(prompt, max_new_tokens))
                assert blocking.value.status == streaming.value.status == 400
                assert blocking.value.body == streaming.value.body
                assert named in blocking.value.body["detail"]
            tokens = client.submit([1, 2, 3], 4)["tokens"]
            assert client.submit(np.array([1, 2, 3]),
                                 np.int64(4))["tokens"] == tokens
            assert client.submit([np.int64(1), 2, 3], 4)["tokens"] == tokens
            assert client.stats()["server"]["rejected"] == 8

    def test_page_pool_limit_surfaces_in_400(self, model):
        with serve(model, batch_size=1, kv_page_size=4,
                   kv_num_pages=4) as server:
            client = ServeClient(server.host, server.port)
            with pytest.raises(ServeClientError) as excinfo:
                client.submit([1, 2, 3], 20)     # 23 tokens > 16 positions
            assert excinfo.value.status == 400
            assert excinfo.value.body["limits"]["kv_num_pages"] == 4

    def test_kv_stats_flow_through_http(self, model):
        """/v1/stats carries the paged-pool + prefix-cache snapshot."""
        system = [1, 2, 3, 4, 5, 6, 7, 8]
        with serve(model, batch_size=1, kv_page_size=4) as server:
            client = ServeClient(server.host, server.port)
            client.submit(system + [9], 4)
            client.submit(system + [10], 4)
            kv = client.stats()["kv"]
            assert kv["backend"] == "paged"
            assert kv["pages_used"] >= 2
            assert kv["prefix_cache"]["hits"] == 1
            assert kv["prefix_cache"]["misses"] == 1

    def test_kv_page_gauges_on_metrics_endpoint(self, model):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs import Observability
        obs = Observability(metrics=MetricsRegistry())
        with serve(model, batch_size=1, obs=obs) as server:
            client = ServeClient(server.host, server.port)
            client.submit([1, 2, 3], 4)
            text = client.metrics()
            assert "engine_kv_pages_used" in text
            assert "engine_kv_pages_free" in text
            assert "prefix_cache_miss" in text


class TestSamplingOverHTTP:
    """PR 9: the ``"sampling"`` body object on both submit paths.

    Per-request params must decode exactly as the in-process engine
    would, the resolved params are echoed back (blocking result and
    first streaming record), and an invalid object produces the same
    structured 400 — with a ``params`` dict — whether the client blocks
    or streams, mirroring the PR 8 ``limits`` parity contract.
    """

    def test_blocking_sampling_decodes_and_echoes(self, model):
        with serve(model, batch_size=1) as server:
            client = ServeClient(server.host, server.port)
            result = client.submit([1, 2, 3], 8,
                                   sampling={"greedy": True,
                                             "stop_token": 5})
            assert result["tokens"] == model.generate_fast(
                [1, 2, 3], 8, greedy=True, stop_token=5)
            echo = result["sampling"]
            assert echo["greedy"] is True and echo["stop_token"] == 5

    def test_sampling_params_object_accepted_by_client(self, model):
        with serve(model, batch_size=1) as server:
            client = ServeClient(server.host, server.port)
            result = client.submit(
                [2, 4], 6, sampling=SamplingParams(temperature=0.8,
                                                   top_k=5, seed=3))
            assert result["sampling"]["seed"] == 3
            assert result["sampling"]["top_k"] == 5

    def test_streaming_first_record_echoes_sampling(self, model):
        with serve(model, batch_size=1) as server:
            client = ServeClient(server.host, server.port)
            records = list(client.stream([1], 5,
                                         sampling={"greedy": True}))
            assert records[0]["sampling"]["greedy"] is True
            tokens = [r["token"] for r in records if "token" in r]
            assert records[-1]["done"] is True
            assert records[-1]["sampling"]["greedy"] is True
            ref = model.generate_fast([1], 5, greedy=True)
            assert tokens == ref[1:]

    def test_seeded_requests_reproduce_over_http(self, model):
        with serve(model, batch_size=2) as server:
            client = ServeClient(server.host, server.port)
            sampling = {"temperature": 1.2, "seed": 42}
            first = client.submit([1, 2], 8, sampling=sampling)
            second = client.submit([1, 2], 8, sampling=sampling)
            assert first["tokens"] == second["tokens"]

    def test_invalid_sampling_identical_400_on_both_paths(self, model):
        with serve(model, batch_size=1) as server:
            client = ServeClient(server.host, server.port)
            bad = {"top_p": 2.0}
            with pytest.raises(ServeClientError) as blocking:
                client.submit([1], 4, sampling=bad)
            with pytest.raises(ServeClientError) as streaming:
                list(client.stream([1], 4, sampling=bad))
            assert blocking.value.status == streaming.value.status == 400
            assert blocking.value.body == streaming.value.body
            params = blocking.value.body["params"]
            assert params["field"] == "top_p"
            assert params["value"] == 2.0
            assert "top_p" in params["constraint"]

    def test_unseeded_stochastic_rejected_without_engine_rng(self, model):
        """With no engine rng an unseeded stochastic request cannot be
        sampled: both paths return the same 400 naming ``seed`` instead
        of crashing the decode loop, which keeps serving."""
        with serve(model, batch_size=1) as server:
            client = ServeClient(server.host, server.port)
            unseeded = {"temperature": 0.8}
            with pytest.raises(ServeClientError) as blocking:
                client.submit([1, 2], 6, sampling=unseeded)
            with pytest.raises(ServeClientError) as streaming:
                list(client.stream([1, 2], 6, sampling=unseeded))
            assert blocking.value.status == streaming.value.status == 400
            assert blocking.value.body == streaming.value.body
            assert blocking.value.body["params"]["field"] == "seed"
            seeded = client.submit([1, 2], 6,
                                   sampling={**unseeded, "seed": 7})
            assert seeded["finish_reason"] == "length"
            assert client.healthz()["status"] != "failing"

    def test_unknown_sampling_key_rejected(self, model):
        with serve(model, batch_size=1) as server:
            client = ServeClient(server.host, server.port)
            with pytest.raises(ServeClientError) as excinfo:
                client.submit([1], 4, sampling={"temprature": 0.5})
            assert excinfo.value.status == 400
            assert excinfo.value.body["params"]["field"] == "temprature"

    def test_bare_body_keeps_engine_default(self, model):
        # pre-PR-9 clients sending no "sampling" object see no change
        with serve(model, batch_size=1) as server:
            client = ServeClient(server.host, server.port)
            result = client.submit([1, 2, 3], 6)
            assert result["tokens"] == model.generate_fast(
                [1, 2, 3], 6, greedy=True)
            assert result["sampling"]["greedy"] is True


class TestSpeculativeOverHTTP:
    def test_speculative_engine_serves_identical_tokens(self, model):
        """A speculative engine behind the HTTP stack returns the same
        greedy tokens and exposes acceptance counters on /v1/stats."""
        import numpy as np

        from repro.infer import SpeculativeConfig
        from repro.lm import LanguageModelDraft, NGramLM
        from repro.obs.metrics import MetricsRegistry

        prompts = [[1, 2, 3], [4, 5]]
        refs = [model.generate_fast(p, 12, greedy=True) for p in prompts]
        ngram = NGramLM(vocab_size=model.config.vocab_size, order=4,
                        add_k=0.01)
        for seq in refs:
            ngram.fit(np.asarray(seq, dtype=np.int64))
        spec = SpeculativeConfig(draft=LanguageModelDraft(ngram), k=4)
        obs = Observability(metrics=MetricsRegistry())
        with serve(model, batch_size=2, speculative=spec,
                   obs=obs) as server:
            client = ServeClient(server.host, server.port)
            for prompt, ref in zip(prompts, refs):
                assert client.submit(prompt, 12)["tokens"] == ref
            stats = client.stats()["spec"]
            assert stats["proposed"] > 0
            assert stats["accepted"] > 0
            assert stats["accepted_tokens_per_step"] > 0
            text = client.metrics()
            assert "engine_spec_accepted" in text
            assert "engine_spec_accepted_tokens_per_step" in text
