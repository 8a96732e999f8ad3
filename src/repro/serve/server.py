"""Zero-dependency HTTP/streaming front end for the generation engine.

Threading model: a :class:`http.server.ThreadingHTTPServer` spawns one
handler thread per connection; every handler funnels into the shared
:class:`~repro.serve.worker.EngineWorker`, whose decode thread is the
engine's only caller, so the engine — and its RNG stream — runs exactly
as a single-threaded caller would drive it.  A handler posts its
submit, cancel, stats or metrics call to the worker and waits for the
reply, which the decode thread gives between two steps; otherwise the
HTTP threads only ever block on their own request's
:class:`~repro.serve.worker.RequestHandle`.  ``GET /healthz`` never
waits for the decode thread.

Endpoints:

- ``POST /v1/submit`` — body ``{"prompt": [ids...], "max_new_tokens": N,
  "stop_token": id?, "stream": bool?, "sampling": {...}?}``.  The
  optional ``"sampling"`` object carries per-request
  :class:`~repro.infer.SamplingParams` fields (temperature / top_k /
  top_p / greedy / stop_token / seed); the resolved params are echoed
  back as ``"sampling"`` in the response (and in the first streaming
  record).  Non-streaming requests block and return the finished result
  with timing; ``"stream": true`` responds ``application/x-ndjson``
  over chunked transfer encoding, one ``{"token": id}`` line per
  sampled token as it lands, then a final ``{"done": true, ...}``
  record.
- ``GET /v1/stats`` — engine + server accounting snapshot plus the
  metrics-registry snapshot and the SLO verdict.
- ``GET /v1/trace?id=<trace_id>`` — one request's spans as a
  self-contained Chrome trace JSON slice.
- ``GET /metrics`` — the metrics registry in Prometheus text
  exposition format, scrapeable while the server runs.
- ``GET /healthz`` — three-state SLO-driven health:
  ``ok|degraded|failing`` (failing responds 503 so load balancers can
  act on it).

**Request tracing**: every ``POST /v1/submit`` gets a
:class:`~repro.obs.TraceContext` — continuing the trace of an incoming
W3C ``traceparent`` header when present, freshly minted otherwise.
The handler thread opens the request's root span; the context rides
into the decode-loop thread so the engine's queue-wait / prefill /
per-step decode spans land under the same trace; and the trace id is
echoed back in ``traceparent`` / ``X-Trace-Id`` response headers, ready
to paste into ``GET /v1/trace?id=...``.

Admission control maps onto status codes: 429 + ``Retry-After`` when
the queue-depth cap sheds the request, 400 for invalid/over-budget
bodies, 504 when the request's wall-clock timeout cancelled it (the
partial result is included), 503 once shutdown has begun.  Requests
that can never fit the KV budget (``prompt + max_new_tokens`` over the
window, or over the page pool) get a 400 whose body carries a
``limits`` dict — identical on the blocking and streaming paths, both
of which funnel through the same submit validation.  Invalid
``"sampling"`` objects get the same treatment: a 400 whose body
carries a ``params`` dict naming the offending field, value, and
constraint.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs import Observability, TraceContext
from ..obs.exposition import CONTENT_TYPE as _PROM_CONTENT_TYPE
from ..infer.sampling_params import SamplingParams, SamplingParamsError
from .admission import AdmissionPolicy, ServeError
from .worker import EngineWorker, RequestHandle


def result_to_json(result) -> dict:
    """JSON-ready dict for one :class:`~repro.infer.GenerationResult`."""
    body = {
        "request_id": result.request_id,
        "tokens": list(result.tokens),
        "completion": list(result.completion),
        "prompt_len": result.prompt_len,
        "finish_reason": result.finish_reason,
        "steps": result.steps,
    }
    if result.params is not None:
        body["sampling"] = result.params.to_dict()
    timing = result.timing
    if timing is not None:
        body["timing"] = {
            "queue_wait_s": timing.queue_wait_s,
            "ttft_s": timing.ttft_s,
            "prefill_s": timing.prefill_s,
            "decode_s": timing.decode_s,
            "tokens_per_sec": timing.tokens_per_sec,
            "new_tokens": timing.new_tokens,
        }
    return body


class _ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the shared worker + telemetry."""

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default listen backlog of 5 resets a burst of
    # concurrent clients before the accept loop can reach them.
    request_queue_size = 128

    def __init__(self, address, handler, worker: EngineWorker,
                 bundle: Observability) -> None:
        super().__init__(address, handler)
        self.worker = worker
        self.bundle = bundle
        self.events = bundle.events


class _Handler(BaseHTTPRequestHandler):
    """Request handler: routes the three endpoints onto the worker."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection: a stream's headers and
    # first NDJSON chunk are two small writes, and Nagle's algorithm
    # would hold the chunk until the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    server: _ServeHTTPServer  # narrowed for attribute access below
    trace_ctx: TraceContext | None = None  # set per request in do_POST

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: D102 - stdlib override
        self.server.events.emit("http_log", line=fmt % args)

    def _trace_headers(self) -> dict:
        if self.trace_ctx is None:
            return {}
        return {"traceparent": self.trace_ctx.to_traceparent(),
                "X-Trace-Id": self.trace_ctx.trace_id}

    def _send_json(self, status: int, body: dict,
                   headers: dict | None = None) -> None:
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        merged = {**self._trace_headers(), **(headers or {})}
        for name, value in merged.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        payload = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length < 0:
            raise ValueError(f"Content-Length must be >= 0, got {length}")
        raw = self.rfile.read(length) if length else b""
        body = json.loads(raw.decode() or "{}")
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    # -- chunked streaming --------------------------------------------
    def _start_stream(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        for name, value in self._trace_headers().items():
            self.send_header(name, value)
        self.end_headers()

    def _stream_line(self, record: dict) -> None:
        data = (json.dumps(record) + "\n").encode()
        self.wfile.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
        self.wfile.flush()

    def _end_stream(self) -> None:
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    # -- routes --------------------------------------------------------
    def do_GET(self):  # noqa: D102 - stdlib route dispatch
        parsed = urllib.parse.urlsplit(self.path)
        if parsed.path == "/healthz":
            verdict = self.server.worker.health()
            status = 503 if verdict["status"] == "failing" else 200
            self._send_json(status, verdict)
        elif parsed.path == "/v1/stats":
            self._send_json(200, self.server.worker.stats())
        elif parsed.path == "/metrics":
            body = self.server.worker.metrics_text()
            self._send_text(200, body, _PROM_CONTENT_TYPE)
        elif parsed.path == "/v1/trace":
            self._respond_trace(parsed.query)
        else:
            self._send_json(404, {"error": "NotFound", "detail": self.path})

    def _respond_trace(self, query: str) -> None:
        params = urllib.parse.parse_qs(query)
        trace_ids = params.get("id")
        if not trace_ids:
            self._send_json(400, {"error": "BadRequest",
                                  "detail": "missing ?id=<trace_id>"})
            return
        tracer = self.server.bundle.tracer
        chrome = tracer.trace_slice(trace_ids[0])
        chrome["tracing_enabled"] = tracer.enabled
        self._send_json(200, chrome)

    def do_POST(self):  # noqa: D102 - stdlib route dispatch
        if self.path != "/v1/submit":
            self._send_json(404, {"error": "NotFound", "detail": self.path})
            return
        # One TraceContext per request: continue the caller's trace when
        # a traceparent header arrives, mint a fresh one otherwise.  The
        # ids come from os.urandom, never a seeded generator, so request
        # handling stays bit-identical for seeded decoding runs.
        remote = TraceContext.from_traceparent(self.headers.get("traceparent"))
        self.trace_ctx = remote.child() if remote is not None \
            else TraceContext.new()
        tracer = self.server.bundle.tracer
        with tracer.span("serve.request", ctx=self.trace_ctx,
                         path=self.path):
            self._handle_submit()

    def _handle_submit(self) -> None:
        try:
            body = self._read_json()
            prompt = body["prompt"]
            # Passed through as sent: the engine rejects a non-integer
            # (2.9, true, "3") with the same 400 on both paths.
            max_new_tokens = body["max_new_tokens"]
            stream = body.get("stream", False)
            if not isinstance(stream, bool):
                raise ValueError(
                    f"stream must be true or false, got {stream!r}")
            # Distinguish absent (engine default) from explicit null
            # (disable the stop token for this request).
            stop_token = body["stop_token"] if "stop_token" in body else ...
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": "BadRequest", "detail": str(exc)})
            return
        params = None
        if "sampling" in body and body["sampling"] is not None:
            try:
                params = SamplingParams.from_dict(body["sampling"])
            except SamplingParamsError as exc:
                # Parsed before the stream/blocking split, so both paths
                # return byte-identical 400 bodies with the structured
                # ``params`` payload.
                self._send_json(400, {"error": "SamplingParamsError",
                                      "detail": str(exc),
                                      "params": exc.params})
                return
        try:
            handle = self.server.worker.submit(prompt, max_new_tokens,
                                               stop_token,
                                               trace_ctx=self.trace_ctx,
                                               params=params)
        except ServeError as exc:
            headers = {}
            retry = getattr(exc, "retry_after_s", None)
            if retry is not None:
                headers["Retry-After"] = f"{retry:g}"
            self._send_json(exc.status, exc.to_json(), headers)
            return
        if stream:
            self._respond_streaming(handle)
        else:
            self._respond_blocking(handle)

    def _respond_blocking(self, handle: RequestHandle) -> None:
        result = handle.wait()
        body = result_to_json(result)
        if handle.timed_out:
            body["error"] = "Timeout"
            self._send_json(504, body)
        else:
            self._send_json(200, body)

    def _respond_streaming(self, handle: RequestHandle) -> None:
        try:
            self._start_stream()
            first = {"request_id": handle.request_id}
            if self.trace_ctx is not None:
                first["trace_id"] = self.trace_ctx.trace_id
            if handle.params is not None:
                first["sampling"] = handle.params.to_dict()
            self._stream_line(first)
            for token in handle.tokens():
                self._stream_line({"token": token})
            result = handle.wait()
            final = {"done": True, "timed_out": handle.timed_out}
            final.update(result_to_json(result))
            self._stream_line(final)
            self._end_stream()
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-stream: reclaim the slot instead of
            # decoding tokens nobody will read.
            self.server.worker.cancel(handle.request_id)
            self.close_connection = True


class InferenceServer:
    """HTTP serving facade: engine + worker + threaded HTTP front end.

    Takes ownership of ``engine`` (one owner — nothing else may call it
    once the server starts).  ``port=0`` binds an ephemeral
    port, exposed as :attr:`port`/:attr:`url` after construction.

    Telemetry goes through the engine's bundle (``engine.obs``): build
    the engine with ``obs=`` to trace, log and fill ``/metrics``.
    ``slo`` (an :class:`~repro.obs.SLOMonitor`) drives the three-state
    ``/healthz`` verdict; omitted, a default monitor with loose
    thresholds is created.  ``flight`` (an
    :class:`~repro.obs.FlightRecorder`) is attached to the telemetry
    bundle and dumped if the decode loop crashes.

    Usage::

        engine = GenerationEngine(model, batch_size=8,
                                  params=SamplingParams(greedy=True))
        with InferenceServer(engine, policy=AdmissionPolicy(
                max_queue_depth=32, request_timeout_s=30.0)) as server:
            print("listening on", server.url)
            ...
    """

    def __init__(self, engine, policy: AdmissionPolicy | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 slo=None, flight=None):
        self.flight = flight
        if flight is not None:
            # The blackbox dumps the bundle's own event log and spans,
            # and arms process-level crash hooks.
            flight.attach(engine.obs)
            flight.install()
        self.worker = EngineWorker(engine, policy=policy, slo=slo,
                                   flight=flight)
        self.slo = self.worker.slo
        self._httpd = _ServeHTTPServer((host, port), _Handler,
                                       self.worker, engine.obs)
        self.host, self.port = self._httpd.server_address[:2]
        self.url = f"http://{self.host}:{self.port}"
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http",
            daemon=True)
        self._started = False

    def start(self) -> "InferenceServer":
        """Start the decode loop and the HTTP accept loop."""
        if not self._started:
            self._started = True
            self.worker.start()
            self._http_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, cancel pending requests, join both threads."""
        if self._started:
            self._httpd.shutdown()
        self._httpd.server_close()
        self.worker.close()
        if self._started:
            self._http_thread.join(timeout=10.0)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def stats(self) -> dict:
        """In-process alias for ``GET /v1/stats``."""
        return self.worker.stats()
