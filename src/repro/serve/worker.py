"""Single-consumer decode loop: the thread that owns the engine.

:class:`~repro.infer.GenerationEngine` is single-threaded by design —
its RNG stream, KV cache, and slot bookkeeping all assume one caller.
:class:`EngineWorker` preserves that invariant under concurrent clients
by making the engine single-*consumer*: exactly one background thread
calls ``step()``, and every other entry point (``submit``, ``cancel``,
``stats``) takes the same lock before touching the engine.  Because the
decode thread holds the lock only per step, submitters interleave
between steps; because nothing else ever steps, the RNG consumption
order — and therefore bit-identical decoding — is exactly what a
single-threaded caller would produce.

The flow per request:

1. ``submit()`` (any thread) — admission check against the
   :class:`~repro.serve.admission.AdmissionPolicy`, then
   ``engine.submit()`` under the lock, returning a
   :class:`RequestHandle` the caller can stream from or block on.
2. the decode loop — ``step()`` under the lock; sampled tokens are
   pushed to each request's handle via the engine's ``on_token`` hook,
   finished results are routed by id.
3. timeouts — before each step the loop cancels requests past their
   deadline (queued or active), reclaiming the slot; the handle
   finishes with ``timed_out=True``.

Everything observable goes through :mod:`repro.obs`: ``serve.*``
counters/gauges and ``request_shed`` / ``request_timeout`` events on
top of the engine's own lifecycle telemetry.
"""

from __future__ import annotations

import queue
import threading
import time

from ..infer.engine import GenerationResult
from ..obs import NULL_OBS, Observability, SLOMonitor
from ..train.faults import failpoint
from .admission import AdmissionPolicy, RejectError, ShedError

_DONE = object()


class RequestHandle:
    """Caller-side view of one accepted request.

    Tokens stream into an internal queue as the decode loop samples
    them; :meth:`tokens` yields them live, :meth:`wait` blocks for the
    final :class:`~repro.infer.GenerationResult`.  ``timed_out`` is set
    when the worker cancelled the request at its deadline.
    """

    def __init__(self, request_id: int, prompt_len: int,
                 deadline: float | None):
        self.request_id = request_id
        self.prompt_len = prompt_len
        self.deadline = deadline          # time.monotonic() seconds, or None
        self.params = None                # resolved SamplingParams (worker)
        self.timed_out = False
        self.result: GenerationResult | None = None
        self._stream: queue.Queue = queue.Queue()
        self._done = threading.Event()

    # -- worker side ---------------------------------------------------
    def _push(self, token: int) -> None:
        self._stream.put(token)

    def _finish(self, result: GenerationResult) -> None:
        self.result = result
        self._stream.put(_DONE)
        self._done.set()

    # -- client side ---------------------------------------------------
    def tokens(self):
        """Yield sampled tokens as they land; returns when the request
        finishes (stop token included, matching ``generate_fast``)."""
        while True:
            item = self._stream.get()
            if item is _DONE:
                return
            yield item

    def wait(self, timeout: float | None = None) -> GenerationResult:
        """Block until the request finishes; returns its result."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} still running after {timeout}s")
        return self.result

    @property
    def done(self) -> bool:
        return self._done.is_set()


class EngineWorker:
    """Lock-guarded serving façade over a :class:`GenerationEngine`.

    The worker takes ownership of the engine: it installs itself as the
    ``on_token`` hook and is the only caller of ``step()``/``drain()``.
    Construct, :meth:`start`, submit from any number of threads, and
    :meth:`close` when done (pending requests are cancelled).
    """

    def __init__(self, engine, policy: AdmissionPolicy | None = None,
                 obs: Observability | None = None,
                 idle_wait_s: float = 0.02,
                 slo: SLOMonitor | None = None,
                 flight=None):
        self.engine = engine
        self.policy = policy if policy is not None else AdmissionPolicy()
        engine.on_token = self._on_token
        self._idle_wait_s = idle_wait_s
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._handles: dict[int, RequestHandle] = {}
        self._closed = False
        self.crashed = False
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-decode", daemon=True)
        bundle = obs if obs is not None else NULL_OBS
        self._events = bundle.events
        self._metrics = bundle.metrics
        # The SLO monitor is always real (it is deterministic and RNG-
        # free), so /healthz gives a three-state verdict even without an
        # Observability bundle; breach events go wherever events go.
        self.slo = slo if slo is not None \
            else SLOMonitor(events=bundle.events)
        # Optional FlightRecorder: dumped when the decode loop crashes.
        self.flight = flight
        metrics = bundle.metrics
        self._c_accepted = metrics.counter("serve.accepted")
        self._c_shed = metrics.counter("serve.shed")
        self._c_rejected = metrics.counter("serve.rejected")
        self._c_timeouts = metrics.counter("serve.timeouts")
        self._c_completed = metrics.counter("serve.completed")
        self._g_inflight = metrics.gauge("serve.inflight")
        # Plain-int mirrors of the counters so stats() works with NULL_OBS.
        self._n_accepted = 0
        self._n_shed = 0
        self._n_rejected = 0
        self._n_timeouts = 0
        self._n_completed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EngineWorker":
        """Start the decode-loop thread (idempotent via Thread rules)."""
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the loop; cancel and finish every pending request."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for request_id in list(self._handles):
                self.engine.cancel(request_id)
            self._dispatch_locked()
            self._wake.notify_all()
        if self._thread.is_alive():   # join() raises if never started
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "EngineWorker":
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------
    # Submit path (any thread)
    # ------------------------------------------------------------------
    def submit(self, prompt, max_new_tokens: int,
               stop_token=..., trace_ctx=None,
               params=None) -> RequestHandle:
        """Admission-checked submit; returns a :class:`RequestHandle`.

        Raises :class:`~repro.serve.admission.ShedError` at the queue
        cap and :class:`~repro.serve.admission.RejectError` for invalid
        or over-budget requests.  ``trace_ctx`` (the request's
        :class:`~repro.obs.TraceContext`, minted by the HTTP layer) is
        forwarded to the engine so decode-thread spans land under it;
        ``params`` (a :class:`~repro.infer.SamplingParams`) overrides
        the engine-wide sampling defaults for this request.
        """
        with self._lock:
            if self._closed:
                raise RejectError("server is shutting down", status=503)
            free_slots = self.engine.batch_size - self.engine.num_active
            try:
                self.policy.check(self.engine.num_queued, free_slots,
                                  max_new_tokens)
            except RejectError:
                self._c_rejected.inc()
                self._n_rejected += 1
                raise
            except ShedError:
                self._c_shed.inc()
                self._n_shed += 1
                self._events.emit("request_shed",
                                  queue_depth=self.engine.num_queued,
                                  max_new_tokens=max_new_tokens)
                self.slo.observe_request(shed=True)
                raise
            try:
                request_id = self.engine.submit(prompt, max_new_tokens,
                                                stop_token,
                                                trace_ctx=trace_ctx,
                                                params=params)
            except ValueError as exc:
                self._c_rejected.inc()
                self._n_rejected += 1
                # PromptLimitError carries a structured ``limits`` dict
                # and SamplingParamsError a ``params`` dict; forwarding
                # them (under the matching body key) keeps the 400 body
                # identical on the blocking and streaming paths (both
                # land here).
                sp = getattr(exc, "params", None)
                if sp is not None:
                    raise RejectError(str(exc), payload=sp,
                                      payload_key="params") from exc
                raise RejectError(
                    str(exc),
                    payload=getattr(exc, "limits", None)) from exc
            self.slo.observe_queue_depth(self.engine.num_queued)
            deadline = None
            if self.policy.request_timeout_s is not None:
                deadline = time.monotonic() + self.policy.request_timeout_s
            handle = RequestHandle(request_id, len(list(prompt)), deadline)
            handle.params = self.engine.resolve_params(params, stop_token)
            self._handles[request_id] = handle
            self._c_accepted.inc()
            self._n_accepted += 1
            self._g_inflight.set(len(self._handles))
            # max_new_tokens == 0 completes inline inside engine.submit();
            # route it immediately so wait() never blocks on the loop.
            self._dispatch_locked()
            self._wake.notify()
        return handle

    def cancel(self, request_id: int) -> bool:
        """Cancel one request by id; True if it was still in flight."""
        with self._lock:
            cancelled = self.engine.cancel(request_id) is not None
            if cancelled:
                self._dispatch_locked()
            return cancelled

    # ------------------------------------------------------------------
    # Decode loop (worker thread only)
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        try:
            while True:
                with self._lock:
                    if self._closed:
                        return
                    if not self.engine.has_work:
                        # Bounded wait: also wakes to re-check deadlines of
                        # nothing (no work => no deadlines) and closure.
                        self._wake.wait(timeout=self._idle_wait_s)
                        if self._closed:
                            return
                    if self.engine.has_work:
                        self._expire_locked(time.monotonic())
                        # Named failpoint: tests (and chaos drills) inject
                        # a crash here to prove the flight-recorder path.
                        failpoint("serve.step")
                        self.engine.step()
                        self._dispatch_locked()
        except BaseException as exc:  # decode loop must never die silently
            self._crash(exc)

    def _crash(self, exc: BaseException) -> None:
        """Decode-loop crash path: finish handles, dump the blackbox.

        Cancels every in-flight request (their handles finish with
        ``finish_reason="cancelled"`` so blocked clients unblock instead
        of hanging forever), emits a ``server_crash`` event, and — when a
        :class:`~repro.obs.FlightRecorder` is attached — dumps
        ``flightrecord.json`` with the last N events/spans, the injected
        or real exception included.
        """
        with self._lock:
            self.crashed = True
            self._closed = True
            self._events.emit("server_crash", error=repr(exc))
            try:
                for request_id in list(self._handles):
                    self.engine.cancel(request_id)
                self._dispatch_locked()
            except BaseException:
                # The engine may be arbitrarily broken mid-step; handles
                # that could not be finished are abandoned, the dump
                # below is what matters now.
                pass
        if self.flight is not None:
            self.flight.record_crash(exc, dump=True)

    def _on_token(self, request_id: int, token: int) -> None:
        # Called by the engine inside step(); the worker already holds
        # the lock, so plain dict access is safe.
        handle = self._handles.get(request_id)
        if handle is not None:
            handle._push(token)

    def _expire_locked(self, now: float) -> None:
        expired = [h for h in self._handles.values()
                   if h.deadline is not None and now >= h.deadline]
        for handle in expired:
            handle.timed_out = True
            self.engine.cancel(handle.request_id)
            self._c_timeouts.inc()
            self._n_timeouts += 1
            self._events.emit("request_timeout",
                              request_id=handle.request_id,
                              timeout_s=self.policy.request_timeout_s)
        if expired:
            self._dispatch_locked()

    def _dispatch_locked(self) -> None:
        dispatched = False
        for result in self.engine.drain():
            handle = self._handles.pop(result.request_id, None)
            if handle is not None:
                handle._finish(result)
                self._c_completed.inc()
                self._n_completed += 1
                dispatched = True
                if result.finish_reason == "cancelled":
                    self.slo.observe_request(error=True)
                else:
                    ttft = (result.timing.ttft_s
                            if result.timing is not None else None)
                    self.slo.observe_request(ttft_s=ttft)
        self._g_inflight.set(len(self._handles))
        if dispatched:
            self.slo.observe_queue_depth(self.engine.num_queued)

    # ------------------------------------------------------------------
    # Observation (any thread)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready snapshot: engine state, server accounting, SLO, metrics.

        Top-level keys: the engine's own ``stats()`` fields (batch size,
        occupancy, queue depth, ...), plus ``server`` (accepted / shed /
        rejected / timeouts / completed / inflight / crashed + the
        admission policy), ``slo`` (the monitor's current
        :meth:`~repro.obs.SLOMonitor.evaluate` verdict), and ``metrics``
        (the full metrics-registry snapshot; ``{}`` without an
        Observability bundle).
        """
        with self._lock:
            snapshot = self.engine.stats()
            snapshot["server"] = {
                "accepted": self._n_accepted,
                "shed": self._n_shed,
                "rejected": self._n_rejected,
                "timeouts": self._n_timeouts,
                "completed": self._n_completed,
                "inflight": len(self._handles),
                "crashed": self.crashed,
                "policy": self.policy.to_dict(),
            }
        # Outside the worker lock: the SLO monitor and registry have
        # their own synchronization and never touch the engine.
        snapshot["slo"] = self.slo.evaluate()
        snapshot["metrics"] = self._metrics.snapshot()
        return snapshot

    def health(self) -> dict:
        """Three-state health verdict for ``GET /healthz``.

        The SLO monitor's ``ok|degraded|failing`` evaluation, forced to
        ``failing`` once the decode loop has crashed (a crashed server
        may still answer HTTP but can no longer decode).
        """
        verdict = self.slo.evaluate()
        if self.crashed:
            verdict["status"] = "failing"
            verdict["crashed"] = True
        return verdict
