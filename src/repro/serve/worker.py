"""Single-owner decode loop: the thread that owns the engine.

:class:`~repro.infer.GenerationEngine` is single-threaded by design —
its RNG stream, KV cache, and slot bookkeeping all assume one caller.
:class:`EngineWorker` keeps it so under concurrent clients: once
started, its decode thread is the only code that calls the engine.
``submit``, ``cancel``, ``stats``, ``metrics_text`` and ``close`` post
a command to a mailbox and wait for the reply; between two steps the
decode thread runs every posted command, then steps if there is work.
No lock is held across ``step()``, so admission checks see the exact
queue, and the RNG is consumed exactly as one caller would consume it
— decoding stays bit-identical.  A call that no decode thread will run
(before ``start()``, after ``close()`` or a crash, or from the decode
thread itself) runs on the caller's thread, since nothing else touches
the engine then.

The flow per request:

1. ``submit()`` (any thread) — posts the admission check against the
   :class:`~repro.serve.admission.AdmissionPolicy` plus
   ``engine.submit()``; the reply is a :class:`RequestHandle` the
   caller can stream from or block on.
2. the decode loop — ``step()``; sampled tokens are pushed to each
   request's handle via the engine's ``on_token`` hook, finished
   results are routed by id.
3. timeouts — before each step the loop cancels requests past their
   deadline (queued or active), reclaiming the slot; the handle
   finishes with ``timed_out=True``.

Everything observable goes through the engine's :mod:`repro.obs`
bundle (``engine.obs``): ``request_shed`` / ``request_timeout`` events
join the engine's own lifecycle telemetry, and the ``serve.*`` series
read the worker's ``_n_*`` ints and open handles.  The registry's
readers touch engine and worker state, so it is read only inside a
command (``stats``, ``metrics_text``).
"""

from __future__ import annotations

import queue
import threading
import time

from ..infer.engine import GenerationResult
from ..obs import SLOMonitor, to_prometheus
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

    def __init__(self, request_id: int, deadline: float | None):
        self.request_id = request_id
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


class EngineWorker:
    """Single-owner serving façade over a :class:`GenerationEngine`.

    The worker takes ownership of the engine: it installs itself as the
    ``on_token`` hook and, once started, its decode thread is the only
    caller of any engine method.  Construct, :meth:`start`, submit from
    any number of threads, and :meth:`close` when done (pending requests
    are cancelled).
    """

    def __init__(self, engine, policy: AdmissionPolicy | None = None,
                 slo: SLOMonitor | None = None, flight=None):
        self.engine = engine
        self.policy = policy if policy is not None else AdmissionPolicy()
        engine.on_token = self._on_token
        self._handles: dict[int, RequestHandle] = {}
        self._closed = False
        self.crashed = False
        # Posted (command, reply) pairs.  The condition guards only this
        # list and ``_accepting`` (True while a decode thread will run
        # what is posted); it is never held while the engine runs.
        self._mailbox: list = []
        self._posted = threading.Condition()
        self._accepting = False
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-decode", daemon=True)
        self._events = engine.obs.events
        self._metrics = engine.obs.metrics
        # The SLO monitor is always real (it is deterministic and RNG-
        # free), so /healthz gives a three-state verdict even without an
        # Observability bundle; breach events go wherever events go.
        self.slo = slo if slo is not None \
            else SLOMonitor(events=self._events)
        # Optional FlightRecorder: dumped when the decode loop crashes.
        self.flight = flight
        # Request accounting, read by stats() and the serve.* series.
        self._n_accepted = 0
        self._n_shed = 0
        self._n_rejected = 0
        self._n_timeouts = 0
        self._n_completed = 0
        for name, read in (
                ("serve.accepted", lambda: self._n_accepted),
                ("serve.shed", lambda: self._n_shed),
                ("serve.rejected", lambda: self._n_rejected),
                ("serve.timeouts", lambda: self._n_timeouts),
                ("serve.completed", lambda: self._n_completed)):
            self._metrics.counter(name, read=read)
        self._metrics.gauge("serve.inflight", read=lambda: len(self._handles))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EngineWorker":
        """Start the decode thread; a no-op once started or closed."""
        with self._posted:
            if self._accepting or self._closed:
                return self
            self._accepting = True
        try:
            self._thread.start()
        except BaseException:
            self._close_mailbox()
            raise
        return self

    def close(self) -> None:
        """Stop the loop; cancel and finish every pending request."""
        self._call(self._shutdown)
        if self._thread.is_alive() \
                and threading.current_thread() is not self._thread:
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "EngineWorker":
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------
    # Commands (any thread; run by the decode thread)
    # ------------------------------------------------------------------
    def _call(self, fn):
        """Return ``fn()`` as run by the decode thread between two steps
        (or run here, when no decode thread will run it)."""
        reply = queue.SimpleQueue()
        with self._posted:
            posted = (self._accepting
                      and threading.current_thread() is not self._thread)
            if posted:
                self._mailbox.append((fn, reply))
                self._posted.notify()
        if not posted:
            return fn()
        ok, value = reply.get()
        if ok:
            return value
        raise value

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
        return self._call(lambda: self._submit(
            prompt, max_new_tokens, stop_token, trace_ctx, params))

    def cancel(self, request_id: int) -> bool:
        """Cancel one request by id; True if it was still in flight."""
        return self._call(lambda: self._cancel(request_id))

    def stats(self) -> dict:
        """JSON-ready snapshot: engine state, server accounting, SLO, metrics.

        Top-level keys: the engine's own ``stats()`` fields (batch size,
        occupancy, queue depth, ...), plus ``server`` (accepted / shed /
        rejected / timeouts / completed / inflight / crashed + the
        admission policy), ``metrics`` (the engine bundle's registry
        snapshot, read in the same command, so its series equal their
        twins above; ``{}`` without an Observability bundle), and
        ``slo`` (the monitor's current
        :meth:`~repro.obs.SLOMonitor.evaluate` verdict).
        """
        snapshot = self._call(self._snapshot)
        # Off the decode thread: the SLO monitor has its own lock and
        # never touches the engine.
        snapshot["slo"] = self.slo.evaluate()
        return snapshot

    def metrics_text(self) -> str:
        """The engine bundle's registry as Prometheus text (``GET
        /metrics``), rendered by the decode thread between two steps."""
        return self._call(lambda: to_prometheus(
            self._metrics, labels={"job": "repro_serve"}))

    def health(self) -> dict:
        """Three-state health verdict for ``GET /healthz``.

        The SLO monitor's ``ok|degraded|failing`` evaluation, forced to
        ``failing`` once the decode loop has crashed (a crashed server
        may still answer HTTP but can no longer decode).  It never waits
        for the decode thread, so it answers while the loop is busy or
        dead.
        """
        verdict = self.slo.evaluate()
        if self.crashed:
            verdict["status"] = "failing"
            verdict["crashed"] = True
        return verdict

    def _submit(self, prompt, max_new_tokens, stop_token, trace_ctx,
                params) -> RequestHandle:
        if self._closed:
            raise RejectError("server is shutting down", status=503)
        free_slots = self.engine.batch_size - self.engine.num_active
        try:
            self.policy.check(self.engine.num_queued, free_slots,
                              max_new_tokens)
        except RejectError:
            self._n_rejected += 1
            raise
        except ShedError:
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
        handle = RequestHandle(request_id, deadline)
        handle.params = self.engine.resolve_params(params, stop_token)
        self._handles[request_id] = handle
        self._n_accepted += 1
        # max_new_tokens == 0 completes inline inside engine.submit();
        # route it immediately so wait() never blocks on the loop.
        self._dispatch()
        return handle

    def _cancel(self, request_id: int) -> bool:
        if self.engine.cancel(request_id) is None:
            return False
        self._dispatch()
        return True

    def _snapshot(self) -> dict:
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
        snapshot["metrics"] = self._metrics.snapshot()
        return snapshot

    def _shutdown(self) -> None:
        if not self._closed:
            self._closed = True
            self._cancel_all()

    def _cancel_all(self) -> None:
        for request_id in list(self._handles):
            self.engine.cancel(request_id)
        self._dispatch()

    # ------------------------------------------------------------------
    # Decode loop (decode thread only)
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        try:
            while not self._closed:
                # Idle: block until a command arrives (no work means no
                # deadlines to watch, so no timeout either).
                commands = self._take(wait=not self.engine.has_work)
                if commands:
                    self._run(commands)
                    # Yield the GIL so the callers just answered can
                    # respond before a step holds it for a model forward.
                    time.sleep(0)
                if self.engine.has_work:
                    self._expire(time.monotonic())
                    # Named failpoint: tests (and chaos drills) inject
                    # a crash here to prove the flight-recorder path.
                    failpoint("serve.step")
                    self.engine.step()
                    self._dispatch()
        except BaseException as exc:  # decode loop must never die silently
            self._crash(exc)
        finally:
            self._close_mailbox()

    def _close_mailbox(self) -> None:
        """Send later calls to their callers' threads; answer the rest."""
        with self._posted:
            self._accepting = False
        self._run(self._take(wait=False))

    def _take(self, wait: bool) -> list:
        """Empty the mailbox, first blocking for a command if ``wait``."""
        with self._posted:
            while wait and not self._mailbox:
                self._posted.wait()
            commands, self._mailbox = self._mailbox, []
        return commands

    @staticmethod
    def _run(commands: list) -> None:
        for fn, reply in commands:
            try:
                reply.put((True, fn()))
            except BaseException as exc:  # goes back to its caller
                reply.put((False, exc))

    def _crash(self, exc: BaseException) -> None:
        """Decode-loop crash path: finish handles, dump the blackbox.

        Cancels every in-flight request (their handles finish with
        ``finish_reason="cancelled"`` so blocked clients unblock instead
        of hanging forever), emits a ``server_crash`` event, and — when a
        :class:`~repro.obs.FlightRecorder` is attached — dumps
        ``flightrecord.json`` with the last N events/spans, the injected
        or real exception included.
        """
        self.crashed = True
        self._closed = True
        self._events.emit("server_crash", error=repr(exc))
        try:
            self._cancel_all()
        except BaseException:
            # The engine may be arbitrarily broken mid-step; handles
            # that could not be finished are abandoned, the dump
            # below is what matters now.
            pass
        if self.flight is not None:
            self.flight.record_crash(exc, dump=True)

    def _on_token(self, request_id: int, token: int) -> None:
        # Called by the engine inside step(), on the decode thread.
        handle = self._handles.get(request_id)
        if handle is not None:
            handle._push(token)

    def _expire(self, now: float) -> None:
        expired = [h for h in self._handles.values()
                   if h.deadline is not None and now >= h.deadline]
        for handle in expired:
            handle.timed_out = True
            self.engine.cancel(handle.request_id)
            self._n_timeouts += 1
            self._events.emit("request_timeout",
                              request_id=handle.request_id,
                              timeout_s=self.policy.request_timeout_s)
        if expired:
            self._dispatch()

    def _dispatch(self) -> None:
        dispatched = False
        for result in self.engine.drain():
            handle = self._handles.pop(result.request_id, None)
            if handle is not None:
                handle._finish(result)
                self._n_completed += 1
                dispatched = True
                if result.finish_reason == "cancelled":
                    self.slo.observe_request(error=True)
                else:
                    ttft = (result.timing.ttft_s
                            if result.timing is not None else None)
                    self.slo.observe_request(ttft_s=ttft)
        if dispatched:
            self.slo.observe_queue_depth(self.engine.num_queued)
