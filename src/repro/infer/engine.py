"""Continuous-batching generation engine over the paged KV cache.

Decoding one prompt at a time makes N users cost N full decode loops.
:class:`GenerationEngine` instead keeps a fixed pool of ``batch_size``
cache slots and advances *every* active sequence in each model step —
one batched ``decode_step`` instead of one step per user.  Sequences
are admitted from a queue, left-aligned at position 0 with their own
per-slot length counters (so a short prompt starts sampling while a
long one is still prefilling), and retired independently the moment
they emit their stop token or exhaust their token budget; a queued
prompt immediately takes the freed slot (continuous batching), so the
batch stays full whenever there is work.

Sampling is configured **per request**: each submit carries a
:class:`~repro.infer.SamplingParams` (the constructor's ``params=`` is
the default for requests without one), and the sampler groups slots with
identical parameters into one vectorized
:func:`repro.core.sampling.sample_token` call per group, drawing from
the engine RNG in slot order.  When every slot shares the default
parameters this collapses to exactly the old single batched call, so
existing seeds keep producing identical streams; with a single slot the
engine consumes the RNG exactly like :meth:`LanguageModel.generate`
(one draw per token), which is what ``generate_fast`` relies on.  A
request with ``seed`` set draws from its own private RNG, making its
trajectory independent of batch composition; an engine built without an
RNG accepts only greedy or seeded requests.

Every model step is a **span step** over the paged KV cache: a decoding
slot feeds its one pending token, while a prefilling slot (or one
replaying after preemption) feeds a *span* of its next prompt tokens,
taken from a fixed per-step prompt-token budget (:data:`PREFILL_BUDGET`).
The rows of one span attend causally to each other in the same forward,
as in training, so a prompt enters in ``ceil(len / budget)`` steps
instead of one step per token — and every active slot still gets at
least one row, so decoding never stalls behind a long prompt.

Speculative decoding: passing a :class:`~repro.infer.SpeculativeConfig`
makes every decoding slot draft ``k`` tokens from a cheap
:class:`~repro.infer.DraftModel` (the classical LMs in :mod:`repro.lm`
via :class:`~repro.lm.LanguageModelDraft`) and verify all of them plus
the pending token as one span of the same step, written into a
:meth:`~repro.infer.PagedKVCache.fork_slot` of the sequence's slot; the
longest accepted prefix is kept by rejection sampling, and
:meth:`~repro.infer.PagedKVCache.promote_fork` commits the accepted
pages and rolls the rejected ones back to the pool.  Greedy requests
emit the same tokens as the non-speculative engine while emitting up
to k+1 tokens per model step; stochastic requests stay
distribution-correct (docs/SPECULATIVE.md gives the argument).

Serving telemetry: every request is stamped through its lifecycle —
submitted, admitted to a slot, first sampled token, finished — so each
:class:`GenerationResult` carries a :class:`RequestTiming` with queue
wait, prefill vs. decode split, time-to-first-token, and tokens/sec.
:meth:`GenerationEngine.stats` snapshots engine-level serving state
(slot occupancy, queue depth, steps, sampled tokens).  Passing an
:class:`~repro.obs.Observability` additionally emits per-step spans and
request lifecycle events, and registers ``engine.*`` metrics that read
the same counts ``stats()`` reports; the stamps never touch the RNG
stream, so instrumented decoding stays bit-identical.

KV memory: the :class:`~repro.infer.PagedKVCache` admission reserves KV
*pages* instead of assuming a dense ``slots x max_len`` buffer, prompts
sharing a cached prefix skip the covered prefill positions, retirement
and :meth:`GenerationEngine.cancel` return pages to the pool, and an
oversubscribed pool preempts the youngest sequence instead of crashing
mid-decode (docs/KV_CACHE.md).
"""

from __future__ import annotations

import operator
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from ..core.sampling import sample_token
from ..obs import NULL_OBS, Observability
from .paged_kv import PagedKVCache
from .sampling_params import SamplingParams, SamplingParamsError
from .speculative import SpeculativeConfig, verify_draft

# Prompt tokens one step may feed across all prefilling slots.  Chosen by
# the `batch` workload sweep recorded in docs/KV_CACHE.md.
PREFILL_BUDGET = 64


def _index(value) -> int:
    """``operator.index`` that also refuses ``bool``: ``True`` would pass
    as 1, but a JSON ``true`` is neither a token id nor a count."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool, not an integer")
    return operator.index(value)


class PromptLimitError(ValueError):
    """A request that can never fit: structured rejection for serving.

    Raised by :meth:`GenerationEngine.submit` with a ``limits`` dict
    (prompt_len, max_new_tokens, the cache's max_seq_len, and — under a
    paged cache — pool capacity) so the HTTP layer can return the same
    structured 400 on the blocking and streaming paths instead of each
    reformatting a bare string.
    """

    def __init__(self, message: str, limits: dict):
        super().__init__(message)
        self.limits = limits


@dataclass
class RequestTiming:
    """Lifecycle stamps for one request (``time.perf_counter`` seconds)."""

    submitted: float
    admitted: float
    first_token: float
    finished: float
    new_tokens: int

    @property
    def queue_wait_s(self) -> float:
        """Time spent queued before a cache slot freed up."""
        return self.admitted - self.submitted

    @property
    def ttft_s(self) -> float:
        """Submit-to-first-sampled-token latency (the user-felt number)."""
        return self.first_token - self.submitted

    @property
    def prefill_s(self) -> float:
        """Admission to first sampled token: prompt ingestion cost."""
        return self.first_token - self.admitted

    @property
    def decode_s(self) -> float:
        """First sampled token to completion: steady-state decoding."""
        return self.finished - self.first_token

    @property
    def tokens_per_sec(self) -> float:
        """Generated tokens over on-engine time (excludes queue wait)."""
        elapsed = self.finished - self.admitted
        return self.new_tokens / elapsed if elapsed > 0 else 0.0


@dataclass
class GenerationResult:
    """One finished sequence, in ``generate_fast`` conventions."""

    request_id: int
    tokens: list[int]            # prompt + completion, stop token included
    prompt_len: int
    finish_reason: str           # "stop_token" | "length"
    steps: int = 0               # model steps this sequence took part in
    timing: RequestTiming | None = None
    params: SamplingParams | None = None   # resolved per-request params

    @property
    def completion(self) -> list[int]:
        return self.tokens[self.prompt_len:]


@dataclass
class _Sequence:
    """In-flight bookkeeping for one slot."""

    request_id: int
    tokens: list[int]            # prompt, then sampled tokens as they land
    prompt_len: int
    max_new_tokens: int
    params: SamplingParams
    rng: np.random.Generator | None = None  # private stream when seeded
    fed: int = 0                 # how many of ``tokens`` the model has seen
    steps: int = 0
    submitted_t: float = 0.0
    admitted_t: float | None = None
    first_token_t: float | None = None
    trace_ctx: object | None = None   # TraceContext of the request root span


class GenerationEngine:
    """Batched KV-cached decoding for a :class:`TransformerLM`-style model.

    The model only needs ``config`` (for sizing the cache) and
    ``decode_step(tokens, positions, states) -> (n, V) logits``.
    Sampling is configured per request via
    :class:`~repro.infer.SamplingParams` (``params=`` on
    :meth:`submit`); ``params=`` on the constructor sets the default for
    requests that do not carry their own.  ``rng`` serves stochastic
    requests without a ``seed``; without it :meth:`submit` rejects
    them.  ``speculative=`` (a
    :class:`~repro.infer.SpeculativeConfig`) turns on draft-and-verify
    decoding over the paged cache.
    """

    def __init__(
        self,
        model,
        batch_size: int = 8,
        rng: np.random.Generator | None = None,
        obs: Observability | None = None,
        on_token=None,
        kv_page_size: int = 16,
        kv_num_pages: int | None = None,
        prefix_cache: bool = True,
        params: SamplingParams | None = None,
        speculative: SpeculativeConfig | None = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.batch_size = batch_size
        self.rng = rng
        self.default_params = params if params is not None else SamplingParams()
        # Per-token hook for streaming consumers (the serving layer):
        # called as on_token(request_id, token) for every sampled token,
        # stop tokens included, after the token lands on the sequence.
        # Runs inside step(), so callbacks must be cheap and must never
        # touch the engine's RNG.
        self.on_token = on_token
        self.spec = speculative
        # Speculative mode doubles the slot count: slot i's draft branch
        # verifies on scratch slot batch_size + i.  The pool is sized for
        # the *real* batch plus per-slot speculation headroom (the span's
        # fresh pages and one copy-on-write of the fork boundary page),
        # not for 2x dense capacity.
        slots = batch_size
        num_pages = kv_num_pages
        if speculative is not None:
            slots = 2 * batch_size
            if num_pages is None:
                per_slot = -(-model.config.max_seq_len // kv_page_size)
                margin = -(-(speculative.k + 1) // kv_page_size) + 1
                num_pages = batch_size * (per_slot + margin)
        self.cache = PagedKVCache.for_model(
            model, slots, page_size=kv_page_size,
            num_pages=num_pages, prefix_sharing=prefix_cache)
        self._slots: list[_Sequence | None] = [None] * batch_size
        self._queue: deque[_Sequence] = deque()
        self._results: list[GenerationResult] = []
        self._next_id = 0
        self.total_steps = 0
        self.total_rows = 0     # positions fed: prompt chunks + decode rows
        # Serving accounting (cheap, always on; see stats()).
        self._clock = time.perf_counter
        self._active_slot_steps = 0     # sum over steps of active-slot count
        self._sampled_tokens = 0
        self._submitted = 0
        self._completed = 0
        self.preemptions = 0
        # Speculative accounting: drafts proposed / accepted / rejected,
        # and verify rounds (model steps that judged at least one draft).
        self.spec_proposed = 0
        self.spec_accepted = 0
        self.spec_rejected = 0
        self.spec_rounds = 0
        # Observability hooks; null objects when obs is None.  The two
        # latency histograms are the only series pushed: every other
        # engine series reads the count kept above or the cache's own
        # state when the registry is read (the decode thread, under a
        # serving worker), so /metrics and stats() share one source.
        self.obs = obs if obs is not None else NULL_OBS
        self._tracer = self.obs.tracer
        self._events = self.obs.events
        metrics = self.obs.metrics
        self._h_ttft = metrics.histogram("engine.ttft_seconds")
        self._h_queue_wait = metrics.histogram("engine.queue_wait_seconds")
        cache, prefix = self.cache, self.cache.prefix  # prefix may be None
        for name, read in (
                ("engine.steps", lambda: self.total_steps),
                ("engine.sampled_tokens", lambda: self._sampled_tokens),
                ("engine.preemptions", lambda: self.preemptions),
                ("prefix_cache.hit", lambda: getattr(prefix, "hits", 0)),
                ("prefix_cache.miss", lambda: getattr(prefix, "misses", 0)),
                ("prefix_cache.evict",
                 lambda: getattr(prefix, "evictions", 0)),
                ("engine.spec.proposed", lambda: self.spec_proposed),
                ("engine.spec.accepted", lambda: self.spec_accepted),
                ("engine.spec.rejected", lambda: self.spec_rejected)):
            metrics.counter(name, read=read)
        for name, read in (
                ("engine.active_slots", lambda: self.num_active),
                ("engine.queue_depth", lambda: self.num_queued),
                ("engine.kv_pages_free", lambda: cache.free_pages),
                ("engine.kv_pages_used", lambda: cache.used_pages),
                ("engine.kv_pages_shared", lambda: cache.shared_pages),
                ("engine.kv_bytes_pool", lambda: cache.nbytes),
                ("engine.kv_bytes_in_use", lambda: cache.bytes_in_use),
                ("engine.spec.accepted_tokens_per_step",
                 lambda: self._spec_rate)):
            metrics.gauge(name, read=read)

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def resolve_params(self, params: SamplingParams | None = None,
                       stop_token=...) -> SamplingParams:
        """The parameters a request submitted with these arguments gets.

        ``params=None`` means the engine default; an explicit
        ``stop_token`` argument (the ``...`` sentinel distinguishes
        "absent" from "disable with None") overrides whatever the chosen
        params carry, preserving the long-standing per-request override
        spelling.  The serving layer calls this to echo resolved
        parameters back to clients before the request finishes.
        """
        base = self.default_params if params is None else params
        if stop_token is not ...:
            base = replace(base, stop_token=stop_token)
        return base

    def submit(self, prompt, max_new_tokens: int, stop_token=...,
               trace_ctx=None,
               params: SamplingParams | None = None) -> int:
        """Queue one prompt; returns its request id.

        ``params`` (a :class:`~repro.infer.SamplingParams`) carries this
        request's sampling configuration; omitted, the engine default
        applies.  ``stop_token`` defaults (via the ``...`` sentinel) to
        the chosen params' value, so an explicit ``None`` disables
        stopping for this request only — see :meth:`resolve_params`.

        ``trace_ctx`` (a :class:`~repro.obs.TraceContext`) scopes this
        request's lifecycle telemetry to an end-to-end trace: queue-wait
        / prefill / per-step decode spans are recorded under it — even
        though they complete on the decode thread, not the caller's —
        and every event for the request is stamped with its trace id.

        A prompt that is not a sequence of integer ids in
        ``[0, vocab_size)`` and a ``max_new_tokens`` that is not an
        integer (``True`` and ``2.5`` included) raise ``ValueError``
        naming the field or the range, and without an engine ``rng`` an
        unseeded stochastic request raises
        :class:`~repro.infer.SamplingParamsError` naming ``seed`` — all
        here, rather than failing the whole batch mid-step.
        """
        try:
            ids = [_index(i) for i in prompt]
        except TypeError as exc:
            raise ValueError(
                "prompt must be a sequence of integer token ids") from exc
        try:
            max_new_tokens = _index(max_new_tokens)
        except TypeError as exc:
            raise ValueError(f"max_new_tokens must be an integer, got "
                             f"{max_new_tokens!r}") from exc
        if not ids:
            raise ValueError("GenerationEngine requires a non-empty prompt")
        vocab = self.model.config.vocab_size
        if min(ids) < 0 or max(ids) >= vocab:
            raise ValueError(f"token id out of range [0, {vocab}): "
                             f"min={min(ids)}, max={max(ids)}")
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        self._check_limits(len(ids), max_new_tokens)
        resolved = self.resolve_params(params, stop_token)
        if max_new_tokens and not resolved.greedy \
                and resolved.seed is None and self.rng is None:
            raise SamplingParamsError(
                "stochastic sampling needs a seed: this engine has no rng",
                {"field": "seed", "value": None,
                 "constraint": "an integer when the engine has no rng"})
        request_id = self._next_id
        self._next_id += 1
        self._submitted += 1
        now = self._clock()
        seq = _Sequence(
            request_id=request_id,
            tokens=ids,
            prompt_len=len(ids),
            max_new_tokens=max_new_tokens,
            params=resolved,
            rng=(np.random.default_rng(resolved.seed)
                 if resolved.seed is not None else None),
            submitted_t=now,
            trace_ctx=trace_ctx,
        )
        self._events.emit("request_submitted", request_id=request_id,
                          prompt_len=len(ids), max_new_tokens=max_new_tokens,
                          **self._trace_fields(trace_ctx))
        if max_new_tokens == 0:
            # Completes inline, but its lifecycle must still balance:
            # event-log consumers count submitted vs finished.
            self._finish_seq(seq, "length", now)
        else:
            self._queue.append(seq)
        return request_id

    def cancel(self, request_id: int) -> GenerationResult | None:
        """Abort a queued or in-flight request, reclaiming its slot now.

        The partial sequence (prompt plus any tokens sampled so far) is
        returned — and recorded in the drain queue — as a
        :class:`GenerationResult` with ``finish_reason="cancelled"``, so
        request accounting stays balanced (``request_finished`` is
        emitted).  Returns None when the id is unknown or already done.
        """
        seq = None
        for i, queued in enumerate(self._queue):
            if queued.request_id == request_id:
                seq = queued
                del self._queue[i]
                break
        if seq is None:
            for slot, active in enumerate(self._slots):
                if active is not None and active.request_id == request_id:
                    seq = active
                    self._slots[slot] = None
                    # Cancellation reclaims KV pages immediately — a
                    # timed-out request must not pin pool capacity.
                    self.cache.reset_slot(slot)
                    break
        if seq is None:
            return None
        return self._finish_seq(seq, "cancelled", self._clock())

    def _check_limits(self, prompt_len: int, max_new_tokens: int) -> None:
        """Single source of truth for "can this request ever complete?".

        Validates against the *cache's* ``max_seq_len`` (not the model
        config read separately — the two can differ when a cache is
        sized explicitly), and against total pool capacity.  Every
        ``submit`` caller — blocking and streaming serving paths
        included — hits this one check, so a borderline request
        (``prompt_len + max_new_tokens == max_seq_len``) is accepted or
        rejected identically everywhere; failures raise
        :class:`PromptLimitError` carrying the limits for a structured
        400.
        """
        total = prompt_len + max_new_tokens
        limits = {
            "prompt_len": prompt_len,
            "max_new_tokens": max_new_tokens,
            "max_seq_len": self.cache.max_seq_len,
        }
        if total > self.cache.max_seq_len:
            raise PromptLimitError(
                f"prompt + max_new_tokens = {total} exceeds window "
                f"L={self.cache.max_seq_len}", limits)
        limits["kv_num_pages"] = self.cache.num_pages
        need = self.cache.pages_for(total)
        if self.spec is not None:
            # Speculative rounds need scratch headroom on top of the
            # sequence itself: the verify span's pages plus one
            # copy-on-write of the fork boundary page.
            need += self.cache.pages_for(self.spec.k + 1) + 1
        if need > self.cache.num_pages:
            raise PromptLimitError(
                f"prompt + max_new_tokens = {total} needs "
                f"{need} KV pages; the pool "
                f"holds {self.cache.num_pages}", limits)

    @staticmethod
    def _trace_fields(trace_ctx) -> dict:
        """Event fields stamping a request's trace id (empty when untraced)."""
        if trace_ctx is None:
            return {}
        return {"trace_id": trace_ctx.trace_id}

    @property
    def num_active(self) -> int:
        return sum(seq is not None for seq in self._slots)

    @property
    def num_queued(self) -> int:
        return len(self._queue)

    @property
    def has_work(self) -> bool:
        return bool(self._queue) or self.num_active > 0

    # ------------------------------------------------------------------
    # Decode loop
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        now = None
        for slot in range(self.batch_size):
            if not self._queue:
                break
            if self._slots[slot] is None:
                seq = self._queue[0]
                # Page-availability admission: attach any cached prefix
                # pages and check the prompt's fresh pages fit; when the
                # pool cannot supply them, keep the request (and
                # everything behind it — FIFO) queued.
                cached = self.cache.try_admit(slot, seq.tokens)
                if cached is None:
                    break
                if cached != seq.fed:
                    seq.fed = cached
                    self._events.emit(
                        "prefix_cache_hit", request_id=seq.request_id,
                        cached_tokens=cached,
                        **self._trace_fields(seq.trace_ctx))
                self._queue.popleft()
                if now is None:
                    now = self._clock()
                seq.admitted_t = now
                self._h_queue_wait.observe(now - seq.submitted_t)
                self._events.emit("request_admitted", request_id=seq.request_id,
                                  slot=slot, queue_wait_s=now - seq.submitted_t,
                                  **self._trace_fields(seq.trace_ctx))
                if seq.trace_ctx is not None:
                    # Recorded retrospectively on the decode thread but
                    # parented under the request's root span, which lives
                    # on the submitting thread (cross-thread reparenting).
                    self._tracer.record_span(
                        "request.queue_wait", seq.submitted_t, now,
                        parent=seq.trace_ctx, request_id=seq.request_id,
                        slot=slot)
                self._slots[slot] = seq

    def _plan(self, active: list[int]) -> list[tuple]:
        """Rows each active slot feeds this step: ``(slot, seq, m, k)``
        in slot order.

        A slot with several known tokens still to feed (prefill, or
        replay after preemption) feeds a span of ``m`` of them from the
        step's :data:`PREFILL_BUDGET`, handed out oldest request first;
        a decoding slot feeds its one pending token, plus ``k`` drafts
        to verify under speculation.  Every slot gets at least one row,
        so decoding never waits for a long prompt to finish.
        """
        budget = PREFILL_BUDGET
        rows = {}
        for slot in sorted(active, key=lambda s: self._slots[s].request_id):
            seq = self._slots[slot]
            pending = len(seq.tokens) - seq.fed
            if pending > 1:
                m = max(1, min(pending, budget))
                budget = max(0, budget - m)
                rows[slot] = (m, 0)
            else:
                k = 0
                if self.spec is not None:
                    left = seq.max_new_tokens - (len(seq.tokens)
                                                 - seq.prompt_len)
                    k = max(0, min(self.spec.k, left - 1))
                rows[slot] = (1 + k, k)
        return [(slot, self._slots[slot], *rows[slot]) for slot in active]

    def _plan_step(self) -> list[tuple]:
        """Plan the step, preempting youngest-first until its pages fit.

        An oversubscribed pool can run dry mid-decode: several slots
        cross a page boundary in the same step with the free list empty.
        Rather than crash (or deadlock the batch), the youngest active
        request is recompute-preempted: its pages are released and it
        re-enters the *front* of the queue with its sampled tokens kept,
        so re-admission replays deterministically — feeding the kept
        tokens consumes no RNG draws, and its own registered prefix pages
        usually make the replay a cache hit.  The oldest sequence is
        never preempted, so the engine always makes progress (a lone
        sequence fits by the :meth:`submit` capacity check).
        """
        active = [slot for slot in range(self.batch_size)
                  if self._slots[slot] is not None]
        while True:
            plan = self._plan(active)
            spans = [(slot, seq.fed, m) for slot, seq, m, _ in plan]
            forked = {slot for slot, _, _, k in plan if k}
            if len(active) <= 1 or \
                    self.cache.span_page_shortfall(spans, forked) <= 0:
                return plan
            slot = max(active, key=lambda s: self._slots[s].request_id)
            seq = self._slots[slot]
            self._slots[slot] = None
            self.cache.reset_slot(slot)
            seq.fed = 0
            self._queue.appendleft(seq)
            active.remove(slot)
            self.preemptions += 1
            self._events.emit(
                "request_preempted", request_id=seq.request_id,
                tokens_kept=len(seq.tokens),
                **self._trace_fields(seq.trace_ctx))

    def _sample_rows(self, logits: np.ndarray, rows: list[int],
                     seqs: list[_Sequence]) -> np.ndarray:
        """One token per sampling row, grouping identical params.

        Rows sharing a :attr:`SamplingParams.sampling_key` draw through
        one vectorized :func:`sample_token` call from the engine RNG, in
        slot order within the group and first-appearance order across
        groups — a batch where every row carries the default params
        collapses to exactly the single pre-params call, so existing
        seeds keep their streams.  Rows with a per-request ``seed`` draw
        from their own RNG, making their tokens independent of batch
        composition.
        """
        drawn = np.empty(len(rows), dtype=np.int64)
        groups: dict[tuple, list[int]] = {}
        for pos, seq in enumerate(seqs):
            key = ("seeded", seq.request_id) if seq.rng is not None \
                else seq.params.sampling_key
            groups.setdefault(key, []).append(pos)
        for positions in groups.values():
            seq0 = seqs[positions[0]]
            p = seq0.params
            drawn[positions] = sample_token(
                logits[[rows[pos] for pos in positions]],
                rng=seq0.rng if seq0.rng is not None else self.rng,
                temperature=p.temperature, top_k=p.top_k, top_p=p.top_p,
                greedy=p.greedy,
            )
        return drawn

    def _land_token(self, seq: _Sequence, token: int, now: float,
                    step_t0: float) -> str | None:
        """Append one sampled token to ``seq``; returns the finish
        reason ("stop_token" | "length") or None while still running."""
        seq.tokens.append(token)
        if seq.first_token_t is None:
            seq.first_token_t = now
            self._h_ttft.observe(now - seq.submitted_t)
            if seq.trace_ctx is not None:
                self._tracer.record_span(
                    "request.prefill", seq.admitted_t, now,
                    parent=seq.trace_ctx, request_id=seq.request_id,
                    prompt_len=seq.prompt_len)
        elif seq.trace_ctx is not None and self._tracer.enabled:
            # One span per decode step per traced request, covering
            # this batched model step from the request's viewpoint.
            self._tracer.record_span(
                "request.decode_step", step_t0, now,
                parent=seq.trace_ctx, request_id=seq.request_id,
                step=seq.steps)
        if self.on_token is not None:
            self.on_token(seq.request_id, token)
        if seq.params.stop_token is not None \
                and token == seq.params.stop_token:
            return "stop_token"
        if len(seq.tokens) - seq.prompt_len >= seq.max_new_tokens:
            return "length"
        return None

    def _finish_seq(self, seq: _Sequence, reason: str,
                    now: float) -> GenerationResult:
        """Build, record and account one finished request.

        A request never admitted (cancelled while queued, or finished
        inline with no tokens to generate) or never sampled takes
        ``now`` for the missing stamps.
        """
        generated = len(seq.tokens) - seq.prompt_len
        admitted = seq.admitted_t if seq.admitted_t is not None else now
        first = seq.first_token_t if seq.first_token_t is not None else now
        timing = RequestTiming(
            submitted=seq.submitted_t, admitted=admitted,
            first_token=first, finished=now, new_tokens=generated,
        )
        result = GenerationResult(
            request_id=seq.request_id, tokens=seq.tokens,
            prompt_len=seq.prompt_len, finish_reason=reason,
            steps=seq.steps, timing=timing, params=seq.params,
        )
        self._results.append(result)
        self._completed += 1
        self._events.emit(
            "request_finished", request_id=seq.request_id,
            finish_reason=reason, steps=seq.steps,
            new_tokens=generated, queue_wait_s=timing.queue_wait_s,
            ttft_s=timing.ttft_s, decode_s=timing.decode_s,
            tokens_per_sec=timing.tokens_per_sec,
            **self._trace_fields(seq.trace_ctx),
        )
        return result

    def step(self) -> list[GenerationResult]:
        """Run one span step; return newly finished results (empty list
        while everything is still running).

        Every active slot contributes one span of consecutive positions
        (see :meth:`_plan`) to a single batched ``decode_step``:

        - a prefilling or replaying slot feeds the next known tokens on
          its own slot and, once its last known token is in, samples
          from that row — prompt and first token in one step when the
          prompt fits the budget;
        - a decoding slot feeds its pending token and samples the next;
        - under a :class:`~repro.infer.SpeculativeConfig`, a decoding
          slot forks its slot to the scratch slot ``batch_size + slot``,
          drafts ``k`` tokens, and verifies pending + drafts there; the
          accept-prefix rule then decides how much of the scratch
          branch :meth:`~repro.infer.PagedKVCache.promote_fork` keeps.

        Greedy speculative requests emit the non-speculative tokens: the
        verify rows see the same history the sequential steps would
        write, and the greedy accept rule emits argmax at every position.
        """
        self._admit()
        plan = self._plan_step()
        if not plan:
            return []
        # Drafting happens before the forward and consumes each
        # sequence's own RNG (or the engine RNG) in slot order; greedy
        # drafting consumes none.
        spans, tokens, drafts = [], [], {}
        for slot, seq, m, k in plan:
            f = seq.fed
            if k:
                rng = seq.rng if seq.rng is not None else self.rng
                drafts[slot] = self.spec.draft.propose(seq.tokens, k,
                                                       seq.params, rng)
                self.cache.fork_slot(slot, self.batch_size + slot)
                spans.append((self.batch_size + slot, f, m))
                tokens.append(seq.tokens[f])
                tokens.extend(int(d) for d in drafts[slot][0])
            else:
                spans.append((slot, f, m))
                tokens.extend(seq.tokens[f:f + m])

        span = self.cache.begin_spans(spans)
        step_t0 = self._clock() if self._tracer.enabled else 0.0
        with self._tracer.span("engine.step", active=len(plan),
                               queued=len(self._queue), rows=len(tokens)):
            logits = self.model.decode_step(
                np.asarray(tokens, dtype=np.int64), span.positions,
                span.layers)
        self.total_steps += 1
        self.total_rows += len(tokens)
        self._active_slot_steps += len(plan)
        now = self._clock()

        # Fed spans commit first; rows that completed their sequence
        # sample through one grouped call, in slot order.
        picks, verifies, hi = [], [], 0
        for slot, seq, m, k in plan:
            lo, hi = hi, hi + m
            seq.steps += 1
            if k:
                verifies.append((slot, seq, lo, hi))
                continue
            self._advance_fed(slot, seq, seq.fed + m)
            self.cache.commit_span(slot, seq.fed)
            if seq.fed == len(seq.tokens):
                picks.append((slot, seq, hi - 1))
        finished: list[GenerationResult] = []
        if picks:
            drawn = self._sample_rows(logits, [row for _, _, row in picks],
                                      [seq for _, seq, _ in picks])
            self._sampled_tokens += len(picks)
            for (slot, seq, _), token in zip(picks, drawn):
                reason = self._land_token(seq, int(token), now, step_t0)
                if reason is not None:
                    finished.append(self._retire(slot, seq, reason, now))

        # Verify spans: accept-prefix per sequence, then promote the
        # scratch branch onto the canonical slot truncated to the
        # accepted length — the rollback of rejected pages.
        for slot, seq, lo, hi in verifies:
            k = hi - lo - 1
            f = seq.fed
            rng = seq.rng if seq.rng is not None else self.rng
            emitted, accepted = verify_draft(logits[lo:hi], *drafts[slot],
                                             seq.params, rng)
            self.spec_proposed += k
            self.spec_accepted += accepted
            self.spec_rejected += k - accepted
            self.spec_rounds += 1
            reason = None
            kept = 0
            for token in emitted:
                kept += 1
                reason = self._land_token(seq, token, now, step_t0)
                if reason is not None:
                    break
            self._sampled_tokens += kept
            # Positions f .. f + min(accepted, kept) hold KV of tokens
            # that made it into the sequence (the pending token plus the
            # kept accepted drafts); everything beyond is rejected or
            # truncated by an early stop token and rolls back.
            new_fed = f + 1 + min(accepted, kept)
            self.cache.promote_fork(self.batch_size + slot, slot, new_fed)
            self._advance_fed(slot, seq, new_fed)
            if reason is not None:
                finished.append(self._retire(slot, seq, reason, now))
        return finished

    def _advance_fed(self, slot: int, seq: _Sequence, fed: int) -> None:
        """Record that ``slot`` holds KV for ``fed`` positions of ``seq``.

        The step the prompt is fully ingested, its full pages are
        published so later requests sharing the prefix skip this work
        (idempotent if the pages came from the cache in the first
        place).  Only the prompt is published: after a preemption replay
        ``tokens`` also holds sampled tokens.
        """
        if seq.fed < seq.prompt_len <= fed:
            self.cache.register_prefix(slot, seq.tokens[:seq.prompt_len])
        seq.fed = fed

    def _retire(self, slot: int, seq: _Sequence, reason: str,
                now: float) -> GenerationResult:
        """Finish ``seq`` and free its slot and pages right away.

        Reclaiming now (not lazily at the next admission) drops
        prefix-cached pages to refcount 1, where they become evictable,
        and sends everything else straight back to the free list.
        """
        self._slots[slot] = None
        self.cache.reset_slot(slot)
        return self._finish_seq(seq, reason, now)

    def run(self) -> list[GenerationResult]:
        """Decode until queue and slots are empty; results in request order."""
        while self.has_work:
            self.step()
        results = self.drain()
        results.sort(key=lambda r: r.request_id)
        return results

    def drain(self) -> list[GenerationResult]:
        """Remove and return every finished-but-uncollected result.

        The incremental counterpart to :meth:`run` for callers driving
        :meth:`step` themselves (the serving layer's decode loop): each
        call hands back only results finished since the last drain, so
        long-lived engines never accumulate unbounded result lists.
        """
        results, self._results = self._results, []
        return results

    def generate(self, prompts, max_new_tokens: int) -> list[list[int]]:
        """Batch convenience: token lists (prompt + completion) in input
        order, matching ``generate(prompt, max_new_tokens)`` per row.

        Tracks its own request ids rather than assuming they are
        contiguous, so requests queued by other ``submit()`` callers are
        neither mis-mapped into this batch nor silently discarded — their
        results stay drainable via :meth:`run`.
        """
        ids = [self.submit(prompt, max_new_tokens) for prompt in prompts]
        wanted = set(ids)
        mine: dict[int, GenerationResult] = {}
        self._drain_into(wanted, mine)
        while len(mine) < len(wanted):
            if not self.has_work:
                missing = sorted(wanted - mine.keys())
                raise RuntimeError(
                    f"engine drained without finishing requests {missing}")
            self.step()
            self._drain_into(wanted, mine)
        return [mine[request_id].tokens for request_id in ids]

    def _drain_into(self, wanted: set, out: dict) -> None:
        """Move finished results with ids in ``wanted`` out of the drain
        queue, keeping everything else for other consumers."""
        kept = []
        for result in self._results:
            if result.request_id in wanted:
                out[result.request_id] = result
            else:
                kept.append(result)
        self._results = kept

    # ------------------------------------------------------------------
    # Serving snapshot
    # ------------------------------------------------------------------
    @property
    def _spec_rate(self) -> float:
        """Accepted drafts per verify round (0.0 before the first)."""
        return (self.spec_accepted / self.spec_rounds
                if self.spec_rounds else 0.0)

    def stats(self) -> dict:
        """JSON-ready snapshot of engine-level serving state.

        ``occupancy`` is the fraction of slot-steps that carried an
        active sequence — 1.0 means the batch stayed full for the whole
        run, the continuous-batching ideal.
        """
        slot_steps = self.total_steps * self.batch_size
        kv = self.cache.stats()
        kv["preemptions"] = self.preemptions
        spec = None
        if self.spec is not None:
            spec = {
                "k": self.spec.k,
                "draft": type(self.spec.draft).__name__,
                "proposed": self.spec_proposed,
                "accepted": self.spec_accepted,
                "rejected": self.spec_rejected,
                "rounds": self.spec_rounds,
                "acceptance_rate": (self.spec_accepted / self.spec_proposed
                                    if self.spec_proposed else 0.0),
                "accepted_tokens_per_step": self._spec_rate,
            }
        out = {
            "batch_size": self.batch_size,
            "dtype": self.cache.dtype.name,
            "active_slots": self.num_active,
            "queue_depth": self.num_queued,
            "total_steps": self.total_steps,
            "total_rows": self.total_rows,
            "sampled_tokens": self._sampled_tokens,
            "requests_submitted": self._submitted,
            "requests_completed": self._completed,
            "occupancy": (self._active_slot_steps / slot_steps
                          if slot_steps else 0.0),
            "kv": kv,
        }
        if spec is not None:
            out["spec"] = spec
        return out
