"""Admission control: decide at the door, shed instead of stalling.

A serving system that accepts every request degrades for everyone at
once — queues grow without bound, tail latency explodes, and clients
time out holding slots.  The production answer (and the one the
inference-serving literature in PAPERS.md prescribes) is to bound the
work the system will hold and refuse the rest *fast*:

- **queue-depth cap** — at most ``max_queue_depth`` requests may wait
  for a cache slot; beyond that new arrivals are shed with HTTP 429 and
  a ``Retry-After`` hint rather than queued into a latency cliff.
- **per-request token budget** — ``max_tokens_per_request`` bounds how
  much decode work one request can claim; over-budget asks are rejected
  with HTTP 400 (a client error, not load).
- **wall-clock timeout** — ``request_timeout_s`` bounds how long an
  accepted request may live (queued *or* decoding) before the worker
  cancels it and reclaims its slot.

The policy itself is a pure value object: :meth:`AdmissionPolicy.check`
raises :class:`ShedError`/:class:`RejectError`, and the worker/HTTP
layers translate those into status codes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass


class ServeError(Exception):
    """Base class for admission failures; carries the HTTP status."""

    status = 500
    #: Optional structured payload merged into the error body (e.g. the
    #: ``limits`` dict of a :class:`~repro.infer.PromptLimitError` or the
    #: ``params`` dict of a
    #: :class:`~repro.infer.SamplingParamsError`), so clients can
    #: machine-read *which* bound was exceeded instead of parsing the
    #: detail string.  ``payload_key`` names the body field it lands
    #: under.
    payload: dict | None = None
    payload_key: str = "limits"

    def to_json(self) -> dict:
        """JSON error body for the HTTP layer."""
        body = {"error": type(self).__name__, "detail": str(self)}
        if self.payload:
            body[self.payload_key] = dict(self.payload)
        return body


class ShedError(ServeError):
    """Load shed (HTTP 429): the wait queue is at its depth cap.

    Shedding is a *load* signal, not a client error — the request was
    well-formed, the server just refuses to queue it into a latency
    cliff.  ``retry_after_s`` becomes the ``Retry-After`` header.
    """

    status = 429

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class RejectError(ServeError):
    """Invalid or over-budget request (HTTP 4xx, default 400)."""

    def __init__(self, message: str, status: int = 400,
                 payload: dict | None = None,
                 payload_key: str = "limits"):
        super().__init__(message)
        self.status = status
        self.payload = payload
        self.payload_key = payload_key


@dataclass(frozen=True)
class AdmissionPolicy:
    """Serving knobs checked on every submit, before the engine is touched.

    Parameters
    ----------
    max_queue_depth:
        Maximum requests allowed to *wait* for a slot.  A request that
        will be admitted straight into a free slot never counts against
        the cap, so ``0`` means "serve while slots are free, shed the
        moment anyone would have to wait".
    max_tokens_per_request:
        Per-request decode budget; ``None`` leaves the model window as
        the only bound.  Over-budget requests are rejected with 400.
    request_timeout_s:
        Wall-clock lifetime of an accepted request (queue wait included).
        Expired requests are cancelled by the decode loop and their slot
        reclaimed; ``None`` disables timeouts.
    retry_after_s:
        Backoff hint attached to shed responses.
    """

    max_queue_depth: int = 64
    max_tokens_per_request: int | None = None
    request_timeout_s: float | None = None
    retry_after_s: float = 1.0

    def __post_init__(self):
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if (self.max_tokens_per_request is not None
                and self.max_tokens_per_request < 0):
            raise ValueError("max_tokens_per_request must be >= 0")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")

    def check(self, queue_depth: int, free_slots: int,
              max_new_tokens: int) -> None:
        """Raise :class:`ShedError`/:class:`RejectError` if the request
        may not be admitted.

        ``queue_depth - free_slots`` is the number of queued requests
        that will actually wait once the engine next admits; only those
        count against ``max_queue_depth``.  A ``max_new_tokens`` that is
        not an integer skips the budget: the engine's submit rejects it.
        """
        if (self.max_tokens_per_request is not None
                and isinstance(max_new_tokens, numbers.Integral)
                and max_new_tokens > self.max_tokens_per_request):
            raise RejectError(
                f"max_new_tokens={max_new_tokens} exceeds the per-request "
                f"budget of {self.max_tokens_per_request}")
        waiting = max(queue_depth - max(free_slots, 0), 0)
        if waiting >= self.max_queue_depth and free_slots <= queue_depth:
            raise ShedError(
                f"{waiting} requests waiting at cap {self.max_queue_depth} "
                f"({free_slots} free slots)",
                retry_after_s=self.retry_after_s)

    def to_dict(self) -> dict:
        """JSON-ready view of the knobs (surfaced in ``/v1/stats``)."""
        return {
            "max_queue_depth": self.max_queue_depth,
            "max_tokens_per_request": self.max_tokens_per_request,
            "request_timeout_s": self.request_timeout_s,
            "retry_after_s": self.retry_after_s,
        }
