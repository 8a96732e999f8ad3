"""Minimal stdlib HTTP client for :class:`~repro.serve.InferenceServer`.

``http.client`` only — the same zero-dependency rule as the server.
Used by the load bench and the test suite, and small enough to read as
wire-format documentation: one connection per call, JSON bodies, and
line-by-line reads of the ``application/x-ndjson`` streaming responses
(``http.client`` un-chunks transparently).

:class:`ServeClientError` carries the HTTP status and decoded body for
every non-2xx response, so callers can branch on ``status == 429``
(shed) vs ``504`` (timed out) vs ``400`` (rejected).
"""

from __future__ import annotations

import http.client
import json


def _plain(value):
    """``value`` as given, but NumPy arrays and scalars as plain lists
    and numbers (``json`` cannot encode them)."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class ServeClientError(Exception):
    """Non-2xx response; carries ``status`` and the decoded JSON body."""

    def __init__(self, status: int, body: dict, headers: dict):
        detail = body.get("detail", body.get("error", ""))
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.body = body
        self.headers = headers


class ServeClient:
    """Blocking client for the serving API (submit / stream / stats)."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def _request(self, method: str, path: str,
                 body: dict | None = None) -> dict:
        conn = self._connect()
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if payload is None else \
                {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            decoded = json.loads(response.read().decode() or "{}")
            if response.status >= 300:
                raise ServeClientError(response.status, decoded,
                                       dict(response.getheaders()))
            return decoded
        finally:
            conn.close()

    @staticmethod
    def _submit_body(prompt, max_new_tokens: int, stop_token,
                     stream: bool, sampling=None) -> dict:
        # Sent as given, so the server's 400 judges a 2.9 or a [1.5]
        # exactly as it judges any other client's body.
        body = {"prompt": _plain(prompt),
                "max_new_tokens": _plain(max_new_tokens)}
        if stop_token is not ...:
            body["stop_token"] = stop_token
        if stream:
            body["stream"] = True
        if sampling is not None:
            # Accept either a plain dict or a SamplingParams-like object.
            body["sampling"] = (sampling.to_dict()
                                if hasattr(sampling, "to_dict")
                                else dict(sampling))
        return body

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """``GET /healthz`` — the three-state SLO verdict.

        Raises :class:`ServeClientError` with ``status == 503`` when the
        server reports ``failing``; the decoded verdict is still on the
        exception's ``body``.
        """
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """``GET /metrics`` — raw Prometheus text exposition."""
        conn = self._connect()
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            text = response.read().decode()
            if response.status >= 300:
                raise ServeClientError(response.status, {},
                                       dict(response.getheaders()))
            return text
        finally:
            conn.close()

    def trace(self, trace_id: str) -> dict:
        """``GET /v1/trace?id=...`` — one request's Chrome-trace slice."""
        return self._request("GET", f"/v1/trace?id={trace_id}")

    def stats(self) -> dict:
        """``GET /v1/stats``."""
        return self._request("GET", "/v1/stats")

    def submit(self, prompt, max_new_tokens: int, stop_token=...,
               sampling=None) -> dict:
        """Blocking ``POST /v1/submit``; returns the finished result.

        ``sampling`` (a dict or :class:`~repro.infer.SamplingParams`)
        becomes the request's ``"sampling"`` object; the resolved params
        are echoed back in the result.  Raises :class:`ServeClientError`
        on shed (429), rejection (4xx), or timeout (504 — the body still
        carries the partial result).
        """
        return self._request(
            "POST", "/v1/submit",
            self._submit_body(prompt, max_new_tokens, stop_token, False,
                              sampling))

    def stream(self, prompt, max_new_tokens: int, stop_token=...,
               sampling=None):
        """Streaming ``POST /v1/submit``: yields one decoded record per
        NDJSON line — ``{"request_id", "sampling"?}``, then ``{"token"}``
        per sampled token, then the final ``{"done": true, ...}`` result
        record."""
        conn = self._connect()
        try:
            body = self._submit_body(prompt, max_new_tokens, stop_token, True,
                                     sampling)
            conn.request("POST", "/v1/submit", body=json.dumps(body).encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            if response.status != 200:
                decoded = json.loads(response.read().decode() or "{}")
                raise ServeClientError(response.status, decoded,
                                       dict(response.getheaders()))
            while True:
                line = response.readline()
                if not line:
                    return
                yield json.loads(line.decode())
        finally:
            conn.close()
