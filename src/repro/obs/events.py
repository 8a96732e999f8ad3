"""Structured JSONL event log.

Where :mod:`repro.obs.metrics` aggregates and :mod:`repro.obs.tracing`
times, the event log keeps the raw facts: one dict per occurrence
(train step, request submitted, request finished), each stamped with
wall-clock time.  Records accumulate in memory and — when constructed
with a path — stream to disk as JSON Lines, one object per line, so a
crashed run still leaves a readable log behind.

The serving layer emits from many handler threads at once, so
:meth:`EventLog.emit` is thread-safe: a lock serializes record
append + file write, and each record hits the file as a single
``write`` call (never ``json.dump`` + a separate newline write, which
two threads can interleave into half-lines).  ``fsync=True`` flushes
and fsyncs after every emit for crash-safe logs at the cost of one
syscall pair per record.  :attr:`EventLog.records` is the one copy of
every record; the flight recorder dumps its tail rather than keeping
its own.
"""

from __future__ import annotations

import json
import os
import threading
import time


class EventLog:
    """Append-only structured log.

    Parameters
    ----------
    path:
        Optional file path; when given, every record is also written
        through to it immediately as one JSON line.
    enabled:
        When False :meth:`emit` is a no-op (the shared
        :data:`NULL_EVENTS` instance is the usual way to get this).
    clock:
        Wall-clock source for the ``t`` field; ``time.time`` by default.
    fsync:
        When True (and ``path`` is given) every emit is flushed and
        fsynced, so a SIGKILL loses at most the record being written.
    """

    def __init__(self, path=None, enabled: bool = True, clock=time.time,
                 fsync: bool = False):
        self.enabled = enabled
        self.clock = clock
        self.path = path
        self.fsync = fsync
        self.records: list[dict] = []
        self._fh = None
        self._lock = threading.Lock()

    def emit(self, event: str, **fields) -> dict | None:
        """Record one event; returns the stored record (None when disabled).

        Safe to call from multiple threads: the in-memory append and the
        file write happen under one lock, and the JSON line is written
        with a single ``write`` call so concurrent emitters can never
        interleave partial lines.
        """
        if not self.enabled:
            return None
        record = {"event": event, "t": self.clock(), **fields}
        with self._lock:
            self.records.append(record)
            if self.path is not None:
                if self._fh is None:
                    self._fh = open(self.path, "a")
                self._fh.write(json.dumps(record, default=float) + "\n")
                if self.fsync:
                    self._fh.flush()
                    os.fsync(self._fh.fileno())
        return record

    def __len__(self) -> int:
        return len(self.records)

    def of_type(self, event: str) -> list[dict]:
        return [r for r in self.records if r["event"] == event]

    def to_jsonl(self) -> str:
        with self._lock:
            records = list(self.records)
        return "".join(json.dumps(r, default=float) + "\n" for r in records)

    def write(self, path) -> None:
        """Dump every in-memory record to ``path`` as JSON Lines."""
        with open(path, "w") as f:
            f.write(self.to_jsonl())

    def flush(self) -> None:
        """Flush the streaming file handle (no-op without a path)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        """Flush and close the streaming file handle, releasing it."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


NULL_EVENTS = EventLog(enabled=False)
