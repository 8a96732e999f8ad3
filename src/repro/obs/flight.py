"""Crash flight recorder: a blackbox dump of recent telemetry.

When a serving process dies, the post-mortem question is always "what
was it doing in the last few seconds?" — and the full event log or
trace may be huge, unwritten, or lost with the process.
:class:`FlightRecorder` answers it from the telemetry bundle it is
attached to: it keeps no copy of its own, and dumps the newest
``capacity`` records of the bundle's event log and tracer as one
``flightrecord.json`` when something goes wrong:

- the serving decode loop crashes (including faults injected through
  the :func:`repro.train.faults.failpoint` named ``"serve.step"``),
- an uncaught exception reaches :func:`sys.excepthook` after
  :meth:`FlightRecorder.install`,
- the process exits after a recorded crash (``atexit`` backstop, in
  case the crash path itself could not finish the dump).

Recording costs nothing beyond the telemetry itself, and touches no
RNG.  A recorder only sees what the attached telemetry emits, so with
telemetry disabled (or before :meth:`FlightRecorder.attach`) it dumps
no events or spans.
"""

from __future__ import annotations

import atexit
import json
import sys
import threading
import time

from .events import NULL_EVENTS
from .tracing import NULL_TRACER


class FlightRecorder:
    """Dumps the newest events + spans of a telemetry bundle on crash.

    Parameters
    ----------
    path:
        Where :meth:`dump` writes the blackbox (default
        ``flightrecord.json`` in the working directory).
    capacity:
        How many of the newest events, and of the newest spans, a dump
        carries.
    clock:
        Wall-clock source for the dump timestamp.
    """

    def __init__(self, path="flightrecord.json", capacity: int = 512,
                 clock=time.time):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.path = path
        self.capacity = capacity
        self.clock = clock
        self._events = NULL_EVENTS
        self._tracer = NULL_TRACER
        self._lock = threading.Lock()
        self._installed = False
        self._crashed = False
        self.dumps = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, obs) -> "FlightRecorder":
        """Read from an :class:`~repro.obs.Observability` bundle.

        Keeps references to its event log and tracer; dumps read their
        records directly.
        """
        self._events = obs.events
        self._tracer = obs.tracer
        return self

    def install(self) -> "FlightRecorder":
        """Arm process-level crash hooks (idempotent).

        Chains :func:`sys.excepthook` so an uncaught exception dumps the
        blackbox before the interpreter dies, and registers an
        ``atexit`` backstop that dumps at exit if a crash was recorded
        but the dump never landed (e.g. the crash handler itself was
        interrupted).
        """
        if self._installed:
            return self
        self._installed = True
        previous_hook = sys.excepthook

        def excepthook(exc_type, exc, tb):
            self.record_crash(exc, dump=True)
            previous_hook(exc_type, exc, tb)

        sys.excepthook = excepthook
        atexit.register(self._atexit_dump)
        return self

    def _atexit_dump(self) -> None:
        with self._lock:
            crashed_without_dump = self._crashed and self.dumps == 0
        if crashed_without_dump:
            self.dump(reason="atexit_after_crash")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_crash(self, exc: BaseException, dump: bool = True,
                     **context) -> str | None:
        """Note a crash (with its exception) and, by default, dump.

        The ``crash`` event goes into the attached event log.  Returns
        the dump path when a dump was written.
        """
        with self._lock:
            self._crashed = True
        self._events.emit("crash", error=repr(exc), **context)
        if dump:
            return self.dump(reason="crash", error=repr(exc), **context)
        return None

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view of the newest records (newest last)."""
        return {
            "captured_at": self.clock(),
            "capacity": self.capacity,
            "events": self._events.records[-self.capacity:],
            "spans": self._tracer.spans[-self.capacity:],
        }

    def dump(self, reason: str = "manual", **context) -> str:
        """Write the blackbox to :attr:`path`; returns the path written."""
        record = self.snapshot()
        record["reason"] = reason
        record.update(context)
        with open(self.path, "w") as f:
            json.dump(record, f, indent=1, default=str)
            f.write("\n")
        with self._lock:
            self.dumps += 1
        return str(self.path)
