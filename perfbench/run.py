"""The repo benchmark: seeded ``chat``, ``batch`` and ``train`` workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {chat,batch,train} --seed N \\
        --seconds S --trace {0,1}

Each run sets the program up ``SETUPS`` times in fresh processes
(``host.py``) and reports the median set-up time; the last of those
processes runs the timed window.  This process is the load generator
and the oracle: it drives the public API from outside the program
(HTTP for ``chat``; ``GenerationEngine.submit``/``step`` for ``batch``
and ``Trainer.run`` for ``train`` through the host's driver loop), then
re-checks every output against the full forward pass.  ``--trace 1``
adds a second window in a fresh traced host and reports the per-layer
numbers instead of the end-to-end ones.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  The lines
before it print every metric by name with its unit, plus the failure
accounting.  See ``perfbench/README.md`` for the workloads, the metric
definitions and why each was chosen.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

from common import (
    BLAS_ENV, CHAT_CLIENTS, CHAT_SAMPLING, MIN_OPS,
    MODEL_SEED, ROOT, batch_requests, chat_requests, chat_system_prompts,
    peak_rss_mb, percentile, prepare_process, serve_config)

HOST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "host.py")
SETUPS = 3                  # set-ups per run; setup_s is their median
HOST_TIMEOUT_S = 60.0       # longest wait for any one host reply
# JSON has no infinity: a percentile that lands on a failed request
# (which sorts as +inf) is reported as this many milliseconds.
FAILED_MS = 1e9

clock = time.perf_counter


def declared_units(section: str) -> dict:
    """``{name: unit}`` of one metric list in BENCHMARK.json, in order."""
    with open(ROOT / "BENCHMARK.json") as spec:
        return {m["name"]: m["unit"] for m in json.load(spec)[section]}


# ----------------------------------------------------------------------
# Program hosts
# ----------------------------------------------------------------------
class Host:
    """One ``host.py`` process and its JSON-lines pipe."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.spawned = clock()
        self.proc = subprocess.Popen(
            [sys.executable, HOST, workload, "--seed", str(seed),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env={**os.environ, **BLAS_ENV})
        try:
            self.built = self.expect("built")
        except BaseException:
            self.close()
            raise

    def expect(self, event: str, timeout: float = HOST_TIMEOUT_S) -> dict:
        """Read the next message, which must be ``event``."""
        line = _readline(self.proc.stdout, timeout)
        if not line:
            raise RuntimeError(f"host exited (code {self.proc.poll()}) "
                               f"before sending {event!r}")
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"expected {event!r} from host, got {message}")
        return message

    def ask(self, cmd: dict, event: str,
            timeout: float = HOST_TIMEOUT_S) -> dict:
        self.send(cmd)
        return self.expect(event, timeout)

    def send(self, cmd: dict) -> None:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Ask the host to exit; kill it if it does not, and reap it."""
        if self.proc.poll() is None:
            try:
                self.send({"cmd": "exit"})
                self.proc.stdin.close()
                self.proc.wait(timeout=15)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _readline(stream, timeout: float) -> str:
    """``stream.readline()`` that gives up after ``timeout`` seconds."""
    box: list[str] = []
    reader = threading.Thread(target=lambda: box.append(stream.readline()),
                              daemon=True)
    reader.start()
    reader.join(timeout)
    if reader.is_alive():
        raise RuntimeError(f"host sent nothing for {timeout:.0f} s")
    return box[0]


# ----------------------------------------------------------------------
# chat: HTTP clients
# ----------------------------------------------------------------------
class ChatClient:
    """One closed-loop client on one persistent HTTP/1.1 connection."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=HOST_TIMEOUT_S)

    def send(self, request: dict) -> dict:
        """Stream one ``POST /v1/submit``; stamp every token on arrival."""
        record = {"request": request, "send": clock(), "tokens": [],
                  "times": [], "final": None, "status": None}
        try:
            self.conn.request(
                "POST", "/v1/submit",
                body=json.dumps({**request, "stream": True}).encode(),
                headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            record["status"] = response.status
            if response.status != 200:
                record["error"] = response.read().decode()
                return record
            for line in iter(response.readline, b""):
                message = json.loads(line)
                if "token" in message:
                    record["times"].append(clock())
                    record["tokens"].append(message["token"])
                elif message.get("done"):
                    record["final"] = message
        except (OSError, http.client.HTTPException, ValueError) as exc:
            record["error"] = repr(exc)
            self.conn.close()           # reconnects on the next request
        record["end"] = clock()
        return record

    def close(self) -> None:
        self.conn.close()


def chat_ok(record: dict) -> bool:
    """Finished, not timed out, and every requested token arrived."""
    final = record["final"]
    return (record["status"] == 200 and final is not None
            and not final["timed_out"]
            and final["completion"] == record["tokens"]
            and len(record["tokens"]) == record["request"]["max_new_tokens"])


def serve_client(port: int):
    """The program's own client, for ``/healthz`` and ``/v1/stats``."""
    from repro.serve import ServeClient
    return ServeClient("127.0.0.1", port, timeout=HOST_TIMEOUT_S)


def run_clients(clients, streams, until) -> list[dict]:
    """Closed loop: each client sends its next request when one ends."""
    records: list[dict] = []

    def loop(client, stream):
        for request in stream:
            if until(records):
                return
            records.append(client.send(request))

    threads = [threading.Thread(target=loop, args=pair)
               for pair in zip(clients, streams)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def chat_warmup_requests(seed: int) -> list[dict]:
    """Each system prompt once, so its pages sit in the prefix cache."""
    return [{"prompt": system + [1, 2, 3, 4], "max_new_tokens": 16,
             "sampling": {**CHAT_SAMPLING, "seed": i}}
            for i, system in enumerate(chat_system_prompts(seed))]


# ----------------------------------------------------------------------
# Set-up and timed windows
# ----------------------------------------------------------------------
def set_up(workload: str, seed: int, trace: bool, warmup_records: list):
    """Start a host and warm it; returns ``(host, clients, phases)``."""
    host = Host(workload, seed, trace)
    clients = []
    try:
        built = host.built
        t_ready = clock()
        if workload == "chat":
            server = serve_client(built["port"])
            give_up = clock() + HOST_TIMEOUT_S
            while True:
                try:
                    server.healthz()
                    break
                except OSError:
                    if clock() > give_up:
                        raise
                    time.sleep(0.01)
            t_ready = clock()
            clients = [ChatClient(built["port"]) for _ in range(CHAT_CLIENTS)]
            requests = chat_warmup_requests(seed)
            per_client = len(requests) // CHAT_CLIENTS
            streams = [iter(requests[i * per_client:(i + 1) * per_client])
                       for i in range(CHAT_CLIENTS)]
            warmup_records.extend(run_clients(
                clients, streams, lambda records: False))
        else:
            host.ask({"cmd": "warmup"}, "ready")
    except BaseException:
        stop(host, clients)
        raise
    t_warm = clock()
    phases = {"setup_s": t_warm - host.spawned,
              "setup.import_s": built["t_imported"] - host.spawned,
              "setup.build_s": built["t_built"] - built["t_imported"],
              "setup.ready_s": t_ready - built["t_built"],
              "setup.warmup_s": t_warm - t_ready}
    return host, clients, phases


def stop(host, clients) -> None:
    for client in clients:
        client.close()
    host.close()


def chat_window(host, clients, seed, seconds, ops, trace) -> dict:
    server = serve_client(host.built["port"])
    stats0 = server.stats()
    t0 = clock()
    deadline = t0 + seconds
    if ops is None:
        def until(records):
            return clock() >= deadline and len(records) >= MIN_OPS
    else:
        def until(records):
            return len(records) >= ops
    streams = [chat_requests(seed, i) for i in range(CHAT_CLIENTS)]
    records = run_clients(clients, streams, until)
    # Each client finishes the request it has in flight at the deadline;
    # the window ends when the last one is done.
    t1 = clock()
    window = {"t0": t0, "t1": t1, "records": records,
              "peak_rss_mb": peak_rss_mb(host.proc.pid),
              "stats0": stats0, "stats1": server.stats()}
    if trace:
        window["layers"] = host.ask({"cmd": "report", "t0": t0, "t1": t1},
                                    "report")["layers"]
        # The blocking path runs through the client: each request span
        # holds the server's work on it plus HTTP and TCP time.
        window["layers"]["trace.closure"] = sum(
            r["end"] - r["send"] for r in records) / (t1 - t0) / CHAT_CLIENTS
    return window


def timed_window(workload, seed, seconds, ops, trace, warmup_records):
    """Set up a host, run one timed window on it and stop it."""
    host, clients, phases = set_up(workload, seed, trace, warmup_records)
    try:
        if workload == "chat":
            window = chat_window(host, clients, seed, seconds, ops, trace)
        else:
            window = host.ask({"cmd": "run", "seconds": seconds, "ops": ops},
                              "result", seconds + HOST_TIMEOUT_S)
    finally:
        stop(host, clients)
    return window, phases


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _ms(values, q):
    value = percentile(values, q)
    return FAILED_MS if math.isinf(value) else 1e3 * value


def end_to_end(workload: str, window: dict) -> tuple[dict, dict]:
    """End-to-end metrics and failure accounting of one window.

    ``first`` is the wait for an operation's first result (a request's
    first token; a training step, whose tokens all land at once) and
    ``last`` the wait for its last result.  Failed operations count as
    +inf in both.
    """
    t0, t1 = window["t0"], window["t1"]
    if workload == "train":
        steps = window["steps"]
        first = last = [s["end"] - s["start"] for s in steps]
        tokens = sum(s["tokens"] for s in steps)
        counts = {"attempted": len(steps), "succeeded": len(steps),
                  "failed": 0, "shed": 0}
    else:
        if workload == "chat":
            records = ops = window["records"]
            starts = [r["send"] for r in ops]
            ok = [chat_ok(r) for r in ops]
            shed = sum(r["status"] == 429 for r in ops)
        else:
            # Requests cut off by the end of the window were neither
            # completed nor failed; they are checked but not counted.
            records = window["requests"]
            ops = [r for r in records if "timing" in r]
            starts = [r["submit"] for r in ops]
            ok = [True] * len(ops)
            shed = 0
        first = [r["times"][0] - start if good else math.inf
                 for r, start, good in zip(ops, starts, ok)]
        last = [r["times"][-1] - start if good else math.inf
                for r, start, good in zip(ops, starts, ok)]
        tokens = sum(t0 <= t <= t1 for r in records for t in r["times"])
        counts = {"attempted": len(ops), "succeeded": sum(ok),
                  "failed": len(ops) - sum(ok), "shed": shed}
    metrics = {
        "peak_rss_mb": window["peak_rss_mb"],
        "tokens_per_s": tokens / (t1 - t0),
        "first_result_p50_ms": _ms(first, 50),
        "first_result_p90_ms": _ms(first, 90),
        "last_result_p50_ms": _ms(last, 50),
        "last_result_p90_ms": _ms(last, 90),
    }
    counts["error_rate"] = counts["failed"] / max(counts["attempted"], 1)
    return metrics, counts


def serving_layers(workload: str, seed: int, window: dict) -> dict:
    """Layer numbers measured outside the host: stats deltas, overheads."""
    layers = dict(window["layers"])
    if workload == "chat":
        records = window["records"]
        prompts = [r["request"]["prompt"] for r in records]
        done = [r for r in records if chat_ok(r)]
        timings = [r["final"]["timing"] for r in done]
        # Client-seen minus engine-stamped: HTTP, handler, the worker
        # lock and streaming.
        ttft_over = [r["times"][0] - r["send"] - t["ttft_s"]
                     for r, t in zip(done, timings)]
        tpot_over = [(r["times"][-1] - r["times"][0] - t["decode_s"])
                     / (len(r["tokens"]) - 1) for r, t in zip(done, timings)]
        server0 = window["stats0"]["server"]
        server1 = window["stats1"]["server"]
        layers.update({
            "serve.ttft_overhead_ms_p50": 1e3 * percentile(ttft_over, 50),
            "serve.tpot_overhead_ms_p50": 1e3 * percentile(tpot_over, 50)})
        layers.update({f"serve.{key}": server1[key] - server0[key]
                       for key in ("shed", "rejected", "timeouts")})
    else:
        records = window["requests"]
        prompts = _batch_prompts(seed, len(records))
        timings = [r["timing"] for r in records if "timing" in r]
        layers.update({f"serve.{key}": 0 for key in (
            "ttft_overhead_ms_p50", "tpot_overhead_ms_p50", "shed",
            "rejected", "timeouts")})
    layers["train.tokens"] = 0
    stats0, stats1 = window["stats0"], window["stats1"]
    kv0, kv1 = stats0["kv"], stats1["kv"]
    slot_steps = [s["occupancy"] * s["total_steps"] * s["batch_size"]
                  for s in (stats0, stats1)]
    steps = stats1["total_steps"] - stats0["total_steps"]
    hits = (kv1["prefix_cache"]["hit_tokens"]
            - kv0["prefix_cache"]["hit_tokens"])
    # Every generated token but a request's last is fed back as one
    # decode row; every other row feeds a prompt token.
    fed_back = sum(max(len(r["tokens"]) - 1, 0) for r in records)
    layers.update({
        "engine.prefill_rows": layers["engine.rows"] - fed_back,
        "engine.queue_wait_ms_p50": 1e3 * percentile(
            [t["queue_wait_s"] for t in timings], 50),
        "engine.prefill_ms_p50": 1e3 * percentile(
            [t["prefill_s"] for t in timings], 50),
        "engine.occupancy": ((slot_steps[1] - slot_steps[0])
                             / (steps * stats1["batch_size"])
                             if steps else 0.0),
        "engine.preemptions": kv1["preemptions"] - kv0["preemptions"],
        "kv.prefix_hit_share": hits / sum(len(p) for p in prompts),
        "kv.pages_peak": kv1["peak_pages_used"],
        "kv.pool_mb": kv1["kv_bytes_pool"] / 1e6,
    })
    return layers


def _batch_prompts(seed: int, count: int):
    stream = batch_requests(seed)
    return [next(stream)["prompt"] for _ in range(count)]


def train_layers(window: dict, names) -> dict:
    """The serving layers do not run in ``train``: they read 0."""
    layers = dict(window["layers"])
    layers["train.tokens"] = sum(step["tokens"] for step in window["steps"])
    for name in names:
        if name.startswith(("serve.", "engine.", "kv.")):
            layers.setdefault(name, 0)
    return layers


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def check_outputs(workload: str, seed: int, windows,
                  warmup) -> tuple[list[str], str]:
    """Run the oracle over every output: ``(failures, summary)``."""
    from oracle import Oracle, first_losses_match
    if workload == "train":
        failures = []
        for window in windows:
            losses = window["losses"]
            if not all(math.isfinite(loss) for loss in losses):
                failures.append("non-finite training loss")
            if not first_losses_match(seed, losses):
                failures.append("first losses differ from the fused=False "
                                "composed path")
        return failures, "first 3 losses compared with fused=False"

    from repro.core import TransformerLM
    oracle = Oracle(TransformerLM(serve_config(), rng=MODEL_SEED))
    if workload == "chat":
        for n, record in enumerate(warmup + [r for w in windows
                                             for r in w["records"]]):
            request, final = record["request"], record["final"]
            if final is not None and final["completion"] != record["tokens"]:
                oracle.mismatches.append(f"request {n}: streamed tokens "
                                         "differ from the final record")
            oracle.sampled(f"request {n}", request["prompt"],
                           record["tokens"], request["sampling"])
    else:
        for window in windows:
            prompts = _batch_prompts(seed, len(window["requests"]))
            for prompt, record in zip(prompts, window["requests"]):
                oracle.greedy(f"request {record['index']}", prompt,
                              record["tokens"])
    return oracle.mismatches, (f"{oracle.checked} tokens re-scored, "
                               f"{oracle.ties} near-ties")


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["chat", "batch", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many requests or steps per "
                             "window instead of --seconds (exact counters)")
    args = parser.parse_args()
    workload, seed = args.workload, args.seed

    prepare_process()
    # Imported before any host starts so that it never competes with one.
    import repro  # noqa: F401

    warmup: list[dict] = []
    setups = []
    for _ in range(SETUPS - 1):
        host, clients, phases = set_up(workload, seed, False, warmup)
        stop(host, clients)
        setups.append(phases)
    window, phases = timed_window(workload, seed, args.seconds, args.ops,
                                  False, warmup)
    setups.append(phases)
    windows = [window]
    metrics, counts = end_to_end(workload, window)
    metrics["setup_s"] = statistics.median(p["setup_s"] for p in setups)
    if args.trace:
        traced, _ = timed_window(workload, seed, args.seconds, args.ops,
                                 True, warmup)
        windows.append(traced)
        traced_metrics, traced_counts = end_to_end(workload, traced)
        units = declared_units("per_layer")
        layers = (train_layers(traced, units) if workload == "train"
                  else serving_layers(workload, seed, traced))
        for name in ("setup.import_s", "setup.build_s", "setup.ready_s",
                     "setup.warmup_s"):
            layers[name] = statistics.median(p[name] for p in setups)
        layers["trace.overhead"] = \
            1.0 - traced_metrics["tokens_per_s"] / metrics["tokens_per_s"]
        for key in ("attempted", "succeeded", "failed", "shed"):
            counts[key] += traced_counts[key]
        counts["error_rate"] = counts["failed"] / max(counts["attempted"], 1)
        reported = layers
    else:
        reported, units = metrics, declared_units("end_to_end")

    failures, checked = check_outputs(workload, seed, windows, warmup)
    correct = not failures and counts["attempted"] > 0
    blas = " ".join(f"{k}={v}" for k, v in BLAS_ENV.items())
    print(f"perfbench {workload} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace} setups={SETUPS} [{blas}]")
    print(f"  operations: attempted={counts['attempted']} "
          f"succeeded={counts['succeeded']} failed={counts['failed']} "
          f"shed={counts['shed']} error_rate={counts['error_rate']:.4f}")
    print(f"  oracle: {checked}; {len(failures)} mismatches")
    for failure in failures[:20]:
        print(f"    MISMATCH {failure}")
    for name, unit in units.items():
        print(f"  {name:<28} {reported[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": reported[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
