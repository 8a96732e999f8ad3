"""E23 — serving under load: the HTTP layer meets synthetic traffic.

The serving claim behind ``repro.serve``: the continuous-batching
engine, fronted by the single-owner :class:`~repro.serve.EngineWorker`
and stdlib HTTP server, holds its latency SLOs under concurrent load —
and *sheds* (HTTP 429) rather than stalls when arrivals exceed the
queue-depth cap.  This bench is a closed+open-loop load generator over
a live :class:`~repro.serve.InferenceServer`:

- **bit_identity** — batch-1 greedy decoding through the full HTTP
  round trip must be bit-identical to ``generate_fast``.
- **poisson** — open-loop arrivals (seeded exponential inter-arrival
  times), mixed prompt lengths, generous queue cap: the steady-traffic
  picture.
- **bursty** — synchronized arrival bursts against a small queue cap:
  admission control must shed the overflow with 429 while every
  accepted request still completes.
- **closed_loop** — a fixed pool of always-busy clients: the
  max-throughput picture.
- **prefix** (PR 8) — sequential requests sharing a 48-token system
  prompt: warm requests must hit the paged-KV prefix cache (verified
  via ``/v1/stats``), cut client-measured TTFT, and still return
  bit-identical tokens.

Every phase runs against a fresh engine+server and verifies **zero
lost, zero duplicated, zero corrupted** responses: request ids are
unique, client+server accounting balances (sent == completed + shed),
and every completion matches its greedy ``generate_fast`` reference.
Reported per phase: p50/p99 TTFT (client-measured, first streamed
token), p50/p99 queue wait (server-stamped), tokens/sec, and shed
rate — emitted as a provenance-stamped ``BENCH_serving.json``.

Every run also probes the observability plane on a live server: one
``/metrics`` scrape (validated line by line), a ``/healthz`` verdict,
and a ``/v1/trace`` export for a real request.  ``--slo`` adds a phase
that drives a tight-threshold :class:`~repro.obs.SLOMonitor` through a
breach (thundering herd against a queue cap of 1) and back to recovery,
recording the breach/recovery timeline into the JSON record.
``--overhead`` (E24) runs the Poisson phase twice — bare vs. fully
instrumented — and reports the telemetry tax on p50 TTFT.

``--smoke`` runs a seconds-scale configuration and asserts the
integrity + shedding gates; the tier-1 suite invokes it so serving
regressions fail the normal test run.
"""

import argparse
import re
import sys
import threading
import time

import numpy as np

from _util import BenchRun, banner, fmt_table, scale

from repro.core import TransformerConfig, TransformerLM
from repro.infer import GenerationEngine, SamplingParams
from repro.obs import EventLog, Observability, SLOMonitor, SLOThresholds
from repro.serve import (
    AdmissionPolicy,
    InferenceServer,
    ServeClient,
    ServeClientError,
)


def _build_model(smoke: bool) -> TransformerLM:
    cfg = TransformerConfig(
        vocab_size=64,
        max_seq_len=96 if smoke else 160,
        d_model=32 if smoke else 64,
        num_heads=4,
        num_layers=2 if smoke else 4,
    )
    return TransformerLM(cfg, rng=0)


def _make_workload(rng: np.random.Generator, n: int, vocab: int,
                   max_new_lo: int, max_new_hi: int) -> list[tuple]:
    """Mixed prompt lengths and decode budgets, all ints, all seeded."""
    work = []
    for _ in range(n):
        length = int(rng.integers(2, 13))
        prompt = [int(t) for t in rng.integers(0, vocab, size=length)]
        work.append((prompt, int(rng.integers(max_new_lo, max_new_hi + 1))))
    return work


class _Reference:
    """Greedy generate_fast oracle, memoized per (prompt, max_new)."""

    def __init__(self, model):
        self.model = model
        self._memo = {}

    def __call__(self, prompt: list[int], max_new: int) -> list[int]:
        key = (tuple(prompt), max_new)
        if key not in self._memo:
            self._memo[key] = self.model.generate_fast(prompt, max_new,
                                                       greedy=True)
        return self._memo[key]


def _fire(client: ServeClient, prompt, max_new, sink: list,
          lock: threading.Lock) -> None:
    """One streamed request; records status, client TTFT, and the result."""
    t0 = time.perf_counter()
    record = {"prompt": prompt, "max_new": max_new}
    try:
        ttft = None
        final = None
        for line in client.stream(prompt, max_new):
            if "token" in line and ttft is None:
                ttft = time.perf_counter() - t0
            if line.get("done"):
                final = line
        record.update(status="ok", ttft_s=ttft,
                      latency_s=time.perf_counter() - t0, result=final)
    except ServeClientError as exc:
        status = "shed" if exc.status == 429 else f"http_{exc.status}"
        record.update(status=status, latency_s=time.perf_counter() - t0)
    except Exception as exc:  # lost-request detector, not a crash path
        record.update(status="lost", detail=repr(exc))
    with lock:
        sink.append(record)


def _aggregate(records: list[dict], server_stats: dict, wall_s: float,
               reference: _Reference) -> dict:
    ok = [r for r in records if r["status"] == "ok"]
    shed = [r for r in records if r["status"] == "shed"]
    other = [r for r in records if r["status"] not in ("ok", "shed")]
    ids = [r["result"]["request_id"] for r in ok]
    mismatched = sum(
        r["result"]["tokens"] != reference(r["prompt"], r["max_new"])
        for r in ok)
    srv = server_stats["server"]
    generated = sum(len(r["result"]["completion"]) for r in ok)
    ttfts = [r["ttft_s"] for r in ok if r["ttft_s"] is not None]
    waits = [r["result"]["timing"]["queue_wait_s"] for r in ok]
    pct = lambda xs, q: float(np.percentile(xs, q)) if xs else 0.0
    return {
        "sent": len(records),
        "completed": len(ok),
        "shed": len(shed),
        "other_failures": len(other),
        "shed_rate": len(shed) / len(records) if records else 0.0,
        "lost": srv["accepted"] - srv["completed"],
        "duplicated": len(ids) - len(set(ids)),
        "mismatched": mismatched,
        "accounting_balanced": (len(records) == len(ok) + len(shed)
                                and srv["shed"] == len(shed)),
        "generated_tokens": generated,
        "wall_seconds": wall_s,
        "tokens_per_sec": generated / wall_s if wall_s > 0 else 0.0,
        "ttft_p50_s": pct(ttfts, 50),
        "ttft_p99_s": pct(ttfts, 99),
        "queue_wait_p50_s": pct(waits, 50),
        "queue_wait_p99_s": pct(waits, 99),
        "occupancy": server_stats["occupancy"],
    }


def _run_phase(model, workload, offsets, batch_size: int,
               policy: AdmissionPolicy, obs, closed_loop_workers: int = 0):
    """Serve one phase against a fresh engine+server; aggregate results.

    ``offsets`` are arrival times in seconds from phase start (open
    loop); with ``closed_loop_workers`` > 0 the workload is instead
    split across that many always-busy clients.
    """
    engine = GenerationEngine(model, batch_size=batch_size, params=SamplingParams(greedy=True),
                              obs=obs)
    reference = _Reference(model)
    records: list[dict] = []
    lock = threading.Lock()
    with InferenceServer(engine, policy=policy) as server:
        client = ServeClient(server.host, server.port)
        threads = []
        start = time.perf_counter()
        if closed_loop_workers:
            chunks = [workload[i::closed_loop_workers]
                      for i in range(closed_loop_workers)]

            def drive(chunk):
                for prompt, max_new in chunk:
                    _fire(client, prompt, max_new, records, lock)

            threads = [threading.Thread(target=drive, args=(chunk,))
                       for chunk in chunks if chunk]
            for thread in threads:
                thread.start()
        else:
            for (prompt, max_new), offset in zip(workload, offsets):
                delay = start + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                thread = threading.Thread(
                    target=_fire, args=(client, prompt, max_new,
                                        records, lock))
                thread.start()
                threads.append(thread)
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - start
        stats = server.stats()
    return _aggregate(records, stats, wall_s, reference)


def _bit_identity(model, obs) -> dict:
    """Batch-1 greedy through HTTP must equal generate_fast bit for bit."""
    engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True), obs=obs)
    rng = np.random.default_rng(7)
    workload = _make_workload(rng, 4, model.config.vocab_size, 6, 12)
    identical = True
    with InferenceServer(engine, policy=AdmissionPolicy(max_queue_depth=16)) as server:
        client = ServeClient(server.host, server.port)
        for prompt, max_new in workload:
            got = client.submit(prompt, max_new)["tokens"]
            if got != model.generate_fast(prompt, max_new, greedy=True):
                identical = False
    return {"requests": len(workload), "identical": identical}


def _prefix_phase(model, obs) -> dict:
    """Cache-hit TTFT over HTTP: requests sharing a system prompt.

    Sequential streamed requests against a batch-1 server, all sharing a
    48-token system prompt with unique short suffixes.  The first (cold)
    request prefills everything; later (warm) requests reuse the cached
    prompt pages, so their client-measured TTFT — submit to first
    streamed token — drops.  ``/v1/stats`` must report the hits, and
    every completion still matches its greedy reference.
    """
    engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True), obs=obs)
    rng = np.random.default_rng(11)
    vocab = model.config.vocab_size
    system = [int(t) for t in rng.integers(0, vocab, size=48)]
    suffixes = [[int(t) for t in rng.integers(0, vocab, size=3)]
                for _ in range(6)]
    reference = _Reference(model)
    ttfts = []
    identical = True
    with InferenceServer(engine, policy=AdmissionPolicy(max_queue_depth=8)) as server:
        client = ServeClient(server.host, server.port)
        for suffix in suffixes:
            prompt = system + suffix
            t0 = time.perf_counter()
            ttft = None
            final = None
            for line in client.stream(prompt, 8):
                if "token" in line and ttft is None:
                    ttft = time.perf_counter() - t0
                if line.get("done"):
                    final = line
            ttfts.append(ttft)
            if final["tokens"] != reference(prompt, 8):
                identical = False
        kv = client.stats()["kv"]
    warm = float(np.mean(ttfts[1:]))
    return {
        "system_prompt_len": len(system),
        "requests": len(suffixes),
        "cold_ttft_s": ttfts[0],
        "warm_ttft_mean_s": warm,
        "ttft_speedup": ttfts[0] / warm if warm > 0 else 0.0,
        "prefix_hits": kv["prefix_cache"]["hits"],
        "prefix_hit_tokens": kv["prefix_cache"]["hit_tokens"],
        "kv_pages_used": kv["pages_used"],
        "identical": identical,
    }


_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$")


def _observability_probe(model, obs) -> dict:
    """Scrape /metrics, /healthz, and /v1/trace on a live server."""
    engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True), obs=obs)
    with InferenceServer(engine, policy=AdmissionPolicy(max_queue_depth=4)) as server:
        client = ServeClient(server.host, server.port)
        client.submit([1, 2, 3], 4)
        health = client.healthz()
        metrics_text = client.metrics()
        trace_events = 0
        tracing = obs is not None and obs.tracer.enabled
        if tracing:
            finished = obs.events.of_type("request_finished")
            trace_id = finished[-1]["trace_id"]
            trace_events = len(client.trace(trace_id)["traceEvents"])
    sample_lines = [line for line in metrics_text.splitlines()
                    if line.strip() and not line.startswith("#")]
    return {
        "healthz_status": health["status"],
        "metrics_sample_lines": len(sample_lines),
        "metrics_parseable": all(_METRIC_LINE.match(line)
                                 for line in sample_lines),
        "trace_export_events": trace_events,
        "tracing_enabled": tracing,
    }


def _slo_phase(model, smoke: bool) -> dict:
    """Drive a tight SLO monitor through breach and back to recovery.

    A thundering herd against a queue cap of 1 sheds most arrivals,
    breaching a ``max_shed_rate`` threshold (health leaves ``ok``);
    sequential clean traffic then pushes the sheds out of the sliding
    window until health recovers.  Returns the event timeline.
    """
    log = EventLog()
    slo = SLOMonitor(SLOThresholds(ttft_p99_s=None, max_shed_rate=0.1,
                                   max_error_rate=None, min_requests=4),
                     window=16, events=log)
    engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True))
    rng = np.random.default_rng(11)
    herd_n = 8 if smoke else 16
    workload = _make_workload(rng, herd_n, model.config.vocab_size, 4, 8)
    wall0 = time.time()
    records: list[dict] = []
    lock = threading.Lock()
    drain_requests = 0
    with InferenceServer(engine,
                         policy=AdmissionPolicy(max_queue_depth=1,
                                                retry_after_s=0.05,
                                                request_timeout_s=120.0),
                         slo=slo) as server:
        client = ServeClient(server.host, server.port)
        threads = [threading.Thread(target=_fire,
                                    args=(client, prompt, max_new,
                                          records, lock))
                   for prompt, max_new in workload]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        status_after_herd = slo.status
        # drain: clean sequential traffic until the window forgets the herd
        while slo.status != "ok" and drain_requests < 4 * slo.window:
            client.submit([1, 2], 2)
            drain_requests += 1
        final_status = slo.status
    timeline = [{"t_s": r["t"] - wall0, "event": r["event"],
                 "status": r.get("status", "ok"),
                 "signals": r.get("signals", [])}
                for r in log.records
                if r["event"] in ("slo_breach", "slo_recovered")]
    shed = sum(1 for r in records if r["status"] == "shed")
    return {
        "herd_size": herd_n,
        "herd_shed": shed,
        "status_after_herd": status_after_herd,
        "drain_requests": drain_requests,
        "final_status": final_status,
        "breaches": sum(1 for t in timeline if t["event"] == "slo_breach"),
        "recoveries": sum(1 for t in timeline
                          if t["event"] == "slo_recovered"),
        "timeline": timeline,
    }


def _overhead_phase(model, smoke: bool) -> dict:
    """E24: the same open-loop workload bare vs. fully instrumented.

    Single-pair measurements at millisecond TTFT scale are dominated by
    scheduler jitter, so the modes run in alternating repeats and the
    comparison is between per-mode *medians* of the p50 TTFT.
    """
    repeats = 1 if smoke else 5
    n = 16 if smoke else 48
    samples = {"bare": [], "instrumented": []}
    last = {}
    for _ in range(repeats):
        for mode in ("bare", "instrumented"):
            obs = Observability.standard() if mode == "instrumented" \
                else None
            rng = np.random.default_rng(5)
            workload = _make_workload(rng, n, model.config.vocab_size,
                                      4, 12)
            offsets = np.cumsum(rng.exponential(0.02, size=n)).tolist()
            result = _run_phase(
                model, workload, offsets, batch_size=4,
                policy=AdmissionPolicy(max_queue_depth=max(64, n),
                                       request_timeout_s=120.0),
                obs=obs)
            samples[mode].append(result["ttft_p50_s"])
            last[mode] = result
    bare_p50 = float(np.median(samples["bare"]))
    inst_p50 = float(np.median(samples["instrumented"]))
    overhead = ((inst_p50 - bare_p50) / bare_p50) if bare_p50 else 0.0
    return {"bare": last["bare"], "instrumented": last["instrumented"],
            "repeats": repeats,
            "ttft_p50_bare_s": bare_p50,
            "ttft_p50_instrumented_s": inst_p50,
            "ttft_p50_samples": samples,
            "ttft_p50_overhead_frac": overhead}


def run(smoke: bool = False, obs: Observability | None = None,
        slo: bool = False, overhead: bool = False) -> dict:
    model = _build_model(smoke)
    rng = np.random.default_rng(42)
    vocab = model.config.vocab_size
    n = 24 if smoke else 48 * scale()
    burst_n = 12 if smoke else 24
    max_new_hi = 16 if smoke else 32

    phases = {}
    phases["bit_identity"] = _bit_identity(model, obs)

    # Open loop, Poisson arrivals, generous cap: the steady-state picture.
    poisson_work = _make_workload(rng, n, vocab, 4, max_new_hi)
    offsets = np.cumsum(rng.exponential(0.02 if smoke else 0.015, size=n))
    phases["poisson"] = _run_phase(
        model, poisson_work, offsets.tolist(),
        batch_size=4 if smoke else 8,
        policy=AdmissionPolicy(max_queue_depth=max(64, n),
                               request_timeout_s=120.0),
        obs=obs)

    # Bursty arrivals against a tight cap: admission control must shed.
    bursty_work = _make_workload(rng, burst_n, vocab, 8, max_new_hi)
    burst_offsets = [0.0] * burst_n  # one synchronized thundering herd
    phases["bursty"] = _run_phase(
        model, bursty_work, burst_offsets,
        batch_size=2,
        policy=AdmissionPolicy(max_queue_depth=2, retry_after_s=0.25,
                               request_timeout_s=120.0),
        obs=obs)

    # Closed loop: always-busy clients, the max-throughput picture.
    closed_work = _make_workload(rng, n, vocab, 4, max_new_hi)
    phases["closed_loop"] = _run_phase(
        model, closed_work, [],
        batch_size=4 if smoke else 8,
        policy=AdmissionPolicy(max_queue_depth=max(64, n),
                               request_timeout_s=120.0),
        obs=obs, closed_loop_workers=4 if smoke else 8)

    phases["prefix"] = _prefix_phase(model, obs)
    phases["observability"] = _observability_probe(model, obs)
    if slo:
        phases["slo"] = _slo_phase(model, smoke)
    if overhead:
        phases["overhead"] = _overhead_phase(model, smoke)

    load_phases = [phases[k] for k in ("poisson", "bursty", "closed_loop")]
    return {
        "bench": "serving",
        "smoke": smoke,
        "model": model.config.to_dict(),
        "phases": phases,
        "totals": {
            "sent": sum(p["sent"] for p in load_phases),
            "completed": sum(p["completed"] for p in load_phases),
            "shed": sum(p["shed"] for p in load_phases),
            "lost": sum(p["lost"] for p in load_phases),
            "duplicated": sum(p["duplicated"] for p in load_phases),
            "mismatched": sum(p["mismatched"] for p in load_phases),
        },
    }


def report(result: dict) -> str:
    lines = [banner("Serving under load — HTTP + admission control "
                    "over the batched engine")]
    rows = []
    for name in ("poisson", "bursty", "closed_loop"):
        p = result["phases"][name]
        rows.append([name, p["sent"], p["completed"], p["shed"],
                     f"{p['shed_rate']:.0%}",
                     p["ttft_p50_s"] * 1e3, p["ttft_p99_s"] * 1e3,
                     p["queue_wait_p50_s"] * 1e3,
                     p["queue_wait_p99_s"] * 1e3,
                     p["tokens_per_sec"], p["occupancy"]])
    lines.append(fmt_table(
        ["phase", "sent", "ok", "shed", "shed%", "ttft p50 ms",
         "ttft p99 ms", "qwait p50 ms", "qwait p99 ms", "tok/s",
         "occupancy"], rows))
    ident = result["phases"]["bit_identity"]
    totals = result["totals"]
    lines.append(
        f"batch-1 greedy over HTTP bit-identical to generate_fast: "
        f"{ident['identical']} ({ident['requests']} requests); "
        f"lost={totals['lost']} duplicated={totals['duplicated']} "
        f"mismatched={totals['mismatched']} over {totals['sent']} requests")
    prefix = result["phases"]["prefix"]
    lines.append(
        f"prefix caching over HTTP: cold ttft "
        f"{prefix['cold_ttft_s'] * 1e3:.1f}ms vs warm "
        f"{prefix['warm_ttft_mean_s'] * 1e3:.1f}ms "
        f"({prefix['ttft_speedup']:.1f}x), {prefix['prefix_hits']} hits / "
        f"{prefix['prefix_hit_tokens']} tokens reused, "
        f"identical={prefix['identical']}")
    probe = result["phases"]["observability"]
    lines.append(
        f"observability probe: healthz={probe['healthz_status']} "
        f"metrics_lines={probe['metrics_sample_lines']} "
        f"(parseable={probe['metrics_parseable']}) "
        f"trace_export_events={probe['trace_export_events']}")
    if "slo" in result["phases"]:
        phase = result["phases"]["slo"]
        steps = " -> ".join(
            f"{t['event']}@{t['t_s']:.2f}s({t['status']})"
            for t in phase["timeline"])
        lines.append(
            f"slo timeline: herd of {phase['herd_size']} shed "
            f"{phase['herd_shed']}; {steps or 'no transitions'}; "
            f"final={phase['final_status']} after "
            f"{phase['drain_requests']} drain requests")
    if "overhead" in result["phases"]:
        phase = result["phases"]["overhead"]
        lines.append(
            f"telemetry overhead (E24): median-of-{phase['repeats']} "
            f"ttft p50 bare={phase['ttft_p50_bare_s'] * 1e3:.2f}ms "
            f"instrumented={phase['ttft_p50_instrumented_s'] * 1e3:.2f}ms "
            f"({phase['ttft_p50_overhead_frac']:+.1%})")
    return "\n".join(lines)


def _gate(result: dict) -> list[str]:
    """Integrity + shedding assertions shared by smoke mode and tests."""
    failures = []
    if not result["phases"]["bit_identity"]["identical"]:
        failures.append("HTTP batch-1 greedy diverged from generate_fast")
    totals = result["totals"]
    for key in ("lost", "duplicated", "mismatched"):
        if totals[key]:
            failures.append(f"{totals[key]} {key} requests")
    if result["phases"]["bursty"]["shed"] == 0:
        failures.append("bursty phase exceeded the queue cap but shed nothing")
    for name in ("poisson", "bursty", "closed_loop"):
        phase = result["phases"][name]
        if phase["other_failures"]:
            failures.append(f"{name}: {phase['other_failures']} "
                            "non-shed failures")
        if not phase["accounting_balanced"]:
            failures.append(f"{name}: client/server accounting imbalance")
    prefix = result["phases"]["prefix"]
    if not prefix["identical"]:
        failures.append("prefix phase: cache hits changed sampled tokens")
    if prefix["prefix_hits"] < prefix["requests"] - 1:
        failures.append(
            f"prefix phase: only {prefix['prefix_hits']} cache hits for "
            f"{prefix['requests'] - 1} warm requests")
    probe = result["phases"]["observability"]
    if not probe["metrics_parseable"]:
        failures.append("/metrics emitted unparseable sample lines")
    if probe["healthz_status"] not in ("ok", "degraded"):
        failures.append(
            f"/healthz reported {probe['healthz_status']} on a healthy run")
    if probe["tracing_enabled"] and probe["trace_export_events"] == 0:
        failures.append("/v1/trace exported no spans for a real request")
    if "slo" in result["phases"]:
        phase = result["phases"]["slo"]
        if not phase["breaches"]:
            failures.append("slo phase: herd never breached the threshold")
        if phase["final_status"] != "ok":
            failures.append("slo phase: monitor never recovered after drain")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast mode: tiny model + light load, "
                             "asserts integrity and shedding gates")
    parser.add_argument("--out", default="BENCH_serving.json",
                        help="path for the JSON record (default: %(default)s)")
    parser.add_argument("--no-record", action="store_true",
                        help="skip writing the JSON record")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="also write a Chrome trace of the run")
    parser.add_argument("--slo", action="store_true",
                        help="add a breach/recovery phase: drive a tight "
                             "SLO monitor through degraded and back, "
                             "recording the timeline")
    parser.add_argument("--overhead", action="store_true",
                        help="add an instrumented-vs-bare comparison of "
                             "the Poisson phase (E24)")
    args = parser.parse_args(argv)
    obs = Observability.standard()
    out = None if args.no_record else args.out
    with BenchRun("serving", out=out, trace_out=args.trace, obs=obs) as br:
        br.record(run(smoke=args.smoke, obs=obs, slo=args.slo,
                      overhead=args.overhead))
    result = br.result
    print(report(result))
    if out is not None:
        print(f"record written to {out}")
    if args.trace is not None:
        print(f"trace written to {args.trace} (open in chrome://tracing)")
    failures = _gate(result)
    if failures:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    if args.smoke:
        print("SMOKE OK: zero lost/duplicated/mismatched; bursty load shed "
              f"{result['phases']['bursty']['shed']} requests with 429")
    return 0


if __name__ == "__main__":
    sys.exit(main())
