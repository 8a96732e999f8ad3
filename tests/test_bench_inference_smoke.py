"""Tier-1 wiring for the decode-path throughput bench.

Runs ``benchmarks/bench_inference_throughput.py --smoke`` as a subprocess
(tiny model, seconds-scale) so a perf regression on the batched decode
path — e.g. reintroducing per-token cache reallocation — fails the normal
test run, not just a manually-invoked benchmark.  The record's PR 8
phases are gated too: the paged KV cache must hold >=2x less memory
per concurrent request than a dense buffer's analytic footprint (with
outputs matching sequential decoding), and prefix-cache hits must skip
prefill rows.  The speculative phase
is gated on deterministic model-step counts (never wall-clock): the
n-gram draft at k=4 must cut model steps >=1.5x while staying
bit-identical to plain greedy decoding.
"""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO, "benchmarks")


def test_inference_throughput_smoke(tmp_path):
    out = tmp_path / "BENCH_inference.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "bench_inference_throughput.py", "--smoke",
         "--out", str(out)],
        cwd=BENCH_DIR, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, \
        f"smoke bench failed\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    # the bench's own gate: batched >= single-stream tokens/sec
    assert "SMOKE OK" in proc.stdout

    record = json.loads(out.read_text())
    assert record["bench"] == "inference_throughput"
    assert record["smoke"] is True
    assert record["sequential"]["tokens_per_sec"] > 0
    batch_sizes = [entry["batch_size"] for entry in record["batched"]]
    assert batch_sizes == [1, 2, 4, 8]
    full = record["batched"][-1]
    assert full["tokens_per_sec"] >= record["sequential"]["tokens_per_sec"]
    # continuous batching actually batched: 8 prompts of equal length decode
    # in ~1/8th the model steps of the single-slot engine
    assert full["model_steps"] * 8 == record["batched"][0]["model_steps"]

    # PR 8 memory phase: paged engine holds >=2x less KV per concurrent
    # request than the dense footprint, with outputs matching sequential
    # generate_fast
    memory = record["memory"]
    assert memory["matches_sequential"] is True
    assert memory["memory_saving_ratio"] >= 2.0
    assert memory["paged_kv_bytes_per_request"] < \
        memory["dense_kv_bytes_per_request"]

    # PR 8 prefix phase: warm requests hit the cache and skip prefill
    # rows (deterministic counts — wall-clock TTFT is reported but not
    # gated here, to keep tier-1 robust on busy machines)
    prefix = record["prefix"]
    assert prefix["warm_matches_reference"] is True
    assert prefix["prefix_hits"] == prefix["num_requests"] - 1
    assert prefix["warm_prefill_rows_mean"] < prefix["cold_prefill_rows"]
    assert prefix["hit_tokens"] > 0

    # PR 9 speculative phase: bit-identical greedy output with a
    # decisive model-step cut (deterministic counts, never wall-clock)
    spec = record["speculative"]
    assert spec["bit_identical_to_baseline"] is True
    assert spec["step_speedup"] >= 1.5
    assert spec["spec_model_steps"] < spec["baseline_model_steps"]
    assert spec["accepted_tokens_per_step"] >= 1.0
    assert 0.0 < spec["acceptance_rate"] <= 1.0
