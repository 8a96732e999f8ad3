"""The benchmark's own checks: exact counters, seeds, and a stripped checkout.

Run from the root of a checkout (about a minute on 2 vCPUs)::

    python3 -m pytest -q perfbench/test_perfbench.py

``--ops`` makes a window run a fixed number of requests or steps, so the
counters below depend only on the seed, never on timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]
SEED = 3          # a development seed; see common.HOLDOUT_SEED

COUNTERS = {
    "batch": ("engine.steps", "engine.rows", "engine.prefill_rows",
              "kv.pages_peak"),
    "train": ("train.tokens",),
}


def traced(workload: str, seed: int, ops: int, cwd=ROOT) -> dict:
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "60",
               "--trace", "1", "--ops", str(ops)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: value["value"] for name, value in result["metrics"].items()}


def test_batch_counters_repeat_exactly():
    first, second = (traced("batch", SEED, 24) for _ in range(2))
    counters = {name: first[name] for name in COUNTERS["batch"]}
    assert counters == {name: second[name] for name in COUNTERS["batch"]}
    # Prompts of 96-160 tokens against 32-64 new ones: most rows prefill.
    assert 0.6 < counters["engine.prefill_rows"] / counters["engine.rows"] < 0.85


def test_train_counters_repeat_exactly():
    first, second = (traced("train", SEED, 4) for _ in range(2))
    assert first["train.tokens"] == second["train.tokens"] == 4 * 8 * 128


def test_stripped_checkout_fails_without_result(tmp_path: Path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        RUN + ["--workload", "batch", "--seed", "1", "--seconds", "1",
               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
