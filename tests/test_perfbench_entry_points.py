"""The benchmark's traced run keeps working against ``src/``.

``perfbench/spans.py`` wraps named public entry points of every layer
(``install``) and reads what some of them return: rows from
``TransformerLM.decode_step``'s ``tokens`` argument, gathered bytes from
``PagedLayerKV.append``'s ``(keys, values, mask)``.  A rename or a
changed return type would only show as a crashed or silently zeroed
traced run, so these tests exercise that contract directly.  ``install``
monkeypatches classes, so it runs in a subprocess.
"""

import json
import os
import subprocess
import sys

import numpy as np

from repro.infer import PagedKVCache

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = r"""
import json
import numpy as np
import spans
recorder = spans.SpanRecorder()
spans.install(recorder)

from repro.core import TransformerConfig, TransformerLM
from repro.infer import GenerationEngine, SamplingParams
from repro.nn.optim import AdamW
from repro.serve import EngineWorker
from repro.train import Trainer

cfg = TransformerConfig(vocab_size=13, max_seq_len=32, d_model=16,
                        num_heads=2, num_layers=2)
model = TransformerLM(cfg, rng=0)
engine = GenerationEngine(model, batch_size=2,
                          params=SamplingParams(greedy=True))
with EngineWorker(engine) as worker:
    worker.submit(list(range(10)), 3).wait(timeout=60)
    worker.submit([1, 2], 3).wait(timeout=60)

stream = np.random.default_rng(0).integers(0, 13, size=400)
def batch_fn(step, rng):
    starts = rng.integers(0, len(stream) - 17, size=2)
    idx = starts[:, None] + np.arange(16)[None, :]
    return stream[idx], stream[idx + 1]
Trainer(model, AdamW(model.parameters(), lr=1e-3), batch_fn,
        rng=np.random.default_rng(1)).run(1)

names = {}
for name, start, end, parent, thread, child, note in recorder.spans:
    names.setdefault(name, []).append(note)
print(json.dumps(names))
"""


def test_spans_install_wraps_every_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=os.path.join(REPO, "perfbench"),
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    notes = json.loads(proc.stdout.splitlines()[-1])
    assert {"serve.submit", "engine.submit", "engine.step",
            "sampling.sample", "model.decode_step", "model.block",
            "model.attn", "kv.append", "train.run", "train.forward",
            "train.backward", "train.optimizer", "nn.block", "nn.attn",
            "nn.ffn", "nn.norm"} <= notes.keys()
    # rows per step: the 10-token prompt enters as one span next to the
    # other request's rows; every position is fed exactly once
    assert sum(notes["model.decode_step"]) == (10 + 2) + (2 + 2)
    assert max(notes["model.decode_step"]) > 2
    # gathered bytes: every kv.append returns real ndarrays
    assert all(nbytes > 0 for nbytes in notes["kv.append"])
    assert len(notes["kv.append"]) == 2 * len(notes["model.decode_step"])


def test_paged_layer_append_returns_ndarrays():
    cache = PagedKVCache(num_layers=1, batch_size=2, num_heads=2,
                         max_seq_len=16, head_dim=4, page_size=4)
    rng = np.random.default_rng(0)
    span = cache.begin_spans([(0, 0, 5), (1, 0, 1)])
    result = span.layers[0].append(rng.normal(size=(6, 2, 4)),
                                   rng.normal(size=(6, 2, 4)))
    keys, values, mask = result
    for array in (keys, values, mask):
        assert isinstance(array, np.ndarray)
    assert keys.nbytes + values.nbytes == 2 * (2 * 2 * 5 * 4 * 8)
    assert mask.shape == (6, 5)
