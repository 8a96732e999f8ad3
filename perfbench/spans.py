"""Traced runs: spans around each layer's public entry points.

Only a traced run (``--trace 1``) imports this.  :func:`install` wraps
the public calls of every layer, from the benchmark's side, with a
recorder that keeps spans in memory: name, start, end, parent span,
thread, request id where one exists, and the time covered by child
spans.  A span's self time is its duration minus that child time.
:func:`layer_metrics` turns the spans of one timed window into the
per-layer numbers; :meth:`SpanRecorder.dump` writes the spans out when
the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

from common import percentile


class SpanRecorder:
    """In-memory span store fed by :meth:`wrap`-ped callables.

    Each span is a list ``[name, start, end, parent, thread, child_s,
    note]``; ``parent`` is the enclosing span on the same thread and
    ``note`` whatever the wrap's ``note(args, result)`` returned (rows,
    bytes or a request id).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def traced(self, fn, name: str, note=None):
        """Return ``fn`` wrapped so each call records one span."""
        spans, local, clock = self.spans, self._local, time.perf_counter

        def traced_call(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, threading.get_ident(), 0.0, None]
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[2] = end
                if parent is not None:
                    parent[5] += end - span[1]
                spans.append(span)
            if note is not None:
                span[6] = note(args, result)
            return result

        return traced_call

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) in place."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name, note))

    def dump(self, path) -> None:
        """Write every span as one JSON line, parents as span indices."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for i, (name, start, end, parent, thread, child, note) in \
                    enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": None if parent is None else index[id(parent)],
                    "thread": thread, "self_s": end - start - child,
                    "note": note}) + "\n")


def _decode_rows(args, result):
    # decode_step(self, tokens, positions, states): one row per token.
    return len(args[1])


def _kv_bytes(args, result):
    keys, values, _ = result
    return int(keys.nbytes + values.nbytes)


def _request_id(args, result):
    return getattr(result, "request_id", result)


def install(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every layer the workloads run."""
    from repro.autograd import tensor
    from repro.core import attention, blocks, gpt
    from repro.infer import engine, paged_kv
    from repro.nn import layers, optim
    from repro.serve import worker
    from repro.train import trainer

    wrap = recorder.wrap
    wrap(worker.EngineWorker, "submit", "serve.submit", _request_id)
    wrap(engine.GenerationEngine, "submit", "engine.submit", _request_id)
    wrap(engine.GenerationEngine, "step", "engine.step")
    # Where the engine looks the sampler up, so only its calls count.
    wrap(engine, "sample_token", "sampling.sample")
    wrap(gpt.TransformerLM, "decode_step", "model.decode_step", _decode_rows)
    wrap(blocks.TransformerBlock, "step", "model.block")
    wrap(attention.MultiHeadSelfAttention, "step", "model.attn")
    wrap(paged_kv.PagedLayerKV, "append", "kv.append", _kv_bytes)
    wrap(trainer.Trainer, "run", "train.run")
    wrap(gpt.TransformerLM, "loss", "train.forward")
    wrap(tensor.Tensor, "backward", "train.backward")
    wrap(optim.AdamW, "step", "train.optimizer")
    wrap(blocks.TransformerBlock, "forward", "nn.block")
    wrap(attention.MultiHeadSelfAttention, "forward", "nn.attn")
    wrap(blocks.FeedForward, "forward", "nn.ffn")
    wrap(layers.LayerNorm, "forward", "nn.norm")


def backward_category(label: str) -> str:
    """Map a :class:`repro.obs.Profiler` module label to an ``nn`` layer.

    Everything outside attention, FFN and the norms (embeddings,
    residual adds, ``lm_head`` and the loss) is ``head_loss``.
    """
    for part, category in ((".attn", "attn"), (".ffn", "ffn"),
                           (".ln1", "norm"), (".ln2", "norm"),
                           (".final_norm", "norm")):
        if part in label:
            return category
    return "head_loss"


def layer_metrics(spans, t0: float, t1: float, backward_s=None) -> dict:
    """Per-layer numbers from the spans that start inside ``[t0, t1]``.

    ``backward_s`` is the profiler's per-category backward time for the
    training window.
    """
    inside = [s for s in spans if t0 <= s[1] <= t1]
    by_name = defaultdict(list)
    for span in inside:
        by_name[span[0]].append(span)

    def total(name, self_time=False):
        return sum(s[2] - s[1] - (s[5] if self_time else 0.0)
                   for s in by_name[name])

    def pct_ms(name, q):
        return 1e3 * percentile([s[2] - s[1] for s in by_name[name]], q)

    def per_ms(seconds, count):
        return 1e3 * seconds / count if count else 0.0

    steps = len(by_name["model.decode_step"])
    rows = sum(s[6] for s in by_name["model.decode_step"])
    step_s = total("engine.step")
    train_steps = len(by_name["train.run"])
    backward_s = backward_s or {}
    out = {
        "serve.submit_ms_p50": pct_ms("serve.submit", 50),
        "serve.submit_ms_p90": pct_ms("serve.submit", 90),
        "engine.steps": steps,
        "engine.rows": rows,
        "engine.step_ms_p50": pct_ms("engine.step", 50),
        "engine.step_ms_p90": pct_ms("engine.step", 90),
        "engine.self_ms": per_ms(total("engine.step", True), steps),
        "kv.append_ms": per_ms(total("kv.append"), steps),
        "kv.append_share": total("kv.append") / step_s if step_s else 0.0,
        "kv.gathered_mb_per_token": (
            sum(s[6] for s in by_name["kv.append"]) / rows / 1e6
            if rows else 0.0),
        "model.decode_step_ms": per_ms(total("model.decode_step"), steps),
        "model.attn_ms": per_ms(total("model.attn", True), steps),
        "model.ffn_norm_ms": per_ms(total("model.block", True), steps),
        "model.head_ms": per_ms(total("model.decode_step", True), steps),
        "sampling.sample_ms": per_ms(total("sampling.sample"), steps),
        "train.batch_ms_p50": pct_ms("train.batch", 50),
        "train.forward_ms_p50": pct_ms("train.forward", 50),
        "train.backward_ms_p50": pct_ms("train.backward", 50),
        "train.optimizer_ms_p50": pct_ms("train.optimizer", 50),
        # Forward: inclusive module times; what is left of the loss call
        # (embedding, lm_head, cross-entropy) plus the blocks' own
        # residual adds is head_loss, matching backward_category().
        "nn.attn_fwd_ms": per_ms(total("nn.attn"), train_steps),
        "nn.ffn_fwd_ms": per_ms(total("nn.ffn"), train_steps),
        "nn.norm_fwd_ms": per_ms(total("nn.norm"), train_steps),
        "nn.head_loss_fwd_ms": per_ms(
            total("train.forward", True) + total("nn.block", True),
            train_steps),
    }
    for category in ("attn", "ffn", "norm", "head_loss"):
        out[f"nn.{category}_bwd_ms"] = per_ms(backward_s.get(category, 0.0),
                                              train_steps)

    return out


def closure(spans, t0: float, t1: float) -> float:
    """Blocking-path self time over wall time for a single driver thread.

    Self times of a span tree add up to its root's duration, so the
    driver thread's summed self time is its root spans' summed durations.
    """
    roots = [s for s in spans if s[3] is None and t0 <= s[1] <= t1]
    if not roots:
        return 0.0
    thread = roots[0][4]
    return sum(s[2] - s[1] for s in roots if s[4] == thread) / (t1 - t0)
