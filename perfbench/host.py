"""Program host: runs the system under test in a fresh process of its own.

Usage (spoken to by ``run.py`` over stdin/stdout, one JSON object per
line)::

    python3 perfbench/host.py {chat,batch,train} --seed N --trace {0,1}

The host imports ``repro``, builds the program and reports
``{"event": "built", ...}`` with its clock stamps (``perf_counter`` is
the system-wide monotonic clock, so the parent subtracts them from its
own spawn time).  It then obeys commands:

- ``{"cmd": "warmup"}`` (``batch``/``train``) warms up and replies
  ``{"event": "ready"}``; ``chat`` is warmed over HTTP by the parent.
- ``{"cmd": "run", "seconds": S, "ops": N}`` (``batch``/``train``) runs
  the timed window -- until ``S`` seconds have passed and at least
  ``MIN_OPS`` operations finished, or exactly ``N`` operations when
  ``ops`` is set -- and replies ``{"event": "result", ...}``.
- ``{"cmd": "report", "t0": ..., "t1": ...}`` (traced ``chat``) replies
  with the layer numbers of that window.
- ``{"cmd": "exit"}`` stops the program and exits.

For ``chat`` the host is the server launcher: it serves over HTTP on an
ephemeral port until told to exit.  In a traced run it installs the
span wrappers before it builds anything.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import (
    ENGINE_BATCH, MIN_OPS, MODEL_SEED, OUT_DIR, QUEUE_CAP, TIMEOUT_S,
    TRAIN_LR, batch_requests, peak_rss_mb, prepare_process, serve_config,
    train_batches, train_config)


def emit(message: dict) -> None:
    """One protocol line to the parent."""
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def commands():
    """Parent commands, one JSON object per stdin line, until EOF."""
    for line in sys.stdin:
        yield json.loads(line)


class Serve:
    """``chat``: the HTTP server the load generator talks to."""

    def __init__(self, seed: int):
        from repro.core import TransformerLM
        from repro.infer import GenerationEngine
        from repro.serve import AdmissionPolicy, InferenceServer

        model = TransformerLM(serve_config(), rng=MODEL_SEED)
        engine = GenerationEngine(model, batch_size=ENGINE_BATCH)
        policy = AdmissionPolicy(max_queue_depth=QUEUE_CAP,
                                 request_timeout_s=TIMEOUT_S)
        self.server = InferenceServer(engine, policy=policy, port=0).start()
        self.built = {"port": self.server.port}

    def close(self) -> None:
        self.server.close()


class Batch:
    """``batch``: one driver thread keeping the engine's batch full."""

    def __init__(self, seed: int):
        from repro.core import TransformerLM
        from repro.infer import GenerationEngine, SamplingParams

        model = TransformerLM(serve_config(), rng=MODEL_SEED)
        self.engine = GenerationEngine(model, batch_size=ENGINE_BATCH,
                                       params=SamplingParams(greedy=True))
        self.seed = seed
        self.sampled: list[tuple[int, int]] = []
        self.engine.on_token = lambda rid, token: \
            self.sampled.append((rid, token))
        self.built = {}

    def warmup(self) -> None:
        """Short prompts through every engine path, then an empty engine."""
        import numpy as np
        rng = np.random.default_rng([self.seed, 6])
        for _ in range(ENGINE_BATCH):
            self.engine.submit(rng.integers(0, 64, size=16).tolist(), 8)
        self.engine.run()
        self.sampled.clear()

    def run(self, seconds: float, ops: int | None) -> dict:
        engine, clock = self.engine, time.perf_counter
        stream = batch_requests(self.seed)
        requests: list[dict] = []
        inflight: dict[int, dict] = {}
        stats0 = engine.stats()
        t0 = clock()
        deadline = t0 + seconds
        done = 0
        while True:
            if ops is None:
                if clock() >= deadline and done >= MIN_OPS:
                    break
            elif len(requests) >= ops and not inflight:
                break
            while len(inflight) < ENGINE_BATCH and (
                    ops is None or len(requests) < ops):
                request = next(stream)
                record = {"index": len(requests), "submit": clock(),
                          "tokens": [], "times": []}
                rid = engine.submit(request["prompt"],
                                    request["max_new_tokens"])
                inflight[rid] = record
                requests.append(record)
            engine.step()
            now = clock()
            for rid, token in self.sampled:
                inflight[rid]["tokens"].append(token)
                inflight[rid]["times"].append(now)
            self.sampled.clear()
            for result in engine.drain():
                record = inflight.pop(result.request_id)
                record["timing"] = {"queue_wait_s": result.timing.queue_wait_s,
                                    "prefill_s": result.timing.prefill_s}
                done += 1
        return {"t0": t0, "t1": clock(), "requests": requests,
                "stats0": stats0, "stats1": engine.stats()}

    def close(self) -> None:
        pass


class Train:
    """``train``: ``Trainer.run`` one optimizer step at a time."""

    WARMUP_STEPS = 2

    def __init__(self, seed: int, recorder=None):
        from repro.core import TransformerLM
        from repro.nn.optim import AdamW
        from repro.obs import Profiler
        from repro.train import Trainer

        self.model = TransformerLM(train_config(), rng=MODEL_SEED)
        optimizer = AdamW(self.model.parameters(), lr=TRAIN_LR)
        batch_fn, rng = train_batches(seed)
        # Traced: batch_fn gets a span, and the public Profiler charges
        # backward time to the module that built each autograd node.
        self.profiler = None
        if recorder is not None:
            batch_fn = recorder.traced(batch_fn, "train.batch")
            self.profiler = Profiler()
        self.trainer = Trainer(self.model, optimizer, batch_fn, rng=rng)
        self.losses: list[float] = []
        self.built = {}

    def step(self) -> int:
        """One optimizer step; returns its trained tokens."""
        history = self.trainer.run(1)
        self.losses.append(history.losses[0])
        return history.step_tokens[0]

    def warmup(self) -> None:
        for _ in range(self.WARMUP_STEPS):
            self.step()

    def run(self, seconds: float, ops: int | None) -> dict:
        from contextlib import nullcontext
        clock = time.perf_counter
        steps = []
        profiling = nullcontext() if self.profiler is None \
            else self.profiler.profile(self.model)
        with profiling:
            t0 = clock()
            deadline = t0 + seconds
            while True:
                if ops is None:
                    if clock() >= deadline and len(steps) >= MIN_OPS:
                        break
                elif len(steps) >= ops:
                    break
                start = clock()
                tokens = self.step()
                steps.append({"start": start, "end": clock(),
                              "tokens": tokens})
        return {"t0": t0, "t1": clock(), "steps": steps,
                "losses": self.losses}

    def close(self) -> None:
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["chat", "batch", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    prepare_process()
    import repro  # noqa: F401  (the whole package, research modules too)
    t_imported = time.perf_counter()
    recorder = None
    if args.trace:
        import spans
        recorder = spans.SpanRecorder()
        spans.install(recorder)
    if args.workload == "chat":
        program = Serve(args.seed)
    elif args.workload == "batch":
        program = Batch(args.seed)
    else:
        program = Train(args.seed, recorder)
    dump = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    emit({"event": "built", "t_imported": t_imported,
          "t_built": time.perf_counter(), **program.built})

    try:
        for cmd in commands():
            if cmd["cmd"] == "warmup":
                program.warmup()
                emit({"event": "ready"})
            elif cmd["cmd"] == "run":
                result = program.run(cmd["seconds"], cmd.get("ops"))
                result["peak_rss_mb"] = peak_rss_mb()
                if recorder is not None:
                    result["layers"] = _layers(recorder, program, result)
                    recorder.dump(dump)
                emit({"event": "result", **result})
            elif cmd["cmd"] == "report":
                layers = spans.layer_metrics(recorder.spans, cmd["t0"],
                                             cmd["t1"])
                recorder.dump(dump)
                emit({"event": "report", "layers": layers})
            elif cmd["cmd"] == "exit":
                break
    finally:
        program.close()


def _layers(recorder, program, result) -> dict:
    import spans
    backward = {}
    if getattr(program, "profiler", None) is not None:
        for label, stats in program.profiler.summary().items():
            category = spans.backward_category(label)
            backward[category] = backward.get(category, 0.0) + \
                stats["backward_s"]
    layers = spans.layer_metrics(recorder.spans, result["t0"], result["t1"],
                                 backward_s=backward)
    layers["trace.closure"] = spans.closure(recorder.spans, result["t0"],
                                            result["t1"])
    return layers


if __name__ == "__main__":
    main()
