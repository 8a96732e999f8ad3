"""The decoder-only transformer language model (the §6 "recipe").

Pipeline per the paper: token ids -> embedding vectors (Eq. 7) + positional
encodings (Eq. 15) -> alternating attention (Eqs. 13-14) and FFN layers
with residual connections -> final projection to vocabulary logits -> the
Boltzmann distribution of Eq. 8.  Training minimises Eq. 3 with gradient
descent (Eq. 16).

``forward(ids, cache=...)`` optionally records every intermediate
activation ("contextualized embeddings", §7), which is what the
interpretability toolkit (probes, interventions, induction-head scores)
consumes.

With ``config.fused`` (the default) attention runs through the
single-node :func:`repro.autograd.fused_attention` kernel — numerically
identical to the composed-op reference, including bit-identical seeded
training trajectories.  Passing ``cache=`` (or training with attention
dropout) transparently falls back to the composed path per forward, so
activation capture always works regardless of the flag.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, cross_entropy, no_grad
from ..autograd.functional import dropout as dropout_fn
from ..dtypes import dtype_scope
from ..lm.base import LanguageModel
from ..nn import Embedding, LayerNorm, Linear, Module
from .blocks import TransformerBlock, layer_norm_step
from .config import TransformerConfig
from .positional import LearnedPositional, NoPositional, SinusoidalPositional


class TransformerLM(Module, LanguageModel):
    """GPT-style autoregressive transformer over integer token ids."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator | int = 0):
        super().__init__()
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        self.config = config
        self.vocab_size = config.vocab_size
        # ``config.dtype`` scopes construction only: parameters are drawn
        # in float64 (identical RNG stream) and cast once, and every
        # forward/decode then follows the parameter dtype naturally.
        with dtype_scope(config.dtype):
            self.token_embedding = Embedding(config.vocab_size, config.d_model, rng)
            if config.positional == "learned":
                self.positional = LearnedPositional(config.max_seq_len, config.d_model, rng)
            elif config.positional == "sinusoidal":
                self.positional = SinusoidalPositional(config.max_seq_len, config.d_model)
            else:
                self.positional = NoPositional()
            self.blocks = [TransformerBlock(config, rng) for _ in range(config.num_layers)]
            self.final_norm = LayerNorm(config.d_model)
            self.lm_head = Linear(config.d_model, config.vocab_size, rng, bias=False)
        self.dropout_p = config.dropout
        self._rng = rng

    # ------------------------------------------------------------------
    # Forward / loss
    # ------------------------------------------------------------------
    def forward(self, ids: np.ndarray, cache: dict | None = None) -> Tensor:
        """Return logits of shape (B, T, V) for id array (B, T) or (T,)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.ndim != 2:
            raise ValueError(f"expected (B, T) or (T,) ids, got shape {ids.shape}")
        if ids.shape[1] > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {ids.shape[1]} exceeds window L={self.config.max_seq_len}"
            )
        x = self.positional(self.token_embedding(ids))
        x = dropout_fn(x, self.dropout_p, self._rng, training=self.training)
        if cache is not None:
            cache["embed"] = x.data.copy()
        for i, block in enumerate(self.blocks):
            x = block(x, cache=cache, cache_key=f"block{i}")
        x = self.final_norm(x)
        if cache is not None:
            cache["final"] = x.data.copy()
        return self.lm_head(x)

    def loss(self, x: np.ndarray, y: np.ndarray) -> Tensor:
        """Eq. 3 on one (inputs, shifted-targets) batch."""
        logits = self.forward(x)
        return cross_entropy(logits, np.asarray(y, dtype=np.int64))

    # ------------------------------------------------------------------
    # LanguageModel interface
    # ------------------------------------------------------------------
    def next_token_logprobs(self, context: np.ndarray) -> np.ndarray:
        context = np.asarray(context, dtype=np.int64)
        if context.size == 0:
            # Condition on nothing: feed a window of the first vocab id and
            # read position 0's *prior* is ill-defined for a causal LM, so
            # use a single BOS-less convention: uniform over first tokens
            # seen is not available — instead run on a length-1 dummy and
            # take its unconditional column.  Practical callers always
            # provide at least one context token.
            context = np.zeros(1, dtype=np.int64)
            logits = self._last_logits(context)
            return logits - _logsumexp(logits)
        context = context[-self.config.max_seq_len :]
        logits = self._last_logits(context)
        return logits - _logsumexp(logits)

    def _last_logits(self, context: np.ndarray) -> np.ndarray:
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                logits = self.forward(context[None, :])
        finally:
            if was_training:
                self.train()
        return logits.data[0, -1]

    def cross_entropy_on(self, ids: np.ndarray, seq_len: int | None = None,
                         batch_size: int = 16) -> float:
        """Efficient Eq. 3 evaluation on a held-out token stream.

        Overrides the generic one-token-at-a-time evaluation with batched
        full-window forwards (conditioning resets at window boundaries,
        the standard evaluation convention).
        """
        from ..data.corpus import sequential_batches  # local to avoid cycle

        seq_len = seq_len or self.config.max_seq_len
        was_training = self.training
        self.eval()
        total, count = 0.0, 0
        try:
            with no_grad():
                for x, y in sequential_batches(np.asarray(ids), batch_size, seq_len):
                    nll = cross_entropy(self.forward(x), y, reduction="sum")
                    total += float(nll.data)
                    count += y.size
        finally:
            if was_training:
                self.train()
        if count == 0:
            raise ValueError("held-out stream shorter than one window")
        return total / count

    def perplexity_on(self, ids: np.ndarray, seq_len: int | None = None) -> float:
        return float(np.exp(self.cross_entropy_on(ids, seq_len=seq_len)))

    # ------------------------------------------------------------------
    # KV-cache incremental decoding
    # ------------------------------------------------------------------
    def _embed_positions(self, tokens, positions) -> np.ndarray:
        """(n, d) input rows for n tokens at absolute positions."""
        tokens = np.asarray(tokens, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        x = self.token_embedding.weight.data[tokens].copy()
        if isinstance(self.positional, LearnedPositional):
            x += self.positional.table.weight.data[positions]
        elif isinstance(self.positional, SinusoidalPositional):
            x += self.positional._table[positions]
        return x

    def decode_step(self, tokens, positions, states) -> np.ndarray:
        """One batched KV-cached model step: (n,) tokens -> (n, V) logits.

        Row ``i`` feeds ``tokens[i]`` at absolute position
        ``positions[i]``.  ``states`` are the per-layer views of the
        :class:`repro.infer.SpanBatch` that planned the rows, which the
        caller commits after this returns; consecutive rows of one
        sequence (a span) attend causally to each other, so a whole
        prompt chunk enters in one step.  Plain-NumPy inference math
        mirroring :meth:`forward` at every fed position.
        """
        x = self._embed_positions(tokens, positions)
        for block, state in zip(self.blocks, states):
            x = block.step(x, state)
        return layer_norm_step(self.final_norm, x) @ self.lm_head.weight.data

    def generate_fast(
        self,
        prompt: list[int] | np.ndarray,
        max_new_tokens: int,
        rng: np.random.Generator | None = None,
        temperature: float = 1.0,
        top_k: int | None = None,
        top_p: float | None = None,
        greedy: bool = False,
        stop_token: int | None = None,
    ) -> list[int]:
        """KV-cached generation: O(T) per new token instead of O(T^2).

        Produces the same samples as :meth:`generate` (identical logits up
        to floating-point round-off, and the same ids for the same seed —
        including the stop-token convention of appending the stop token
        and halting).  Total length must fit the model's window L — the
        guard below makes every position absolute, so no sliding-window
        re-offsetting is ever needed here (the re-encoding of long
        contexts is what :meth:`generate` handles).

        A batch-of-one :class:`~repro.infer.GenerationEngine` call: the
        prompt enters in span steps, then one token per step, drawing
        from ``rng`` exactly like :meth:`generate`.
        """
        from ..infer import GenerationEngine, SamplingParams

        ids = [int(i) for i in prompt]
        if not ids:
            raise ValueError("generate_fast requires a non-empty prompt")
        if len(ids) + max_new_tokens > self.config.max_seq_len:
            raise ValueError(
                f"prompt + max_new_tokens = {len(ids) + max_new_tokens} "
                f"exceeds window L={self.config.max_seq_len}; use generate()"
            )
        params = SamplingParams(temperature=temperature, top_k=top_k,
                                top_p=top_p, greedy=greedy,
                                stop_token=stop_token)
        engine = GenerationEngine(self, batch_size=1, rng=rng, params=params,
                                  prefix_cache=False)
        return engine.generate([ids], max_new_tokens)[0]


def _logsumexp(v: np.ndarray) -> float:
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))
