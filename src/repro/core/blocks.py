"""Transformer blocks: attention + position-wise FFN with residuals.

A block applies the two layer types of §6 in alternation — attention
(Eqs. 13-14) then an FFN applied to each position independently — each as
a residual update ("sums of these with the identity function").  Pre-layer
normalisation is the modern default; both the residuals and the pre-LN are
ablatable via the config flags.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..autograd.functional import dropout as dropout_fn
from ..nn import LayerNorm, Linear, Module, get_activation
from .attention import MultiHeadSelfAttention
from .config import TransformerConfig


def layer_norm_step(norm: LayerNorm, x: np.ndarray) -> np.ndarray:
    """``norm(x)`` in plain NumPy: the decode step's LayerNorm, over the
    last axis with ``norm``'s parameters and no autograd graph."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return ((x - mu) / np.sqrt(var + norm.eps)) * norm.weight.data \
        + norm.bias.data


class FeedForward(Module):
    """Position-wise FFN: Linear(p -> p_h), nonlinearity, Linear(p_h -> p).

    This is footnote 34's ``v_i = W_1 max(0, W_0 u_i + b_0) + b_1`` with a
    configurable nonlinearity (GELU by default, ReLU available).
    """

    def __init__(self, d_model: int, d_ff: int, rng: np.random.Generator,
                 activation: str = "gelu", dropout: float = 0.0):
        super().__init__()
        self.fc_in = Linear(d_model, d_ff, rng)
        self.fc_out = Linear(d_ff, d_model, rng)
        self._activation = get_activation(activation)
        self.dropout_p = dropout
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        h = self._activation(self.fc_in(x))
        h = self.fc_out(h)
        return dropout_fn(h, self.dropout_p, self._rng, training=self.training)


class TransformerBlock(Module):
    """One (attention, FFN) pair with residual connections and layer norm."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.ln1 = LayerNorm(config.d_model)
        self.attn = MultiHeadSelfAttention(
            config.d_model, config.num_heads, rng, dropout=config.dropout,
            window=config.attention_window, fused=config.fused,
            block_size=config.attention_block_size,
        )
        self.ln2 = LayerNorm(config.d_model)
        self.ffn = FeedForward(
            config.d_model, config.d_ff, rng,
            activation=config.activation, dropout=config.dropout,
        )

    def forward(self, x: Tensor, cache: dict | None = None,
                cache_key: str = "block") -> Tensor:
        cfg = self.config
        if cfg.pre_layernorm:
            attn_out = self.attn(self.ln1(x), cache=cache, cache_key=cache_key)
            x = x + attn_out if cfg.use_residual else attn_out
            ffn_out = self.ffn(self.ln2(x))
            x = x + ffn_out if cfg.use_residual else ffn_out
        else:  # post-LN (original Vaswani arrangement)
            attn_out = self.attn(x, cache=cache, cache_key=cache_key)
            x = self.ln1(x + attn_out if cfg.use_residual else attn_out)
            ffn_out = self.ffn(x)
            x = self.ln2(x + ffn_out if cfg.use_residual else ffn_out)
        if cache is not None:
            cache[f"{cache_key}.out"] = x.data.copy()
        return x

    def step(self, x: np.ndarray, state) -> np.ndarray:
        """Incremental-decoding counterpart of forward for a batch of rows.

        ``x`` is ``(n, d_model)``, one row per position fed this step;
        ``state`` is this block's layer view of the step's
        :class:`repro.infer.SpanBatch`, passed through to
        :meth:`MultiHeadSelfAttention.step`.  Plain-NumPy inference math
        mirroring the forward pass exactly.
        """

        def ffn(values):
            h = values @ self.ffn.fc_in.weight.data + self.ffn.fc_in.bias.data
            h = self.ffn._activation(Tensor(h)).data
            return h @ self.ffn.fc_out.weight.data + self.ffn.fc_out.bias.data

        cfg = self.config
        if cfg.pre_layernorm:
            attn_out = self.attn.step(layer_norm_step(self.ln1, x), state)
            x = x + attn_out if cfg.use_residual else attn_out
            ffn_out = ffn(layer_norm_step(self.ln2, x))
            return x + ffn_out if cfg.use_residual else ffn_out
        attn_out = self.attn.step(x, state)
        x = layer_norm_step(self.ln1,
                            x + attn_out if cfg.use_residual else attn_out)
        ffn_out = ffn(x)
        return layer_norm_step(self.ln2,
                               x + ffn_out if cfg.use_residual else ffn_out)
