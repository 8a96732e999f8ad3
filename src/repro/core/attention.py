"""Multi-head causal self-attention (Eqs. 13-14).

Each output position i is a learned linear map W of a softmax-weighted sum
of value vectors at positions j <= i, with weights given by the Boltzmann
form ``c_ij = softmax_j(u_i . B . u_j)``.  The bilinear form B is factored
into "key" and "query" matrices (the paper's footnote 32), and H heads of
dimension q = p / H run in parallel and are concatenated.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, fused_attention, softmax, split3
from ..autograd.functional import dropout as dropout_fn
from ..dtypes import f64_sum
from ..nn import Linear, Module

_MASK_VALUE = -1e9

# Mask arrays keyed by (seq_len, window, dtype).  Every layer of every
# forward used to rebuild the same (T, T) triangle; masks are small and
# few distinct keys occur in a run, so cache them as read-only arrays.
# The dtype is part of the key so a float32 model gets a float32 mask —
# adding a float64 mask to float32 scores would upcast the whole score
# tensor.  Bounded so pathological callers can't grow it forever.
_MASK_CACHE: dict[tuple[int, int | None, str], np.ndarray] = {}
_MASK_CACHE_MAX = 64


def causal_mask(seq_len: int, window: int | None = None,
                dtype=np.float64) -> np.ndarray:
    """Additive (1, 1, T, T) mask: 0 on allowed pairs, -1e9 elsewhere.

    Implements the j <= i restriction of Eq. 13 that makes the model
    autoregressive (footnote 33).  With ``window`` set, position i may
    additionally only attend to the last ``window`` positions — the
    local/sparse-attention variant §6 cites (Child et al.) as the standard
    fix for the O(L^2) cost; compute here stays dense (NumPy), but the
    *connectivity* matches.

    ``dtype`` should match the scores the mask is added to (-1e9 is
    exactly representable in float32, so masking semantics are identical
    at either precision).  Results are cached per
    ``(seq_len, window, dtype)`` and returned as shared **read-only**
    arrays — do not mutate; copy first if you must.
    """
    if window is not None and window < 1:
        raise ValueError("attention window must be >= 1")
    dtype = np.dtype(dtype)
    key = (seq_len, window, dtype.str)
    cached = _MASK_CACHE.get(key)
    if cached is not None:
        return cached
    mask = np.triu(np.full((seq_len, seq_len), _MASK_VALUE, dtype=dtype), k=1)
    if window is not None:
        mask += np.tril(np.full((seq_len, seq_len), _MASK_VALUE, dtype=dtype),
                        k=-window)
    mask = mask[None, None, :, :]
    mask.setflags(write=False)
    if len(_MASK_CACHE) >= _MASK_CACHE_MAX:
        _MASK_CACHE.clear()
    _MASK_CACHE[key] = mask
    return mask


class MultiHeadSelfAttention(Module):
    """H parallel attention heads followed by an output projection."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
        causal: bool = True,
        window: int | None = None,
        fused: bool = True,
        block_size: int | None = None,
    ):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.causal = causal
        self.window = window
        self.dropout_p = dropout
        self.fused = fused
        self.block_size = block_size
        self._rng = rng
        # Fused query/key/value projection (the factored B of Eq. 14) and
        # the output map W of Eq. 13.
        self.qkv = Linear(d_model, 3 * d_model, rng)
        self.proj = Linear(d_model, d_model, rng)

    def forward(self, x: Tensor, cache: dict | None = None,
                cache_key: str = "attn") -> Tensor:
        """Eqs. 13-14 over a (B, T, d_model) batch.

        Two numerically equivalent execution paths: the default **fused**
        kernel (:func:`repro.autograd.fused_attention` fed by
        :func:`~repro.autograd.split3`, one graph node for the whole
        softmax-attention) and the **composed** reference built from
        primitive ops.  The composed path is kept for attention-weights
        capture (``cache=`` needs the intermediate softmax, which the
        fused node never materialises as a Tensor) and for attention
        dropout during training (the fused node has no hook between the
        softmax and the weighted sum).
        """
        batch, seq_len, _ = x.shape
        qkv = self.qkv(x)  # (B, T, 3C)
        use_fused = (
            self.fused
            and cache is None
            and not (self.training and self.dropout_p > 0.0)
        )
        mask = (
            causal_mask(seq_len, window=self.window, dtype=qkv.data.dtype)
            if self.causal else None
        )
        if use_fused:
            q, k, v = split3(qkv, axis=-1)
            out = fused_attention(
                q, k, v, self.num_heads,
                mask=mask,
                scale=1.0 / np.sqrt(self.head_dim),
                block_size=self.block_size,
            )
            return self.proj(out)

        q = qkv[:, :, : self.d_model]
        k = qkv[:, :, self.d_model : 2 * self.d_model]
        v = qkv[:, :, 2 * self.d_model :]

        def split_heads(t: Tensor) -> Tensor:
            return t.reshape(batch, seq_len, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

        q, k, v = split_heads(q), split_heads(k), split_heads(v)  # (B, H, T, q)
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        if self.causal:
            scores = scores + Tensor(mask)
        weights = softmax(scores, axis=-1)  # the c_ij of Eq. 14
        if cache is not None:
            cache[f"{cache_key}.weights"] = weights.data.copy()
        weights = dropout_fn(weights, self.dropout_p, self._rng, training=self.training)
        out = weights @ v  # (B, H, T, q): the weighted sums of Eq. 13
        out = out.transpose(0, 2, 1, 3).reshape(batch, seq_len, self.d_model)
        return self.proj(out)

    def step(self, x: np.ndarray, state) -> np.ndarray:
        """Incremental decoding: a batch of new positions against the KV cache.

        ``x`` is the ``(n, d_model)`` input of the step's rows; ``state``
        is this layer's view of the step's :class:`repro.infer.SpanBatch`.
        Rows come in *spans* — consecutive positions of one sequence:
        one row for a decoding sequence, a chunk of the prompt for a
        prefilling one.  ``state.append`` writes the rows' keys/values
        and returns one gathered history per span.  The one-row spans
        attend as one batched read; each longer span attends as one
        ``(H, m, t)`` product, its rows masked causally like the
        training forward (Eq. 13).

        Inference-only plain-NumPy math — a prompt costs one pass per
        span instead of one per position, and a generated token O(t)
        instead of the O(T^2) of re-running the full forward.
        """
        n = x.shape[0]
        qkv = x @ self.qkv.weight.data + self.qkv.bias.data
        q, k, v = (t.reshape(n, self.num_heads, self.head_dim)
                   for t in np.split(qkv, 3, axis=-1))
        keys, values, mask = state.append(k, v)   # (spans, H, t, hd)
        span = state.span
        out = np.empty_like(q)
        single = span.single_rows
        if single.size:
            rows_mask = None if mask is None else mask[single][:, None, None]
            out[single] = _attend(q[single][:, :, None], keys[:single.size],
                                  values[:single.size], rows_mask,
                                  self.head_dim)[:, :, 0]
        for s, (lo, hi) in enumerate(span.span_rows, start=single.size):
            att = _attend(q[lo:hi].transpose(1, 0, 2)[None], keys[s:s + 1],
                          values[s:s + 1], mask[lo:hi][None, None],
                          self.head_dim)
            out[lo:hi] = att[0].transpose(1, 0, 2)
        out = out.reshape(n, self.d_model)
        return out @ self.proj.weight.data + self.proj.bias.data


def _attend(q: np.ndarray, keys: np.ndarray, values: np.ndarray,
            mask: np.ndarray | None, head_dim: int) -> np.ndarray:
    """Softmax attention over stacks: ``(G, H, m, hd)`` queries against
    ``(G, H, t, hd)`` keys/values, plus an additive mask broadcasting to
    ``(G, H, m, t)``; returns ``(G, H, m, hd)``."""
    # One (G, H, m, t) buffer, updated in place: a prefill span's scores
    # are the largest temporary of the step.  float(): a np.float64
    # divisor would upcast float32 scores (NEP 50 keeps numpy scalars
    # strong); a Python float follows the array.
    scores = q @ keys.swapaxes(-1, -2)
    scores /= float(np.sqrt(head_dim))
    if mask is not None:
        scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= f64_sum(scores, axis=-1, keepdims=True)
    return scores @ values
