"""KV-cache value policy and ragged key masks shared by the paged cache.

:class:`~repro.infer.PagedKVCache` holds the only KV storage: fixed-size
pages allocated on demand from a shared pool.  This module keeps the two
pieces of policy it reads, so they stay independent of the allocator:

- :func:`kv_value_dtype` — which float dtype the pool stores;
- :func:`ragged_key_mask` — the additive key mask of a batch of rows at
  mixed positions (causal inside a span, ragged across spans, banded
  under a local-attention ``window``, matching the mask of
  :func:`repro.core.attention.causal_mask`).
"""

from __future__ import annotations

import numpy as np

from ..dtypes import resolve_dtype


def kv_value_dtype(model=None, dtype=None) -> np.dtype:
    """The single policy point for the KV pool's *value* dtype.

    Resolution order: an explicit ``dtype`` argument wins; otherwise the
    ``model``'s parameter dtype (so a float32 model gets a float32 pool —
    half the KV bytes per page/slot); otherwise the process policy
    default.  Index and bookkeeping arrays (lengths, block tables, free
    lists, refcounts) stay int64 regardless — they hold positions, not
    activations.
    """
    if dtype is not None:
        return resolve_dtype(dtype)
    if model is not None and hasattr(model, "param_dtype"):
        return model.param_dtype()
    return resolve_dtype(None)


def ragged_key_mask(new_lens: np.ndarray, lo: int, t_max: int,
                    window: int | None, dtype=np.float64) -> np.ndarray | None:
    """Additive ``(n, t_max - lo)`` key mask for rows at mixed lengths.

    Row ``i`` may attend to positions ``< new_lens[i]``: 0 there, and
    ``-inf`` on positions past it (later rows of its own span, unwritten
    tails of shorter slots) and, with a local-attention ``window``, on
    positions that have slid out of the row's band.  Returns ``None``
    when every row sits at ``t_max`` (uniform lengths need no masking).
    ``dtype`` should match the attention scores the mask is added to, so
    a float32 decode step is not upcast by its mask.
    """
    if int(new_lens.min()) == t_max:
        return None
    positions = lo + np.arange(t_max - lo)
    valid = positions[None, :] < new_lens[:, None]
    if window is not None:
        valid &= positions[None, :] >= new_lens[:, None] - window
    return np.where(valid, 0.0, -np.inf).astype(dtype, copy=False)
