"""Batched inference: paged KV cache + continuous-batching engine.

``repro.core`` ends the §6 recipe at single-sequence sampling; this
package is the serving layer on top of it.  :class:`GenerationEngine`
decodes a whole pool of prompts per model step, admitting queued
prompts into retired slots so throughput scales with batch size
instead of user count.  Every step is a *span step*: decoding slots
feed one token each, prefilling slots feed a budgeted chunk of their
prompt, and the rows of a chunk attend causally to each other in the
same forward (:class:`SpanBatch`).

:class:`PagedKVCache` holds the KV storage in fixed-size refcounted
pages with per-slot block tables, so memory tracks actual sequence
lengths, identical prompt prefixes are shared across requests via
:class:`PrefixCache`, and forks copy-on-write (see docs/KV_CACHE.md).

Per-request :class:`SamplingParams` carry each submit's own
temperature/top-k/top-p/stop/seed (the engine groups identical params
into one vectorized sampler call), and speculative decoding
(:class:`SpeculativeConfig` + any :class:`DraftModel`) lets a cheap
draft propose k tokens that one verify span over a forked KV branch
accepts a prefix of; greedy output keeps the non-speculative tokens
(see docs/SPECULATIVE.md).
"""

from .engine import (GenerationEngine, GenerationResult, PromptLimitError,
                     RequestTiming)
from .kv_cache import ragged_key_mask
from .paged_kv import PagedKVCache, PagePoolExhausted, PrefixCache, SpanBatch
from .sampling_params import SamplingParams, SamplingParamsError
from .speculative import DraftModel, SpeculativeConfig, verify_draft

__all__ = [
    "ragged_key_mask",
    "PagedKVCache",
    "PagePoolExhausted",
    "PrefixCache",
    "SpanBatch",
    "GenerationEngine",
    "GenerationResult",
    "PromptLimitError",
    "RequestTiming",
    "SamplingParams",
    "SamplingParamsError",
    "SpeculativeConfig",
    "DraftModel",
    "verify_draft",
]
