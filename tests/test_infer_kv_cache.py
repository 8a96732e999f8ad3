"""Unit tests for the KV cache's span protocol and the windowed attention step."""

import numpy as np
import pytest

from repro.core import TransformerConfig, TransformerLM
from repro.core.attention import MultiHeadSelfAttention
from repro.infer import PagedKVCache


def _rand_kv(rng, n, heads, hd):
    return rng.normal(size=(n, heads, hd)), rng.normal(size=(n, heads, hd))


def make_cache(**kwargs):
    defaults = dict(num_layers=1, page_size=4, prefix_sharing=False)
    defaults.update(kwargs)
    return PagedKVCache(**defaults)


def write_step(cache, slots, rng):
    """One single-position step on ``slots``: every layer appends, then
    the lengths commit.  Returns the last layer's ``(k, keys, values,
    mask)``."""
    spans = [(slot, int(cache.lengths[slot]), 1) for slot in slots]
    span = cache.begin_spans(spans)
    _, _, heads, _, hd = cache._k.shape
    for layer in span.layers:
        k, v = _rand_kv(rng, len(slots), heads, hd)
        keys, values, mask = layer.append(k, v)
    for slot, start, m in spans:
        cache.commit_span(slot, start + m)
    return k, keys, values, mask


class TestKVCache:
    def test_buffers_allocated_once(self):
        cache = make_cache(num_layers=2, batch_size=3, num_heads=2,
                           max_seq_len=16, head_dim=4)
        k_id, v_id = id(cache._k), id(cache._v)
        rng = np.random.default_rng(0)
        for _ in range(16):
            write_step(cache, [0, 1, 2], rng)
        assert id(cache._k) == k_id and id(cache._v) == v_id

    def test_append_returns_written_prefix(self):
        cache = make_cache(batch_size=2, num_heads=1, max_seq_len=8,
                           head_dim=3)
        rng = np.random.default_rng(0)
        written = []
        for t in range(4):
            k, keys, _values, mask = write_step(cache, [0, 1], rng)
            written.append(k)
            assert mask is None  # uniform lengths
            assert keys.shape == (2, 1, t + 1, 3)
            assert np.array_equal(keys[:, :, -1], k)
            for j, past in enumerate(written):
                assert np.array_equal(keys[:, :, j], past)

    def test_overflow_raises(self):
        cache = make_cache(batch_size=1, num_heads=1, max_seq_len=2,
                           head_dim=2)
        rng = np.random.default_rng(0)
        for _ in range(2):
            write_step(cache, [0], rng)
        with pytest.raises(ValueError, match="overflow"):
            write_step(cache, [0], rng)

    def test_ragged_lengths_masked(self):
        cache = make_cache(batch_size=2, num_heads=1, max_seq_len=8,
                           head_dim=2)
        rng = np.random.default_rng(0)
        # advance slot 0 twice before slot 1 starts
        for _ in range(2):
            write_step(cache, [0], rng)
        _, keys, _values, mask = write_step(cache, [0, 1], rng)
        assert keys.shape[2] == 3  # slot 0 now at length 3
        assert mask is not None and mask.shape == (2, 3)
        assert np.all(mask[0] == 0.0)                      # full history valid
        assert mask[1, 0] == 0.0                           # own new entry valid
        assert np.isneginf(mask[1, 1:]).all()              # unwritten tail masked

    def test_windowed_reads_are_bounded(self):
        cache = make_cache(batch_size=1, num_heads=1, max_seq_len=12,
                           head_dim=2, window=3)
        rng = np.random.default_rng(0)
        for t in range(12):
            _, keys, _values, mask = write_step(cache, [0], rng)
            assert mask is None
            assert keys.shape[2] == min(t + 1, 3)

    def test_slot_reuse_overwrites_in_place(self):
        cache = make_cache(batch_size=2, num_heads=1, max_seq_len=4,
                           head_dim=2)
        rng = np.random.default_rng(0)
        for _ in range(3):
            write_step(cache, [0, 1], rng)
        (page,) = cache.block_tables[1]
        cache.reset_slot(1)
        assert cache.lengths[1] == 0 and cache.lengths[0] == 3
        k, keys, _values, _mask = write_step(cache, [1], rng)
        assert cache.block_tables[1] == [page]   # the freed page, reused
        assert keys.shape[2] == 1
        assert np.array_equal(keys[0, :, 0], k[0])

    def test_for_model_sizes_from_config(self):
        cfg = TransformerConfig(vocab_size=7, max_seq_len=32, d_model=16,
                                num_heads=2, num_layers=3, attention_window=5)
        model = TransformerLM(cfg, rng=0)
        cache = PagedKVCache.for_model(model, batch_size=4)
        assert cache.num_layers == 3
        # dense-equivalent capacity: 4 slots x 32 positions / 16 per page
        assert cache._k.shape == (3, 8, 2, 16, 8)
        assert cache.window == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PagedKVCache(num_layers=0, batch_size=1, num_heads=1,
                         max_seq_len=4, head_dim=2)
        with pytest.raises(ValueError):
            PagedKVCache(num_layers=1, batch_size=1, num_heads=1,
                         max_seq_len=4, head_dim=2, window=0)


class _Recording:
    """Layer view that records how many key positions each read covers."""

    def __init__(self, layer):
        self._layer = layer
        self.span = layer.span
        self.widths: list[int] = []

    def append(self, k, v):
        keys, values, mask = self._layer.append(k, v)
        self.widths.append(keys.shape[2])
        return keys, values, mask


def _step_attention(attn, cache, x, spans):
    """Feed ``x[0, start:start + m]`` for each ``(start, m)`` of slot 0
    through ``attn.step``; returns the outputs and the read widths."""
    outs, widths = [], []
    for start, m in spans:
        span = cache.begin_spans([(0, start, m)])
        state = _Recording(span.layers[0])
        outs.append(attn.step(x[0, start:start + m], state))
        widths += state.widths
        cache.commit_span(0, start + m)
    return np.concatenate(outs), widths


class TestWindowedSpanStep:
    """With ``window`` set, a step reads only the band it may attend to,
    and spans longer than the window still match the banded forward."""

    def test_reads_stay_within_window(self):
        rng = np.random.default_rng(0)
        attn = MultiHeadSelfAttention(d_model=8, num_heads=2, rng=rng,
                                      window=4)
        cache = make_cache(batch_size=1, num_heads=2, max_seq_len=32,
                           head_dim=4, window=4)
        x = rng.normal(size=(1, 26, 8))
        spans = [(t, 1) for t in range(20)] + [(20, 6)]
        _, widths = _step_attention(attn, cache, x, spans)
        # one-position steps read at most the window; a span of m rows
        # reads the window of its first row plus its own m - 1 rows
        assert max(widths[:20]) == 4
        assert widths[20] <= 4 + 6 - 1

    def test_windowed_span_step_matches_full_forward(self):
        """Chunked prefill (a span longer than the window) followed by
        single-position decode agrees with the banded-mask forward."""
        from repro.autograd import Tensor, no_grad

        rng = np.random.default_rng(1)
        attn = MultiHeadSelfAttention(d_model=8, num_heads=2,
                                      rng=np.random.default_rng(2), window=3)
        attn.eval()
        cache = make_cache(batch_size=1, num_heads=2, max_seq_len=16,
                           head_dim=4, window=3)
        x = rng.normal(size=(1, 10, 8))
        with no_grad():
            full = attn.forward(Tensor(x)).data
        stepped, _ = _step_attention(attn, cache, x,
                                     [(0, 6)] + [(t, 1) for t in range(6, 10)])
        # float64 round-off only: the step and the forward sum the same
        # terms in a different order
        np.testing.assert_allclose(stepped, full[0], rtol=0, atol=1e-12)
