"""Oracle tests for the span step: chunked prefill on the paged KV cache.

Every model step feeds each active slot a *span* of consecutive
positions — one row for a decoding slot, a budgeted chunk of the prompt
for a prefilling one.  The reference is the one oracle the repo keeps:
the full training ``forward`` (Eq. 13's causal mask over the whole
sequence).  The span step must reproduce its logits at every position,
emit the same greedy tokens, keep decoding slots moving while a long
prompt prefills, and gather one history per span, not per row.
"""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.core import TransformerConfig, TransformerLM
from repro.infer import GenerationEngine, PagedKVCache, SamplingParams
from repro.infer.engine import PREFILL_BUDGET
from repro.infer.paged_kv import PagedLayerKV

GREEDY = SamplingParams(greedy=True)

# Span-step logits differ from the forward's only by summation order
# (row blocks vs the full (T, T) product, einsum vs matmul).  float64:
# a few ulps of logits of magnitude ~4 through two blocks, seen at
# ~3e-15.  float32: the same reordering at eps ~1.2e-7, seen at ~2e-6.
TOLERANCE = {"float64": 1e-12, "float32": 1e-4}

LONG = 2 * PREFILL_BUDGET + 7          # a prompt that needs three chunks


def tiny_model(dtype=None, **kwargs):
    cfg = TransformerConfig(vocab_size=13, max_seq_len=LONG + 24, d_model=16,
                            num_heads=2, num_layers=2, dtype=dtype, **kwargs)
    return TransformerLM(cfg, rng=0)


def forward_logits(model, tokens) -> np.ndarray:
    with no_grad():
        return model.forward(np.asarray(tokens)).data[0]


def run_schedule(model, seqs, schedule):
    """Feed ``seqs`` through span steps on a fresh cache.

    ``schedule`` lists steps; each step is a list of ``(seq, m)``: feed
    the next ``m`` tokens of sequence ``seq`` as one span.  Returns, per
    sequence, ``{position: logits}`` for every fed position.
    """
    cache = PagedKVCache.for_model(model, batch_size=len(seqs), page_size=8)
    fed = [0] * len(seqs)
    logits = [{} for _ in seqs]
    for step in schedule:
        spans = [(i, fed[i], m) for i, m in step]
        tokens = [t for i, m in step for t in seqs[i][fed[i]:fed[i] + m]]
        span = cache.begin_spans(spans)
        out = model.decode_step(tokens, span.positions, span.layers)
        row = 0
        for i, m in step:
            for j in range(m):
                logits[i][fed[i] + j] = out[row + j]
            row += m
            fed[i] += m
            cache.commit_span(i, fed[i])
    return logits


class TestForwardOracle:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("arch", [{}, {"attention_window": 5}],
                             ids=["full", "windowed"])
    def test_logits_match_forward_at_every_position(self, arch, dtype):
        """A ragged batch mixing multi-chunk prefill, short prompts and
        one-row decode spans matches the forward everywhere."""
        model = tiny_model(dtype=dtype, **arch)
        rng = np.random.default_rng(0)
        seqs = [rng.integers(0, 13, size=n).tolist() for n in (70, 20, 9)]
        schedule = [[(0, 30), (1, 1), (2, 4)],
                    [(0, 30), (1, 12), (2, 1)],
                    [(0, 10), (1, 7), (2, 1)],
                    [(2, 1)], [(2, 1)], [(2, 1)]]
        got = run_schedule(model, seqs, schedule)
        for seq, rows in zip(seqs, got):
            assert sorted(rows) == list(range(len(seq)))
            ref = forward_logits(model, seq)
            for position, row in rows.items():
                assert row.dtype == ref.dtype
                np.testing.assert_allclose(row, ref[position], rtol=0,
                                           atol=TOLERANCE[dtype])

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("arch", [{}, {"attention_window": 5}],
                             ids=["full", "windowed"])
    def test_engine_greedy_tokens_match_forward(self, arch, dtype):
        """Prompts longer than the budget, queued behind short ones, in
        a ragged batch: greedy tokens equal the full-forward decode."""
        model = tiny_model(dtype=dtype, **arch)
        rng = np.random.default_rng(1)
        prompts = [rng.integers(0, 13, size=n).tolist()
                   for n in (LONG, 3, PREFILL_BUDGET + 1, 1, 40)]
        engine = GenerationEngine(model, batch_size=3, params=GREEDY)
        outs = engine.generate(prompts, 12)
        assert outs == [model.generate(p, 12, greedy=True) for p in prompts]
        # every position fed once: prompts plus all but the last token
        assert engine.total_rows == sum(len(p) + 11 for p in prompts)


class RowSpy:
    """Model wrapper recording each step's rows (tokens, positions)."""

    def __init__(self, inner):
        self._inner = inner
        self.config = inner.config
        self.steps: list[np.ndarray] = []

    def decode_step(self, tokens, positions, states):
        self.steps.append(np.asarray(positions).copy())
        return self._inner.decode_step(tokens, positions, states)


class TestSchedule:
    def test_long_prompt_enters_in_budgeted_chunks(self):
        model = RowSpy(tiny_model())
        engine = GenerationEngine(model, batch_size=1, params=GREEDY)
        engine.submit(list(range(13)) * 11, 2)      # 143 tokens
        engine.run()
        chunks = [len(positions) for positions in model.steps]
        budget = PREFILL_BUDGET
        assert chunks == [budget, budget, 143 - 2 * budget, 1]

    def test_decoding_slot_emits_every_step_during_prefill(self):
        """A long prompt admitted next to a decoding request never stalls
        it: the decoder gets a row, and a token, in every step."""
        model = RowSpy(tiny_model())
        emitted: list[int] = []
        engine = GenerationEngine(model, batch_size=2, params=GREEDY,
                                  on_token=lambda rid, tok: emitted.append(rid))
        decoder = engine.submit([1, 2, 3], 20)
        engine.step()                                # decoder's prefill
        assert emitted == [decoder]
        long = engine.submit(list(range(13)) * 11, 4)
        prefill_steps = -(-143 // PREFILL_BUDGET)
        for step in range(prefill_steps):
            emitted.clear()
            engine.step()
            rows = len(model.steps[-1])
            # the prefilling slot takes the whole budget (or the rest of
            # its prompt) and the decoder still feeds its one row
            assert rows == 1 + min(PREFILL_BUDGET,
                                   143 - step * PREFILL_BUDGET)
            expected = [decoder] if step < prefill_steps - 1 \
                else [decoder, long]
            assert emitted == expected

    def test_budget_goes_to_the_oldest_prompt_first(self):
        """The budget is handed out by request age, not slot number: a
        younger prompt admitted into a lower slot takes what the older
        prompt leaves."""
        model = RowSpy(tiny_model())
        emitted: list[int] = []
        engine = GenerationEngine(model, batch_size=2, params=GREEDY,
                                  on_token=lambda rid, tok: emitted.append(rid))
        short = engine.submit([1], 1)                          # slot 0
        older = engine.submit([2] * (PREFILL_BUDGET + 14), 1)  # slot 1
        engine.step()                  # short finishes, older feeds budget
        younger = engine.submit([3] * PREFILL_BUDGET, 1)       # slot 0
        engine.step()
        # older's last 14 tokens, then the rest of the budget for younger
        assert len(model.steps[1]) == PREFILL_BUDGET
        assert emitted == [short, older]
        engine.run()
        assert emitted == [short, older, younger]


class TestGatherPerSpan:
    def test_append_gathers_one_history_per_span(self):
        cache = PagedKVCache(num_layers=1, batch_size=3, num_heads=2,
                             max_seq_len=64, head_dim=4, page_size=8)
        rng = np.random.default_rng(0)
        for slot, n in ((1, 10), (2, 5)):
            span = cache.begin_spans([(slot, 0, n)])
            span.layers[0].append(rng.normal(size=(n, 2, 4)),
                                  rng.normal(size=(n, 2, 4)))
            cache.commit_span(slot, n)
        # one 40-row prefill span next to two one-row decode spans
        span = cache.begin_spans([(0, 0, 40), (1, 10, 1), (2, 5, 1)])
        keys, values, mask = span.layers[0].append(
            rng.normal(size=(42, 2, 4)), rng.normal(size=(42, 2, 4)))
        assert keys.shape == values.shape == (3, 2, 40, 4)
        assert keys.nbytes == 3 * 2 * 40 * 4 * keys.itemsize
        assert mask.shape == (42, 40)
        # the span's rows attend causally: row j sees positions <= j
        causal = np.isneginf(mask[:40])
        assert (causal == np.triu(np.ones((40, 40), bool), k=1)).all()

    def test_engine_gathered_bytes_scale_with_spans(self, monkeypatch):
        """Through the engine: every read holds one history per active
        slot, however many rows its spans carry."""
        reads = []
        append = PagedLayerKV.append

        def recording_append(layer, k, v):
            keys, values, mask = append(layer, k, v)
            reads.append((len(k), keys.shape, keys.nbytes))
            return keys, values, mask

        monkeypatch.setattr(PagedLayerKV, "append", recording_append)
        engine = GenerationEngine(tiny_model(), batch_size=2, params=GREEDY)
        engine.generate([list(range(13)) * 8, [1, 2, 3]], 4)
        assert max(rows for rows, _, _ in reads) == PREFILL_BUDGET + 1
        for rows, (spans, heads, t, head_dim), nbytes in reads:
            assert spans <= min(rows, 2)        # at most one per slot
            assert nbytes == spans * heads * t * head_dim * 8
