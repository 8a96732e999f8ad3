"""Per-request SamplingParams: validation, mixing, overrides.

PR 9's API redesign: sampling knobs move from engine-wide constructor
arguments to a per-request :class:`~repro.infer.SamplingParams` value
object.  The contracts tested here:

- construction validates fields and raises the structured
  :class:`~repro.infer.SamplingParamsError` the serving layer turns
  into an HTTP 400;
- a batch mixing different per-request params gives each request the
  same tokens it would get decoding alone — per-request ``seed`` makes
  that reproducible regardless of batch composition;
- ``submit(..., params=...)`` overrides the engine default and the
  resolved params ride on the result;
- an engine without an RNG rejects an unseeded stochastic request at
  submit rather than failing mid-step.
"""

import numpy as np
import pytest

from repro.core import TransformerConfig, TransformerLM
from repro.infer import GenerationEngine, SamplingParams, SamplingParamsError


def tiny_model(**kwargs):
    cfg = TransformerConfig(vocab_size=11, max_seq_len=48, d_model=16,
                            num_heads=2, num_layers=2, **kwargs)
    return TransformerLM(cfg, rng=0)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"temperature": -0.5},
        {"temperature": "hot"},
        {"top_k": 0},
        {"top_k": -3},
        {"top_k": 2.5},
        {"top_k": True},
        {"top_p": 0.0},
        {"top_p": 1.5},
        {"top_p": -0.1},
        {"stop_token": 1.5},
        {"seed": -1},
        {"seed": 3.7},
    ])
    def test_invalid_fields_raise_structured_error(self, kwargs):
        with pytest.raises(SamplingParamsError) as excinfo:
            SamplingParams(**kwargs)
        payload = excinfo.value.params
        assert payload["field"] == next(iter(kwargs))
        assert payload["value"] == kwargs[payload["field"]]
        assert "constraint" in payload

    def test_error_is_a_value_error(self):
        # the engine's submit path catches ValueError for rejection
        with pytest.raises(ValueError):
            SamplingParams(top_p=2.0)

    def test_temperature_zero_normalises_to_greedy(self):
        params = SamplingParams(temperature=0)
        assert params.greedy is True
        assert params.temperature == 1.0
        assert params.sampling_key == SamplingParams(greedy=True).sampling_key

    def test_sampling_key_groups_equivalent_configs(self):
        a = SamplingParams(temperature=1.2, top_k=5)
        b = SamplingParams(temperature=1.2, top_k=5, stop_token=3, seed=9)
        assert a.sampling_key == b.sampling_key   # stop/seed don't split
        assert a.sampling_key != SamplingParams(temperature=1.3).sampling_key

    def test_round_trip_through_dict(self):
        params = SamplingParams(temperature=0.8, top_k=7, top_p=0.9,
                                stop_token=5, seed=11)
        assert SamplingParams.from_dict(params.to_dict()) == params

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SamplingParamsError) as excinfo:
            SamplingParams.from_dict({"temprature": 1.0})
        assert excinfo.value.params["field"] == "temprature"

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(SamplingParamsError):
            SamplingParams.from_dict([1.0])


class TestPerRequestParams:
    def test_submit_params_override_engine_default(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=1,
                                  rng=np.random.default_rng(3),
                                  params=SamplingParams(temperature=1.3))
        engine.submit([1, 2, 3], 8, params=SamplingParams(greedy=True))
        (result,) = engine.run()
        assert result.tokens == model.generate_fast([1, 2, 3], 8, greedy=True)
        assert result.params.greedy is True

    def test_unseeded_stochastic_request_needs_an_rng(self):
        """Without an engine RNG only requests that never draw from it
        are accepted; the rejection names ``seed`` and takes no id."""
        engine = GenerationEngine(tiny_model(), batch_size=1)
        with pytest.raises(SamplingParamsError) as excinfo:
            engine.submit([1, 2], 4)
        assert excinfo.value.params["field"] == "seed"
        engine.submit([1, 2], 0)                 # never samples
        engine.submit([1, 2], 4, params=SamplingParams(greedy=True))
        engine.submit([1, 2], 4, params=SamplingParams(seed=3))
        assert [r.request_id for r in engine.run()] == [0, 1, 2]

    def test_result_carries_resolved_params(self):
        engine = GenerationEngine(tiny_model(), batch_size=1,
                                  params=SamplingParams(greedy=True))
        engine.submit([1], 3)
        (result,) = engine.run()
        assert result.params == SamplingParams(greedy=True)

    def test_stop_token_kwarg_overrides_params_field(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=1,
                                  params=SamplingParams(greedy=True))
        engine.submit([1], 12, stop_token=5,
                      params=SamplingParams(greedy=True, stop_token=7))
        (result,) = engine.run()
        assert result.params.stop_token == 5
        assert result.tokens == model.generate_fast([1], 12, greedy=True,
                                                    stop_token=5)

    def test_per_request_stop_tokens_in_one_batch(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=3,
                                  params=SamplingParams(greedy=True))
        greedy = SamplingParams(greedy=True)
        engine.submit([1], 12, params=SamplingParams(greedy=True,
                                                     stop_token=5))
        engine.submit([2], 12, params=greedy)
        engine.submit([3], 12, params=SamplingParams(greedy=True,
                                                     stop_token=8))
        results = engine.run()
        assert results[0].tokens == model.generate_fast(
            [1], 12, greedy=True, stop_token=5)
        assert results[1].tokens == model.generate_fast([2], 12, greedy=True)
        assert results[2].tokens == model.generate_fast(
            [3], 12, greedy=True, stop_token=8)

    def test_seeded_request_independent_of_batch_composition(self):
        """A seeded request samples from its private RNG, so its tokens
        must not change when unrelated requests share the batch."""
        model = tiny_model()
        seeded = SamplingParams(temperature=1.1, seed=99)

        alone = GenerationEngine(model, batch_size=1,
                                 rng=np.random.default_rng(0))
        alone.submit([1, 2], 10, params=seeded)
        (solo,) = alone.run()

        crowded = GenerationEngine(model, batch_size=3,
                                   rng=np.random.default_rng(1234))
        other = crowded.submit([3, 4, 5], 10,
                               params=SamplingParams(temperature=0.8))
        mine = crowded.submit([1, 2], 10, params=seeded)
        crowded.submit([6], 10, params=SamplingParams(greedy=True))
        results = {r.request_id: r for r in crowded.run()}
        assert results[mine].tokens == solo.tokens
        assert results[other].finish_reason == "length"

    def test_mixed_params_batch_matches_each_alone(self):
        """Greedy rows are RNG-free, so a mixed batch must give every
        greedy request exactly its solo trajectory while stochastic
        rows draw from their own seeds."""
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=4)
        specs = [
            ([1, 2], SamplingParams(greedy=True)),
            ([3, 4], SamplingParams(temperature=1.2, top_k=6, seed=7)),
            ([5], SamplingParams(greedy=True, stop_token=9)),
            ([6, 7, 8], SamplingParams(temperature=0.9, top_p=0.95,
                                       seed=21)),
        ]
        ids = [engine.submit(p, 9, params=params) for p, params in specs]
        results = {r.request_id: r for r in engine.run()}
        for request_id, (prompt, params) in zip(ids, specs):
            ref_engine = GenerationEngine(model, batch_size=1,
                                          rng=np.random.default_rng(0))
            ref_engine.submit(prompt, 9, params=params)
            (ref,) = ref_engine.run()
            if params.greedy or params.seed is not None:
                assert results[request_id].tokens == ref.tokens, params
            assert results[request_id].params == params

    def test_grouped_sampling_batches_identical_params(self):
        """Rows sharing a sampling_key must produce the same tokens as
        the old engine-wide path — one vectorized draw in slot order."""
        model = tiny_model()
        uniform = GenerationEngine(model, batch_size=3,
                                   rng=np.random.default_rng(8),
                                   params=SamplingParams(temperature=1.1))
        ref = uniform.generate([[1], [2], [3]], 8)

        per_request = GenerationEngine(model, batch_size=3,
                                       rng=np.random.default_rng(8))
        ids = [per_request.submit(p, 8,
                                  params=SamplingParams(temperature=1.1))
               for p in ([1], [2], [3])]
        results = {r.request_id: r for r in per_request.run()}
        assert [results[i].tokens for i in ids] == ref
