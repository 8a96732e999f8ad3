"""The dtype policy (ISSUE 10): float32 compute as an opt-in, float64 law.

What must hold, layer by layer:

- **Policy resolution** — explicit argument > ``TransformerConfig(dtype=)``
  scope > ``dtype_scope`` context > process default (float64, the seed
  behaviour).  Unsupported dtypes fail loudly at the policy boundary.
- **Tensor semantics** — float ndarrays keep their dtype (and their
  buffer: no silent copy); non-float inputs cast to the policy default;
  Python-scalar operands follow the tensor's dtype instead of upcasting
  the graph (the NEP 50 hazard).
- **End-to-end float32** — a ``dtype="float32"`` model holds float32
  parameters, produces float32 activations/gradients, and draws the
  *identical RNG stream* as its float64 twin (initializers sample in
  float64 and cast), so the two models are the same numbers rounded.
- **KV plumbing** — both cache backends resolve their pool dtype through
  :func:`repro.infer.kv_cache.kv_value_dtype`; a float32 model's pool
  holds exactly half the bytes; index arrays stay int64.
- **Checkpoints** — round-trips preserve dtype; a strict load of
  mismatched-dtype arrays is a loud :class:`CheckpointError`, never a
  silent cast (``strict=False`` keeps the forgiving cast).
- **Pinned float64** — gradcheck refuses non-float64 inputs; sampling
  upcasts logits on entry so RNG consumption is dtype-independent.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.gradcheck import numerical_gradient
from repro.core import TransformerConfig, TransformerLM
from repro.core.attention import causal_mask
from repro.dtypes import (default_dtype, dtype_scope, resolve_dtype,
                          set_default_dtype)
from repro.infer import GenerationEngine, SamplingParams
from repro.infer.kv_cache import kv_value_dtype
from repro.infer.paged_kv import PagedKVCache
from repro.nn import MLP
from repro.train.checkpoint import (CheckpointError, load_checkpoint,
                                    save_checkpoint)


def tiny_model(dtype=None):
    cfg = TransformerConfig(vocab_size=11, max_seq_len=32, d_model=16,
                            num_heads=2, num_layers=2, dtype=dtype)
    return TransformerLM(cfg, rng=0)


class TestPolicyResolution:
    def test_default_is_float64(self):
        assert default_dtype() == np.float64
        assert resolve_dtype(None) == np.float64

    def test_explicit_argument_wins(self):
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype(np.float32) == np.float32

    def test_dtype_scope_sets_and_restores(self):
        with dtype_scope("float32"):
            assert default_dtype() == np.float32
            with dtype_scope("float64"):
                assert default_dtype() == np.float64
            assert default_dtype() == np.float32
        assert default_dtype() == np.float64

    def test_dtype_scope_none_is_a_noop(self):
        with dtype_scope(None):
            assert default_dtype() == np.float64

    def test_set_default_returns_previous(self):
        prev = set_default_dtype("float32")
        try:
            assert prev == np.float64
            assert default_dtype() == np.float32
        finally:
            set_default_dtype(prev)
        assert default_dtype() == np.float64

    @pytest.mark.parametrize("bad", ["float16", np.int64, "bogus"])
    def test_unsupported_dtype_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_dtype(bad)

    def test_config_validates_dtype(self):
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=4, max_seq_len=4, d_model=4,
                              num_heads=2, num_layers=1, dtype="float16")


class TestTensorSemantics:
    def test_float_arrays_keep_dtype_and_buffer(self):
        arr = np.ones(3, dtype=np.float32)
        t = Tensor(arr)
        assert t.data.dtype == np.float32
        assert t.data is arr   # no silent copy — views stay views

    def test_non_float_input_casts_to_policy(self):
        assert Tensor([1, 2, 3]).data.dtype == np.float64
        with dtype_scope("float32"):
            assert Tensor([1, 2, 3]).data.dtype == np.float32

    def test_explicit_dtype_overrides(self):
        t = Tensor(np.ones(3, dtype=np.float64), dtype="float32")
        assert t.data.dtype == np.float32

    def test_python_scalars_do_not_upcast(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        for y in (x * 2.0, x + 0.5, x / 3.0, 1.0 - x, x.mean(), x.sum()):
            assert y.data.dtype == np.float32, y.data.dtype

    def test_gradients_follow_data_dtype(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad.dtype == np.float32


class TestFloat32Model:
    def test_params_activations_gradients_float32(self):
        model = tiny_model(dtype="float32")
        assert model.param_dtype() == np.float32
        for name, p in model.named_parameters():
            assert p.data.dtype == np.float32, name
        ids = np.random.default_rng(0).integers(0, 11, size=(2, 8))
        loss = model.loss(ids, ids)
        assert loss.data.dtype == np.float32
        loss.backward()
        for name, p in model.named_parameters():
            assert p.grad.dtype == np.float32, name

    def test_same_rng_stream_as_float64(self):
        """Initializers draw in float64 and cast: the float32 model is the
        float64 model's parameters rounded, not a different draw."""
        m64, m32 = tiny_model(), tiny_model(dtype="float32")
        for (name, p64), (_, p32) in zip(sorted(m64.named_parameters()),
                                         sorted(m32.named_parameters())):
            np.testing.assert_array_equal(
                p64.data.astype(np.float32), p32.data, err_msg=name)

    def test_config_scope_does_not_leak(self):
        tiny_model(dtype="float32")
        assert default_dtype() == np.float64

    def test_mask_cache_keys_per_dtype(self):
        m64 = causal_mask(7)
        m32 = causal_mask(7, dtype=np.float32)
        assert m64 is not m32
        assert m64.dtype == np.float64 and m32.dtype == np.float32
        np.testing.assert_array_equal(m64.astype(np.float32), m32)


class TestKVPlumbing:
    def test_kv_value_dtype_resolution_order(self):
        assert kv_value_dtype() == np.float64
        assert kv_value_dtype(dtype="float32") == np.float32
        m32 = tiny_model(dtype="float32")
        assert kv_value_dtype(m32) == np.float32
        assert kv_value_dtype(m32, dtype="float64") == np.float64

    @pytest.mark.parametrize("cls", [PagedKVCache], ids=["paged"])
    def test_pool_follows_model_and_halves_bytes(self, cls):
        m64, m32 = tiny_model(), tiny_model(dtype="float32")
        c64 = cls.for_model(m64, batch_size=2)
        c32 = cls.for_model(m32, batch_size=2)
        assert c64.dtype == np.float64 and c32.dtype == np.float32
        assert c64.nbytes == 2 * c32.nbytes

    def test_index_arrays_stay_int64(self):
        cache = PagedKVCache.for_model(tiny_model(dtype="float32"),
                                       batch_size=2)
        assert cache.lengths.dtype == np.int64
        assert cache.refcounts.dtype == np.int64

    def test_engine_stats_report_dtype(self):
        for dtype, name in ((None, "float64"), ("float32", "float32")):
            engine = GenerationEngine(tiny_model(dtype=dtype), batch_size=2,
                                      params=SamplingParams(greedy=True))
            stats = engine.stats()
            assert stats["dtype"] == name
            assert stats["kv"]["dtype"] == name


class TestCheckpoints:
    def test_round_trip_preserves_float32(self, tmp_path):
        rng = np.random.default_rng(0)
        with dtype_scope("float32"):
            model = MLP([4, 3], rng)
        save_checkpoint(tmp_path / "m", model)
        with dtype_scope("float32"):
            fresh = MLP([4, 3], np.random.default_rng(1))
        load_checkpoint(tmp_path / "m", fresh)
        for (name, a), (_, b) in zip(sorted(model.named_parameters()),
                                     sorted(fresh.named_parameters())):
            assert b.data.dtype == np.float32, name
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_strict_dtype_mismatch_is_loud(self, tmp_path):
        rng = np.random.default_rng(0)
        with dtype_scope("float32"):
            model = MLP([4, 3], rng)
        save_checkpoint(tmp_path / "m", model)
        f64_model = MLP([4, 3], np.random.default_rng(1))
        with pytest.raises(CheckpointError, match="dtype mismatch"):
            load_checkpoint(tmp_path / "m", f64_model)

    def test_non_strict_load_casts(self, tmp_path):
        rng = np.random.default_rng(0)
        with dtype_scope("float32"):
            model = MLP([4, 3], rng)
        save_checkpoint(tmp_path / "m", model)
        f64_model = MLP([4, 3], np.random.default_rng(1))
        load_checkpoint(tmp_path / "m", f64_model, strict=False)
        for name, p in f64_model.named_parameters():
            assert p.data.dtype == np.float64, name

    def test_load_state_dict_casts_to_destination(self):
        model = MLP([4, 3], np.random.default_rng(0))
        state = {k: v.astype(np.float32) for k, v in model.state_dict().items()}
        model.load_state_dict(state)
        for name, p in model.named_parameters():
            assert p.data.dtype == np.float64, name


class TestPinnedFloat64:
    def test_gradcheck_refuses_float32(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(TypeError, match="float64"):
            numerical_gradient(lambda t: (t * t).sum(), [x], 0)

    def test_sampling_rng_consumption_dtype_independent(self):
        """Same logits at either precision consume the RNG identically and
        pick the same tokens — sampling upcasts to float64 on entry."""
        from repro.core.sampling import sample_token
        logits = np.random.default_rng(0).standard_normal((4, 11))
        t64 = sample_token(logits, np.random.default_rng(5),
                           temperature=1.1, top_k=5)
        t32 = sample_token(logits.astype(np.float32),
                           np.random.default_rng(5),
                           temperature=1.1, top_k=5)
        np.testing.assert_array_equal(t64, t32)
