import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import check_grad
from genelm import kernels as K
from genelm.errors import ContextOverflowError
from genelm.model import (LanguageModel, LayerParams, ModelConfig,
                          attention_block, ffn_block, init_params,
                          param_shapes, rope_angles, rope_apply)
from genelm.tokenizer import next_token_targets

TINY = ModelConfig(vocab_size=6, hidden=16, n_layers=2, n_heads=4,
                   ffn_dim=44, max_seq_len=32)


def tiny_model(seed=0):
    return LanguageModel.init(TINY, seed=seed)


class TestModelConfig:
    def test_head_dim_must_be_even(self):
        with pytest.raises(ValueError):
            ModelConfig(hidden=12, n_heads=4)  # head_dim 3

    def test_hidden_divisible_by_heads(self):
        with pytest.raises(ValueError):
            ModelConfig(hidden=10, n_heads=3)

    def test_min_context(self):
        with pytest.raises(ValueError):
            ModelConfig(max_seq_len=1)

    @pytest.mark.parametrize("field", ["norm_eps", "rope_base"])
    @pytest.mark.parametrize("value", ["x", math.nan, math.inf, -math.inf, 0.0, -1e-5,
                                       True, None])
    def test_scales_must_be_finite_positive_reals(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite positive number"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("field", ["vocab_size", "hidden", "n_layers", "n_heads",
                                       "ffn_dim", "max_seq_len"])
    @pytest.mark.parametrize("value", [True, 64.0, "64", 0, -4])
    def test_sizes_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            ModelConfig(**{field: value})

    def test_accepts_numpy_scalars_and_integer_base(self):
        cfg = ModelConfig(hidden=np.int64(16), n_heads=2, rope_base=10000,
                          norm_eps=np.float32(1e-5))
        assert cfg.head_dim == 8

    def test_tie_embeddings_must_be_boolean(self):
        with pytest.raises(ValueError, match="tie_embeddings"):
            ModelConfig(tie_embeddings="yes")


class TestRopeAngles:
    def test_position_zero_is_identity(self):
        cos, sin = rope_angles(8, 10000.0, [0])
        assert np.array_equal(cos[0], np.ones(4))
        assert np.array_equal(sin[0], np.zeros(4))

    def test_direct_formula(self):
        cos, sin = rope_angles(4, 10000.0, [1])
        # pair 1 at position 1: theta = 10000^(-1/2) = 0.01
        assert math.isclose(math.atan2(sin[0, 1], cos[0, 1]), 0.01, rel_tol=1e-12)

    def test_raising_base_shrinks_every_angle(self):
        positions = [3, 17]
        lo_cos, lo_sin = rope_angles(8, 1e4, positions)
        hi_cos, hi_sin = rope_angles(8, 1.5e7, positions)
        lo = np.arctan2(lo_sin, lo_cos)
        hi = np.arctan2(hi_sin, hi_cos)
        # pairs i >= 1 rotate strictly slower under the larger base
        wrapped_lo = np.outer(positions, 1e4 ** (-2 * np.arange(4) / 8))
        wrapped_hi = np.outer(positions, 1.5e7 ** (-2 * np.arange(4) / 8))
        assert np.all(wrapped_hi[:, 1:] < wrapped_lo[:, 1:])
        assert np.allclose(hi[:, 0], lo[:, 0])  # pair 0 has theta = 1 under any base

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            rope_angles(5, 1e4, [0])
        with pytest.raises(ValueError):
            rope_angles(4, 0.0, [0])


class TestRopeApply:
    def test_norm_preserved(self, rng):
        angles = rope_angles(8, 1e4, np.arange(16))
        x = rng.standard_normal((16, 8)).astype(np.float32)
        y = rope_apply(K.Tensor(x), angles).data
        assert np.all(np.abs(np.linalg.norm(y, axis=-1)
                             - np.linalg.norm(x, axis=-1)) < 1e-5)

    def test_position_zero_unchanged(self, rng):
        angles = rope_angles(8, 1e4, np.arange(4))
        x = rng.standard_normal((4, 8)).astype(np.float32)
        y = rope_apply(K.Tensor(x), angles).data
        assert np.array_equal(y[0], x[0])

    def test_relative_position_invariance(self, rng):
        # dot(rope(q, m), rope(k, n)) == dot(rope(q, m+s), rope(k, n+s))
        d = 16
        angles = rope_angles(d, 1e4, np.arange(256))

        def rotated_dot(q, k, m, n):
            qr = rope_apply(K.Tensor(np.stack([q] * 256)[None]), angles).data[0]
            kr = rope_apply(K.Tensor(np.stack([k] * 256)[None]), angles).data[0]
            return float(qr[m] @ kr[n])

        for _ in range(100):
            q = rng.standard_normal(d).astype(np.float64)
            k = rng.standard_normal(d).astype(np.float64)
            m, n = sorted(rng.integers(0, 128, size=2))
            s = int(rng.integers(0, 128))
            a = rotated_dot(q, k, m, n)
            b = rotated_dot(q, k, m + s, n + s)
            assert abs(a - b) < 1e-4 * max(1.0, abs(a)), (m, n, s, a, b)


class TestBlocks:
    def test_attention_residual_identity_with_zero_wo(self, rng):
        model = tiny_model()
        layer = model.layers[0]
        layer.wo.data[...] = 0.0
        x = rng.standard_normal((1, 8, 16)).astype(np.float32)
        angles = rope_angles(TINY.head_dim, TINY.rope_base, np.arange(8))
        out = attention_block(K.Tensor(x), layer, angles, TINY.n_heads, TINY.norm_eps)
        assert np.array_equal(out.data, x)

    def test_attention_t1_depends_only_on_position_zero(self, rng):
        model = tiny_model()
        layer = model.layers[0]
        angles = rope_angles(TINY.head_dim, TINY.rope_base, np.arange(1))
        x = rng.standard_normal((1, 1, 16)).astype(np.float32)
        out = attention_block(K.Tensor(x), layer, angles, TINY.n_heads, TINY.norm_eps)
        # single position: the attention matrix is [[1]], so MHA output is
        # exactly the value projection of the normed input
        xn = K.rmsnorm(K.Tensor(x), layer.attn_norm_gain, TINY.norm_eps).data
        v = xn @ layer.wv.data
        expected = x + v @ layer.wo.data
        assert np.allclose(out.data, expected, atol=1e-6)

    def test_attention_causality_bitwise(self, rng):
        model = tiny_model()
        layer = model.layers[0]
        t = 12
        angles = rope_angles(TINY.head_dim, TINY.rope_base, np.arange(t))
        x = rng.standard_normal((1, t, 16)).astype(np.float32)
        base = attention_block(K.Tensor(x), layer, angles, TINY.n_heads,
                               TINY.norm_eps).data
        for j in (6, 11):
            xp = x.copy()
            xp[0, j] += rng.standard_normal(16).astype(np.float32)
            pert = attention_block(K.Tensor(xp), layer, angles, TINY.n_heads,
                                   TINY.norm_eps).data
            assert np.array_equal(base[0, :j], pert[0, :j])

    def test_ffn_zero_input_is_identity(self):
        model = tiny_model()
        x = np.zeros((1, 4, 16), dtype=np.float32)
        out = ffn_block(K.Tensor(x), model.layers[0], TINY.norm_eps)
        assert np.array_equal(out.data, x)

    def test_ffn_zero_w2_is_identity(self, rng):
        model = tiny_model()
        layer = model.layers[1]
        layer.w2.data[...] = 0.0
        x = rng.standard_normal((1, 4, 16)).astype(np.float32)
        out = ffn_block(K.Tensor(x), layer, TINY.norm_eps)
        assert np.array_equal(out.data, x)

    def test_ffn_gradient(self, rng):
        arrays = {
            "x": rng.standard_normal((2, 3, 8)),
            "gain": rng.standard_normal(8),
            "w1": rng.standard_normal((8, 12)) * 0.3,
            "w2": rng.standard_normal((12, 8)) * 0.3,
            "w3": rng.standard_normal((8, 12)) * 0.3,
        }
        w = rng.standard_normal((2, 3, 8))

        def build(t):
            layer = LayerParams(attn_norm_gain=t["gain"], wq=t["gain"],
                                wk=t["gain"], wv=t["gain"], wo=t["gain"],
                                ffn_norm_gain=t["gain"], w1=t["w1"],
                                w2=t["w2"], w3=t["w3"])
            return K.sum_all(K.mul(ffn_block(t["x"], layer, 1e-5), K.Tensor(w)))

        check_grad(build, arrays, rng)


class TestForward:
    def test_rotary_tables_follow_the_input_not_the_context(self, rng):
        # a checkpoint header may declare any context length; scoring two
        # tokens must not build tables for all of it
        huge = LanguageModel.init(dataclasses.replace(TINY, max_seq_len=2**40))
        tokens = rng.integers(0, 6, size=9)
        assert np.array_equal(huge.logits(tokens), tiny_model().logits(tokens))
        assert len(huge._angles[0]) == 9

    def test_no_grad_logits_hold_at_most_4_5_kib_per_token(self, rng):
        """Peak traced memory of one graph-free desk-model forward at 4096
        tokens: the residual stream, a layer's Q/K/V and attention output,
        one score tile per thread and one chunk of FFN rows, not whole
        (t, ffn_dim) arrays or activations no op still reads."""
        t = 4096
        model = LanguageModel.init(dataclasses.replace(ModelConfig(), max_seq_len=t))
        ids = rng.integers(2, 6, size=t)
        tracemalloc.start()
        try:
            model.logits(ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / t <= 4.5 * 1024, f"{peak / t / 1024:.2f} KiB per token"

    def test_prefix_consistency(self, rng):
        model = tiny_model()
        tokens = rng.integers(0, 6, size=20)
        full = model.logits(tokens)
        for p in (1, 5, 13, 19):
            prefix = model.logits(tokens[:p])
            assert np.max(np.abs(full[:p] - prefix)) < 1e-5

    def test_suffix_perturbation_exact(self, rng):
        model = tiny_model()
        tokens = rng.integers(0, 6, size=16)
        base = model.logits(tokens)
        for j in (4, 10, 15):
            pert = tokens.copy()
            pert[j] = (pert[j] + 1) % 6
            out = model.logits(pert)
            assert np.array_equal(base[:j], out[:j])

    def test_fresh_model_loss_near_log_vocab(self, rng):
        model = tiny_model(seed=3)
        tokens = rng.integers(2, 6, size=(4, 24))
        targets, mask = next_token_targets(tokens)
        loss = K.cross_entropy(model.forward(tokens), targets, mask)
        assert abs(float(loss.data) - math.log(6)) < 0.05

    def test_param_count_closed_form(self):
        cfg = ModelConfig(vocab_size=6, hidden=128, n_layers=4, n_heads=4,
                          ffn_dim=352, max_seq_len=512)
        h, f, v, L = 128, 352, 6, 4
        expected = v * h + L * (4 * h * h + 3 * h * f + 2 * h) + h + h * v
        assert sum(math.prod(s) for s in param_shapes(cfg).values()) == expected
        params = LanguageModel.init(cfg, 0).named_params()
        assert sum(p.data.size for p in params.values()) == expected

    def test_determinism(self, rng):
        model = tiny_model()
        tokens = rng.integers(0, 6, size=(2, 18))
        assert np.array_equal(model.logits(tokens), model.logits(tokens))

    def test_context_overflow(self, rng):
        model = tiny_model()
        with pytest.raises(ContextOverflowError):
            model.logits(rng.integers(0, 6, size=TINY.max_seq_len + 1))

    def test_invalid_token_id(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.logits(np.array([0, 6]))

    def test_rope_base_changes_logits_only_beyond_t1(self, rng):
        params = init_params(TINY, seed=5)
        a = LanguageModel(TINY, params)
        cfg2 = dataclasses.replace(TINY, rope_base=1.6e5)
        b = LanguageModel(cfg2, params)
        one = rng.integers(0, 6, size=1)
        assert np.array_equal(a.logits(one), b.logits(one))
        many = rng.integers(0, 6, size=8)
        assert not np.array_equal(a.logits(many), b.logits(many))

    def test_whole_model_gradient(self, rng):
        cfg = ModelConfig(vocab_size=6, hidden=8, n_layers=2, n_heads=2,
                          ffn_dim=12, max_seq_len=16)
        tokens = rng.integers(2, 6, size=(1, 10))
        targets, mask = next_token_targets(tokens)
        shapes = param_shapes(cfg)
        arrays = {}
        for name, shape in shapes.items():
            if name.endswith("norm_gain"):
                arrays[name] = np.ones(shape) + 0.1 * rng.standard_normal(shape)
            else:
                arrays[name] = 0.25 * rng.standard_normal(shape)

        def build(tensors):
            model = LanguageModel(cfg, tensors)
            return K.cross_entropy(model.forward(tokens), targets, mask)

        check_grad(build, arrays, rng, n_coords=3, tol=2e-4)

    def test_tied_embeddings(self, rng):
        cfg = ModelConfig(vocab_size=6, hidden=16, n_layers=1, n_heads=2,
                          ffn_dim=24, max_seq_len=16, tie_embeddings=True)
        model = LanguageModel.init(cfg, 0)
        assert "lm_head" not in model.params
        out = model.logits(rng.integers(0, 6, size=8))
        assert out.shape == (8, 6)

    def test_hidden_layer_knob(self, rng):
        model = tiny_model()
        tokens = rng.integers(0, 6, size=10)
        final = model.hidden(tokens)
        mid = model.hidden(tokens, layer=0)
        assert final.shape == (10, 16) and mid.shape == (10, 16)
        assert not np.array_equal(final, mid)
        with pytest.raises(ValueError):
            model.hidden(tokens, layer=2)
