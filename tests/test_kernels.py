import math

import numpy as np
import pytest

from conftest import check_grad
from genelm import kernels as K
from genelm.errors import ShapeError


def scalarize(out, weights):
    return K.sum_all(K.mul(out, K.Tensor(weights)))


class TestMatmul:
    def test_identity(self, rng):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        out = K.matmul(K.Tensor(np.eye(3, dtype=np.float32)), K.Tensor(x))
        assert np.allclose(out.data, x)

    def test_hand_arithmetic(self):
        a = K.Tensor(np.array([[1., 2.], [3., 4.]], dtype=np.float32))
        b = K.Tensor(np.array([[5.], [6.]], dtype=np.float32))
        assert K.matmul(a, b).data.tolist() == [[17.0], [39.0]]

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            K.matmul(K.Tensor(np.zeros((2, 3))), K.Tensor(np.zeros((2, 3))))
        # a batched right operand is not a weight matrix
        with pytest.raises(ShapeError, match=r"\(2, 4, 3\).*\(2, 3, 5\)"):
            K.matmul(K.Tensor(np.zeros((2, 4, 3))), K.Tensor(np.zeros((2, 3, 5))))

    def test_gradient(self, rng):
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 3))
        w = rng.standard_normal((4, 3))
        check_grad(lambda t: scalarize(K.matmul(t["a"], t["b"]), w),
                   {"a": a, "b": b}, rng)

    def test_broadcast_weight_gradient(self, rng):
        a = rng.standard_normal((3, 4, 6))
        b = rng.standard_normal((6, 2))
        w = rng.standard_normal((3, 4, 2))
        check_grad(lambda t: scalarize(K.matmul(t["a"], t["b"]), w),
                   {"a": a, "b": b}, rng)


class TestRmsnorm:
    def test_constant_vector(self):
        d = 8
        for c in (2.5, -1.25):
            x = K.Tensor(np.full((1, d), c))
            out = K.rmsnorm(x, K.Tensor(np.ones(d)), 1e-12)
            assert np.allclose(out.data, math.copysign(1.0, c), atol=1e-5)

    def test_zero_vector(self):
        out = K.rmsnorm(K.Tensor(np.zeros((2, 4))), K.Tensor(np.ones(4)), 1e-5)
        assert np.all(out.data == 0.0)

    def test_output_rms_matches_gain(self, rng):
        x = rng.standard_normal((5, 16)) * 3 + 1.5
        out = K.rmsnorm(K.Tensor(x), K.Tensor(np.full(16, 2.0)), 1e-5)
        rms = np.sqrt(np.mean(np.square(out.data), axis=-1))
        assert np.all(np.abs(rms - 2.0) < 1e-3)

    def test_gradient(self, rng):
        x = rng.standard_normal((3, 7))
        g = rng.standard_normal(7)
        w = rng.standard_normal((3, 7))
        check_grad(lambda t: scalarize(K.rmsnorm(t["x"], t["g"], 1e-5), w),
                   {"x": x, "g": g}, rng)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            K.rmsnorm(K.Tensor(np.ones((1, 2))), K.Tensor(np.ones(2)), 0.0)


class TestSilu:
    def test_zero(self):
        assert K.silu(K.Tensor(np.array([0.0]))).data[0] == 0.0

    def test_saturation(self):
        out = K.silu(K.Tensor(np.array([20.0])))
        assert abs(out.data[0] - 20.0) < 1e-6

    def test_stable_for_large_negative(self):
        out = K.silu(K.Tensor(np.array([-1000.0])))
        assert np.isfinite(out.data[0]) and abs(out.data[0]) < 1e-6

    def test_gradient(self, rng):
        x = rng.standard_normal((4, 5)) * 2
        w = rng.standard_normal((4, 5))
        check_grad(lambda t: scalarize(K.silu(t["x"]), w), {"x": x}, rng)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = K.Tensor(np.zeros((10, 4)))
        loss = K.cross_entropy(logits, np.zeros(10, dtype=int))
        assert abs(float(loss.data) - math.log(4)) < 1e-6

    def test_confident_correct(self):
        logits = np.zeros((6, 4))
        targets = np.array([0, 1, 2, 3, 1, 2])
        logits[np.arange(6), targets] = 30.0
        loss = K.cross_entropy(K.Tensor(logits), targets)
        assert float(loss.data) < 1e-9

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            K.cross_entropy(K.Tensor(np.zeros((3, 4))), np.zeros(3, dtype=int),
                            np.zeros(3, dtype=bool))

    def test_masked_positions_ignored(self, rng):
        logits = rng.standard_normal((8, 5))
        targets = rng.integers(0, 5, 8)
        mask = np.array([True] * 4 + [False] * 4)
        full = K.cross_entropy(K.Tensor(logits[:4]), targets[:4])
        masked = K.cross_entropy(K.Tensor(logits), targets, mask)
        assert abs(float(full.data) - float(masked.data)) < 1e-12

    def test_gradient(self, rng):
        logits = rng.standard_normal((7, 5))
        targets = rng.integers(0, 5, 7)
        mask = np.array([True, True, False, True, True, False, True])
        check_grad(lambda t: K.cross_entropy(t["x"], targets, mask),
                   {"x": logits}, rng)

    def test_gradient_batched(self, rng):
        logits = rng.standard_normal((2, 5, 4))
        targets = rng.integers(0, 4, (2, 5))
        check_grad(lambda t: K.cross_entropy(t["x"], targets), {"x": logits}, rng)


class TestSigmoidBce:
    def test_matches_direct_formula(self, rng):
        x = rng.standard_normal((6, 3))
        t = (rng.random((6, 3)) > 0.5).astype(float)
        loss = K.sigmoid_bce(K.Tensor(x), t)
        p = 1 / (1 + np.exp(-x))
        direct = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert abs(float(loss.data) - direct) < 1e-9

    def test_gradient(self, rng):
        x = rng.standard_normal((4, 3))
        t = (rng.random((4, 3)) > 0.5).astype(float)
        check_grad(lambda tt: K.sigmoid_bce(tt["x"], t), {"x": x}, rng)

    def test_gradient_matches_where_form_bitwise(self, rng):
        # the two-branch sigmoid as a reference, at float32 extremes too
        x = np.concatenate([30 * rng.standard_normal(10_000),
                            [0.0, -0.0, np.inf, -np.inf, 1e30, -1e30]]).astype(np.float32)
        t = (rng.random(x.shape) > 0.5).astype(np.float32)
        xt = K.Tensor(x, requires_grad=True)
        with np.errstate(invalid="ignore"):  # the loss itself is inf - inf at +-inf
            K.backward(K.sigmoid_bce(xt, t))
        z = np.exp(-np.abs(x))
        sig = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        assert np.array_equal(xt.grad, (sig - t) * (1.0 / x.size))


class TestStructuralOps:
    def test_rope_gradient(self, rng):
        from genelm.model import rope_angles
        cos, sin = rope_angles(6, 100.0, np.arange(5))
        x = rng.standard_normal((2, 5, 6))
        w = rng.standard_normal((2, 5, 6))
        check_grad(lambda t: scalarize(K.rope_rotate(t["x"], cos, sin), w),
                   {"x": x}, rng)

    def test_rope_odd_dim_rejected(self):
        with pytest.raises(ShapeError):
            K.rope_rotate(K.Tensor(np.zeros((2, 3))), np.zeros((2, 1)), np.zeros((2, 1)))

    def test_attention_gradient(self, rng):
        q = rng.standard_normal((1, 2, 5, 4))
        k = rng.standard_normal((1, 2, 5, 4))
        v = rng.standard_normal((1, 2, 5, 4))
        w = rng.standard_normal((1, 2, 5, 4))
        check_grad(lambda t: scalarize(
            K.causal_attention(t["q"], t["k"], t["v"], 0.5), w),
            {"q": q, "k": k, "v": v}, rng, tol=2e-4)

    def test_attention_first_row_is_v0(self, rng):
        q = rng.standard_normal((1, 1, 4, 3)).astype(np.float32)
        k = rng.standard_normal((1, 1, 4, 3)).astype(np.float32)
        v = rng.standard_normal((1, 1, 4, 3)).astype(np.float32)
        out = K.causal_attention(K.Tensor(q), K.Tensor(k), K.Tensor(v), 1.0)
        assert np.array_equal(out.data[0, 0, 0], v[0, 0, 0])

    def test_attention_multi_block_matches_dense_reference(self, rng):
        t = 2 * K.BLOCK + 37
        q, k, v = (rng.standard_normal((2, 2, t, 8)) for _ in range(3))
        scores = np.einsum("bhid,bhjd->bhij", q, k) * 0.3
        scores[..., np.triu(np.ones((t, t), dtype=bool), k=1)] = -np.inf
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        expected = probs @ v
        got64 = K.causal_attention(K.Tensor(q), K.Tensor(k), K.Tensor(v), 0.3)
        assert np.max(np.abs(got64.data - expected)) < 1e-12
        q32, k32, v32 = (K.Tensor(a.astype(np.float32)) for a in (q, k, v))
        got32 = K.causal_attention(q32, k32, v32, 0.3)
        assert got32.data.dtype == np.float32
        assert np.max(np.abs(got32.data - expected)) < 1e-5

    def test_attention_gradient_across_blocks(self, rng):
        t = K.BLOCK + 5
        q, k, v, w = (rng.standard_normal((1, 2, t, 4)) for _ in range(4))
        check_grad(lambda tt: scalarize(
            K.causal_attention(tt["q"], tt["k"], tt["v"], 0.5), w),
            {"q": q, "k": k, "v": v}, rng, n_coords=12, tol=2e-4)

    @pytest.mark.parametrize("j", [5, K.BLOCK + 20, 3 * K.BLOCK + 9])
    def test_attention_suffix_edit_leaves_prefix_bitwise(self, rng, j):
        t = 3 * K.BLOCK + 17  # the last block is partial
        q, k, v = (rng.standard_normal((2, 2, t, 8)).astype(np.float32)
                   for _ in range(3))
        base = K.causal_attention(K.Tensor(q), K.Tensor(k), K.Tensor(v), 0.3).data
        k2, v2 = k.copy(), v.copy()
        k2[..., j:, :] += 3.0
        v2[..., j, :] = -v2[..., j, :] * 7.0
        edited = K.causal_attention(K.Tensor(q), K.Tensor(k2), K.Tensor(v2), 0.3).data
        assert np.array_equal(edited[:, :, :j], base[:, :, :j])
        assert not np.array_equal(edited[:, :, j], base[:, :, j])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_head_groups_equal_all_heads_at_once(self, rng, monkeypatch, dtype):
        """Output and all three gradients are bitwise the same whatever the
        head groups' size: all 6 heads at once, 4 then 2, or one by one."""
        t = 2 * K.BLOCK + 37
        q, k, v, g = (rng.standard_normal((2, 3, t, 8)).astype(dtype) for _ in range(4))

        def run(heads_per_group):
            monkeypatch.setattr(K, "TILE_SCORES", heads_per_group * K.BLOCK * t)
            tq, tk, tv = (K.Tensor(x.copy(), requires_grad=True) for x in (q, k, v))
            out = K.causal_attention(tq, tk, tv, 0.35)
            out._bwd(g)
            return out.data, tq.grad, tk.grad, tv.grad

        whole = run(6)
        for size in (4, 1):
            for a, b in zip(whole, run(size)):
                assert a.dtype == dtype and np.array_equal(a, b), size

    def test_embedding_gradient_scatter(self, rng):
        table = K.Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        ids = np.array([2, 2, 5])
        out = K.embedding(table, ids)
        K.backward(K.sum_all(out))
        assert np.allclose(table.grad[2], 2.0)
        assert np.allclose(table.grad[5], 1.0)
        assert np.allclose(table.grad[0], 0.0)

    def test_mean_sum_axis_gradients(self, rng):
        x = rng.standard_normal((3, 4, 5))
        w = rng.standard_normal((3, 5))
        # mean pooling as the finetuning head builds it: weights 1/n, then sum_axis
        pool = K.Tensor(np.full((3, 4, 1), 1.0 / 4))
        check_grad(lambda t: scalarize(K.sum_axis(K.mul(t["x"], pool), 1), w), {"x": x}, rng)
        check_grad(lambda t: scalarize(K.sum_axis(t["x"], 1), w), {"x": x}, rng)

    def test_add_mul_broadcast_gradients(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        w = rng.standard_normal((4, 3))
        check_grad(lambda t: scalarize(K.add(t["a"], t["b"]), w), {"a": a, "b": b}, rng)
        check_grad(lambda t: scalarize(K.mul(t["a"], t["b"]), w), {"a": a, "b": b}, rng)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = K.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        K.backward(K.sum_all(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_reuse_accumulates(self):
        x = K.Tensor(np.array([1.5]), requires_grad=True)
        K.backward(K.sum_all(K.add(x, x)))
        assert np.array_equal(x.grad, np.array([2.0]))

    def test_add_parents_get_their_own_gradient_buffers(self, rng):
        """The first gradient a tensor receives becomes its buffer, so the
        two parents of an add must not be handed one array."""
        a, b = (K.Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(2))
        K.backward(K.sum_all(K.add(a, b)))
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        assert np.array_equal(b.grad, np.ones((2, 3)))

    def test_first_gradient_takes_the_tensor_dtype(self, rng):
        x = K.Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        K.backward(K.sum_all(K.mul(x, K.Tensor(np.full(4, 0.1)))))  # a float64 gradient
        assert x.grad.dtype == np.float32
        assert np.array_equal(x.grad, np.full(4, 0.1, dtype=np.float32))

    def test_unused_parameter_gets_no_gradient(self, rng):
        x = K.Tensor(rng.standard_normal(4), requires_grad=True)
        y = K.Tensor(rng.standard_normal(4), requires_grad=True)
        K.backward(K.sum_all(K.mul(x, x)))
        assert y.grad is None  # zero by convention

    def test_zero_gradient_when_multiplied_by_zero(self, rng):
        x = K.Tensor(rng.standard_normal(4), requires_grad=True)
        z = K.Tensor(np.zeros(4))
        K.backward(K.sum_all(K.mul(x, z)))
        assert np.array_equal(x.grad, np.zeros(4))

    def test_non_scalar_rejected(self, rng):
        x = K.Tensor(rng.standard_normal(3), requires_grad=True)
        with pytest.raises(ValueError):
            K.backward(K.add(x, x))

    def test_no_grad_builds_no_graph(self, rng):
        x = K.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        with K.no_grad():
            y = K.matmul(x, x)
        assert y._bwd is None and not y.requires_grad

    def test_graph_freed_after_backward(self, rng):
        x = K.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        y = K.matmul(x, x)
        loss = K.sum_all(y)
        K.backward(loss)
        assert y._bwd is None and y._parents == () and y.grad is None
        assert x.grad is not None
