"""Tests for layers, losses and optimisers, including gradient checks."""

import numpy as np
import pytest

from repro.core.nn.layers import Dense, Dropout, Param, ReLU, Sequential
from repro.core.nn.losses import softmax_cross_entropy, softmax_probs
from repro.core.nn.optim import Adam


def numerical_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = f()
        x[idx] = orig - eps
        minus = f()
        x[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestDense:
    def test_forward_shape_2d_and_3d(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        assert layer.forward(np.zeros((5, 4))).shape == (5, 3)
        assert layer.forward(np.zeros((5, 7, 4))).shape == (5, 7, 3)

    def test_rejects_wrong_feature_dim(self):
        layer = Dense(4, 3)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((5, 5)))

    def test_gradient_check_weights(self):
        rng = np.random.default_rng(1)
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 3))

        def loss():
            return 0.5 * np.sum((layer.forward(x) - target) ** 2)

        out = layer.forward(x)
        layer.W.grad[...] = 0
        layer.b.grad[...] = 0
        layer.backward(out - target)
        num_W = numerical_grad(loss, layer.W.value)
        num_b = numerical_grad(loss, layer.b.value)
        assert np.allclose(layer.W.grad, num_W, atol=1e-5)
        assert np.allclose(layer.b.grad, num_b, atol=1e-5)

    def test_gradient_check_input_3d(self):
        """Shared-weight (3-D) application backpropagates correctly."""
        rng = np.random.default_rng(2)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 5, 3))
        target = rng.normal(size=(4, 5, 2))

        def loss():
            return 0.5 * np.sum((layer.forward(x) - target) ** 2)

        out = layer.forward(x)
        dx = layer.backward(out - target)
        num_x = numerical_grad(loss, x)
        assert np.allclose(dx, num_x, atol=1e-5)

    def test_inference_peak_is_one_output(self):
        """Inference adds the bias in place: the bits of ``x @ W + b``,
        with one output-sized array alive instead of product and sum."""
        import tracemalloc

        rng = np.random.default_rng(3)
        layer = Dense(40, 64, rng=rng)
        layer.b.value[:] = rng.normal(size=64)
        x = rng.normal(size=(500, 7, 40))
        expected = x @ layer.W.value + layer.b.value
        tracemalloc.start()
        try:
            out = layer.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out, expected)
        assert peak < 1.5 * out.nbytes, (peak, out.nbytes)


class TestReLUDropout:
    def test_relu_forward_backward(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0], [3.0, -4.0]])
        assert np.array_equal(relu.forward(x), [[0, 2], [3, 0]])
        g = relu.backward(np.ones_like(x))
        assert np.array_equal(g, [[0, 1], [1, 0]])

    def test_dropout_identity_at_inference(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((100, 10))
        assert np.array_equal(drop.forward(x, training=False), x)

    def test_dropout_preserves_expectation(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((2000, 10))
        y = drop.forward(x, training=True)
        assert y.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestLoss:
    def test_softmax_sums_to_one(self):
        logits = np.random.default_rng(0).normal(size=(10, 4)) * 50
        p = softmax_probs(logits)
        assert np.allclose(p.sum(axis=-1), 1.0)
        assert (p >= 0).all()

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 3))
        y = np.array([0, 2, 1, 1, 0])
        weights = np.array([1.0, 2.0, 0.5])

        def loss():
            return softmax_cross_entropy(logits, y, weights)[0]

        _, grad = softmax_cross_entropy(logits, y, weights)
        num = numerical_grad(loss, logits)
        assert np.allclose(grad, num, atol=1e-6)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 2)), np.array([0, 2]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 2)), np.array([0]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 2)), np.array([0, 1]),
                                  class_weights=np.ones(3))


class TestOptim:
    def quadratic_setup(self):
        p = Param.of(np.array([5.0, -3.0]))
        return p

    def test_adam_minimises_quadratic(self):
        p = self.quadratic_setup()
        opt = Adam([p], lr=0.1)
        for _ in range(400):
            opt.zero_grad()
            p.grad += 2 * p.value
            opt.step()
        assert np.allclose(p.value, 0.0, atol=1e-3)

    def test_validation(self):
        p = self.quadratic_setup()
        with pytest.raises(ValueError):
            Adam([p], lr=-1.0)
        mixed = Param.of(np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError, match="one dtype"):
            Adam([p, mixed])


def test_sequential_composes_backward():
    rng = np.random.default_rng(4)
    net = Sequential([Dense(3, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])
    x = rng.normal(size=(6, 3))
    target = rng.normal(size=(6, 2))

    def loss():
        return 0.5 * np.sum((net.forward(x) - target) ** 2)

    out = net.forward(x)
    for p in net.params():
        p.grad[...] = 0
    net.backward(out - target)
    for p in net.params():
        num = numerical_grad(loss, p.value)
        assert np.allclose(p.grad, num, atol=1e-5)


class TestHotLoopOptimisations:
    def test_relu_inplace_matches_allocating_path(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 5))
        grad = rng.normal(size=(6, 5))
        plain = ReLU()
        out_plain = plain.forward(x.copy(), training=True)
        gin_plain = plain.backward(grad.copy())
        inplace = ReLU(inplace=True)
        out_inplace = inplace.forward(x.copy(), training=True)
        gin_inplace = inplace.backward(grad.copy())
        # Values agree everywhere (only the IEEE sign of zeros may differ).
        np.testing.assert_array_equal(out_plain + 0.0, out_inplace + 0.0)
        np.testing.assert_array_equal(gin_plain + 0.0, gin_inplace + 0.0)

    def test_dense_training_buffer_matches_inference_math(self):
        rng = np.random.default_rng(4)
        layer = Dense(5, 3, rng=np.random.default_rng(0))
        x = rng.normal(size=(4, 7, 5))
        train_out = layer.forward(x, training=True)
        infer_out = layer.forward(x, training=False)
        np.testing.assert_array_equal(train_out, infer_out)
        # The scratch buffer is reused on the next same-shaped call...
        again = layer.forward(x + 1.0, training=True)
        assert again is train_out
        # ...and replaced when the batch shape changes.
        other = layer.forward(rng.normal(size=(2, 5)), training=True)
        assert other is not train_out and other.shape == (2, 3)

    def test_dense_backward_accumulates_with_buffers(self):
        """Two backward passes must accumulate grads, not overwrite them
        (the scratch gw buffer is added into W.grad, never aliased)."""
        layer = Dense(4, 2, rng=np.random.default_rng(0))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4))
        grad = rng.normal(size=(3, 2))
        layer.forward(x, training=True)
        layer.backward(grad)
        once = layer.W.grad.copy()
        layer.forward(x, training=True)
        layer.backward(grad)
        np.testing.assert_allclose(layer.W.grad, 2 * once, rtol=0, atol=0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_flat_adam_matches_per_tensor_loop(self, dtype):
        """The flat-buffer step gives every tensor exactly the floats of
        the per-tensor loop it replaced."""
        rng = np.random.default_rng(6)
        shapes = [(40, 64), (64,), (64, 1), (1,), (7, 32), (32, 2)]
        values = [rng.normal(size=s).astype(dtype) for s in shapes]
        flat = [Param.of(v.copy()) for v in values]
        ref = [Param.of(v.copy()) for v in values]
        opt = Adam(flat, lr=2e-3, weight_decay=1e-2)
        m = [np.zeros_like(v) for v in values]
        v2 = [np.zeros_like(v) for v in values]
        b1, b2, eps, lr, wd = 0.9, 0.999, 1e-8, 2e-3, 1e-2
        for t in range(1, 51):
            opt.zero_grad()
            for p, q in zip(flat, ref):
                g = rng.normal(size=p.value.shape).astype(dtype)
                p.grad += g
                q.grad[...] = g
            opt.step()
            b1c, b2c = 1.0 - b1**t, 1.0 - b2**t
            for q, mi, vi in zip(ref, m, v2):
                mi *= b1
                mi += (1.0 - b1) * q.grad
                vi *= b2
                vi += (1.0 - b2) * q.grad**2
                update = (mi / b1c) / (np.sqrt(vi / b2c) + eps)
                update = update + wd * q.value
                q.value -= lr * update
        for p, q in zip(flat, ref):
            assert p.value.dtype == dtype
            assert p.value.tobytes() == q.value.tobytes()
            assert np.shares_memory(p.value, opt.value)
            assert np.shares_memory(p.grad, opt.grad)

    def test_dropout_matches_plain_expression(self):
        """In-place dropout draws the same uniforms and applies the same
        mask as ``x * ((rng.random(shape) < keep) / keep)``."""
        keep = 0.9
        drop = Dropout(1.0 - keep, rng=np.random.default_rng(8))
        twin = np.random.default_rng(8)
        data = np.random.default_rng(9)
        buffer = None
        for shape in [(64, 7, 64), (32, 7, 64), (64, 7, 64)]:
            x = data.normal(size=shape)
            grad = data.normal(size=shape)
            mask = (twin.random(shape) < keep) / keep
            want, want_grad = x * mask, grad * mask
            out = drop.forward(x, training=True)
            assert out is x
            assert out.tobytes() == want.tobytes()
            gin = drop.backward(grad)
            assert gin is grad and gin.tobytes() == want_grad.tobytes()
            assert (drop.rng.bit_generator.state
                    == twin.bit_generator.state)
            # The buffer comes from the first (largest) batch and stays.
            if buffer is not None:
                assert drop._uniform_buf is buffer
            buffer = drop._uniform_buf

    @pytest.mark.parametrize("in_dim,out_dim,lead", [
        (40, 64, (64, 7)), (64, 32, (64, 7)), (32, 1, (64, 7)),
        (7, 32, (64,)), (32, 2, (64,)), (280, 64, (64,)),
        (40, 32, (64, 7)), (32, 64, (64, 7)), (32, 32, (64,)),
    ])
    def test_dense_gradients_match_plain_expressions(self, in_dim, out_dim,
                                                     lead):
        """Both backward halves against the plain expressions, on the
        layer shapes of the kernel net, the MLP and the attention
        model: the parameter half alone gives the same gradients."""
        rng = np.random.default_rng(in_dim * out_dim)
        x = rng.normal(size=lead + (in_dim,))
        grad = rng.normal(size=lead + (out_dim,))
        xf, gf = x.reshape(-1, in_dim), grad.reshape(-1, out_dim)
        full = Dense(in_dim, out_dim, rng=np.random.default_rng(0))
        half = Dense(in_dim, out_dim, rng=np.random.default_rng(0))
        full.forward(x, training=True)
        dx = full.backward(grad)
        half.forward(x, training=True)
        assert half.backward_params(grad) is None
        for layer in (full, half):
            assert layer.W.grad.tobytes() == (xf.T @ gf).tobytes()
            assert layer.b.grad.tobytes() == gf.sum(axis=0).tobytes()
        assert dx.tobytes() == (gf @ full.W.value.T).tobytes()
        assert half._dx_buf is None

    def test_data_facing_stacks_skip_the_input_gradient(self):
        """None of the three models computes an input gradient for the
        layer that sees its data."""
        from repro.core.nn.attention import SetTransformerClassifier
        from repro.core.nn.kernelnet import KernelInterferenceNet
        from repro.core.nn.network import MLPClassifier

        rng = np.random.default_rng(10)
        X = rng.normal(size=(6, 3, 5))
        models = [
            (KernelInterferenceNet(3, 5, 2, kernel_hidden=(4,),
                                   head_hidden=(4,)),
             lambda m: m.kernel.layers[0]),
            (MLPClassifier(15, (4,), 2, dropout=0.1),
             lambda m: m.net.layers[0]),
            (SetTransformerClassifier(3, 5, 2, dim=4, n_heads=2, n_blocks=1),
             lambda m: m.embed),
        ]
        for model, first in models:
            out = model.forward(X, training=True)
            model.backward(np.ones_like(out))
            assert first(model)._dx_buf is None
            assert np.any(first(model).W.grad != 0)
