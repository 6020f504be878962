"""Tests for the dense/batchnorm network, backpropagation, Adam, and serialization."""

from __future__ import annotations

import math
import os
import struct
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gradcheck import grad_check
from wignernet.data import FormatError
from wignernet.network import (
    INFER_TILE_ROWS,
    Adam,
    ArchitectureSpec,
    BatchNormLayer,
    DenseLayer,
    MlpModel,
    backward,
    init_model,
    load_model,
    mse_loss,
    save_model,
)


MAX = np.finfo(np.float64).max


def small_spec(hidden=(8,)):
    return ArchitectureSpec(hidden_dims=hidden)


def random_batch(rng, b=16):
    return rng.normal(size=(b, 4)), rng.normal(size=(b, 4))


def own_batchnorm(width):
    """A BatchNormLayer over arrays of its own, with identity statistics."""
    return BatchNormLayer(np.ones(width), np.zeros(width), np.zeros(width), np.ones(width))


def per_tensor(flat, like):
    """Split a flat vector into arrays shaped like the tensors in `like`."""
    ends = np.cumsum([t.size for t in like])
    return [part.reshape(t.shape) for part, t in zip(np.split(flat, ends[:-1]), like)]


class TestInitModel:
    def test_same_seed_gives_identical_parameters(self):
        a = init_model(small_spec(), seed=0)
        b = init_model(small_spec(), seed=0)
        for pa, pb in zip(a.state_arrays(), b.state_arrays()):
            assert np.array_equal(pa, pb)

    def test_default_architecture_shapes(self):
        model = init_model(ArchitectureSpec(), seed=0)
        shapes = [dense.weights.shape for dense, _ in model.blocks]
        assert shapes == [(128, 4), (256, 128), (256, 256), (128, 256)]
        assert model.output_layer.weights.shape == (4, 128)
        assert all(isinstance(bn, BatchNormLayer) for _, bn in model.blocks)

    def test_weights_respect_glorot_bound(self):
        model = init_model(ArchitectureSpec(), seed=1)
        layers = [dense for dense, _ in model.blocks] + [model.output_layer]
        for dense in layers:
            fan_out, fan_in = dense.weights.shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.max(np.abs(dense.weights)) <= bound
            assert np.array_equal(dense.bias, np.zeros(fan_out))

    def test_batchnorm_starts_as_identity_statistics(self):
        model = init_model(small_spec(), seed=2)
        _, bn = model.blocks[0]
        assert np.array_equal(bn.gamma, np.ones(8))
        assert np.array_equal(bn.beta, np.zeros(8))
        assert np.array_equal(bn.running_mean, np.zeros(8))
        assert np.array_equal(bn.running_var, np.ones(8))

    def test_spec_rejects_zero_width(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(hidden_dims=(128, 0))


class TestForward:
    def test_zero_weights_output_equals_output_bias(self):
        model = init_model(small_spec(hidden=(8, 8)), seed=0)
        for dense, _ in model.blocks:
            dense.weights[...] = 0.0
        model.output_layer.weights[...] = 0.0
        model.output_layer.bias[...] = [1.0, 2.0, 3.0, 4.0]
        out = model.forward(np.random.default_rng(0).normal(size=(5, 4)))
        assert np.allclose(out, [1.0, 2.0, 3.0, 4.0], rtol=0, atol=0)

    def test_batchnorm_hand_example(self):
        """Batch [0, 2] on one feature: mean 1, biased variance 1, eps 1e-3."""
        bn = own_batchnorm(1)
        assert bn.epsilon == 1e-3
        out, _ = bn.forward_train(np.array([[0.0], [2.0]]))
        expected = 1.0 / math.sqrt(1.0 + 1e-3)
        assert out[0, 0] == pytest.approx(-expected, rel=1e-12)
        assert out[1, 0] == pytest.approx(+expected, rel=1e-12)

    def test_running_statistics_update(self):
        bn = own_batchnorm(1)
        assert (bn.momentum, bn.epsilon) == (0.99, 1e-3)
        bn.forward_train(np.array([[0.0], [2.0]]))
        assert bn.running_mean[0] == pytest.approx(0.01)  # 0.99*0 + 0.01*1
        assert bn.running_var[0] == pytest.approx(1.0)  # 0.99*1 + 0.01*1

    def test_infer_is_independent_of_batch_composition(self):
        rng = np.random.default_rng(3)
        model = init_model(small_spec(hidden=(16, 8)), seed=3)
        model.forward_train(rng.normal(size=(32, 4)))  # move the running stats
        row = rng.normal(size=(1, 4))
        alone = model.forward(row)
        stacked = model.forward(np.vstack([rng.normal(size=(7, 4)), row]))
        assert np.allclose(alone[0], stacked[-1], atol=1e-12)

    def test_train_mode_rejects_single_row_with_batchnorm(self):
        model = init_model(small_spec(), seed=0)
        with pytest.raises(ValueError, match=">= 2 rows"):
            model.forward_train(np.zeros((1, 4)))

    def test_train_mode_allows_single_row_without_batchnorm(self):
        model = init_model(small_spec(hidden=()), seed=0)  # no hidden block, so no batchnorm
        out, _ = model.forward_train(np.zeros((1, 4)))
        assert out.shape == (1, 4)

    def test_batchnorm_infer_identity(self):
        """Fresh statistics scale by 1/sqrt(1+eps); eps=0 is the exact identity."""
        x = np.random.default_rng(4).normal(size=(6, 3))
        bn = own_batchnorm(3)
        assert bn.epsilon == 1e-3
        assert np.allclose(bn.forward_infer(x), x / math.sqrt(1.0 + 1e-3), rtol=1e-14)
        bn0 = own_batchnorm(3)
        bn0.epsilon = 0.0
        assert np.array_equal(bn0.forward_infer(x), x)


class TestMseLoss:
    def test_zero_at_equality(self):
        x = np.ones((3, 4))
        assert mse_loss(x, x) == 0.0

    def test_unit_difference(self):
        assert mse_loss(np.ones((5, 4)), np.zeros((5, 4))) == 1.0

    def test_single_entry_difference(self):
        pred = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert mse_loss(pred, np.zeros((1, 4))) == 0.25

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((2, 4)), np.zeros((3, 4)))


class TestBackward:
    def test_zero_gradients_at_optimum(self):
        rng = np.random.default_rng(5)
        model = init_model(small_spec(), seed=5)
        x, _ = random_batch(rng)
        out, cache = model.forward_train(x)
        grads = backward(model, cache, out.copy())
        for g in per_tensor(grads, model.parameters()):
            assert np.allclose(g, 0.0, atol=1e-15)

    def test_linear_model_matches_closed_form(self):
        """For a bare 4->4 affine map, dW = (2/(B*4)) err^T x and db = (2/(B*4)) sum err."""
        rng = np.random.default_rng(6)
        model = init_model(small_spec(hidden=()), seed=6)
        x, y = random_batch(rng, b=10)
        out, cache = model.forward_train(x)
        grads = per_tensor(backward(model, cache, y), model.parameters())
        err = out - y
        scale = 2.0 / err.size
        assert np.allclose(grads[0], scale * err.T @ x, rtol=1e-12)
        assert np.allclose(grads[1], scale * err.sum(axis=0), rtol=1e-12)

    def test_gradient_layout_matches_parameters(self):
        model = init_model(small_spec(hidden=(8, 6)), seed=7)
        x, y = random_batch(np.random.default_rng(7))
        _, cache = model.forward_train(x)
        flat = backward(model, cache, y)
        params = model.parameters()
        assert flat.shape == model.params.shape == (sum(p.size for p in params),)
        grads = per_tensor(flat, params)
        assert len(grads) == len(params)
        for g, p in zip(grads, params):
            assert g.shape == p.shape


class TestGradCheck:
    def test_batchnorm_model_matches_finite_differences(self):
        """Ten seeded 4->8->4 batchnorm models stay below 1e-5 max relative error."""
        for seed in range(10):
            model = init_model(small_spec(), seed=seed)
            rng = np.random.default_rng(1000 + seed)
            x, y = random_batch(rng, b=16)
            worst = grad_check(model, x, y, epsilon_fd=1e-4)
            assert worst <= 1e-5, f"seed {seed}: max relative error {worst:.3e}"

    def test_linear_model_is_exact_to_rounding(self):
        model = init_model(small_spec(hidden=()), seed=0)
        rng = np.random.default_rng(42)
        x, y = random_batch(rng, b=8)
        assert grad_check(model, x, y, epsilon_fd=1e-4) <= 1e-8

    def test_dead_units_are_skipped(self):
        """A saturated-off hidden row has zero analytic and numeric gradient."""
        model = init_model(small_spec(), seed=1)
        model.blocks[0][0].bias[0] = -1e3  # unit 0 never activates
        rng = np.random.default_rng(8)
        x, y = rng.uniform(-1, 1, (16, 4)), rng.normal(size=(16, 4))
        worst = grad_check(model, x, y, epsilon_fd=1e-4)
        assert np.isfinite(worst)
        assert worst <= 1e-5


class TestBatchNormBackward:
    @pytest.mark.parametrize("batch, width, constant", [(2, 3, None), (64, 5, None), (16, 4, 2)],
                             ids=["B=2", "B=64", "constant-column"])
    def test_matches_central_differences_through_forward_train(self, batch, width, constant):
        """dx, dgamma and dbeta of L = sum(w * y) over forward_train alone agree with
        central differences to 1e-6 relative; a constant column has zero variance,
        so its inv_std is 1 / sqrt(eps)."""
        rng = np.random.default_rng(batch)
        bn = BatchNormLayer(rng.uniform(0.5, 2.0, width), rng.normal(size=width),
                            np.zeros(width), np.ones(width))
        x, w = rng.normal(size=(batch, width)), rng.normal(size=(batch, width))
        if constant is not None:
            x[:, constant] = 0.7
        _, cache = bn.forward_train(x)
        if constant is not None:
            assert cache[1][constant] == 1.0 / math.sqrt(bn.epsilon)
        dgamma, dbeta = np.empty(width), np.empty(width)
        analytic = (bn.backward(w, cache, dgamma, dbeta), dgamma, dbeta)

        worst, h = 0.0, 1e-5
        for array, grad in zip((x, bn.gamma, bn.beta), analytic):
            for i in np.ndindex(array.shape):
                orig = array[i]
                array[i] = orig + h
                up = np.sum(w * bn.forward_train(x)[0])
                array[i] = orig - h
                down = np.sum(w * bn.forward_train(x)[0])
                array[i] = orig
                numeric = (up - down) / (2.0 * h)
                if abs(grad[i]) < 1e-12 and abs(numeric) < 1e-12:
                    continue
                worst = max(worst, abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-8))
        assert worst <= 1e-6


class TestAdam:
    def test_first_step_magnitude_and_direction(self):
        lr, eps = 0.0005, 1e-7
        theta = np.array([1.0])
        grad = np.array([0.3])
        opt = Adam(theta, learning_rate=lr)
        opt.step(theta, grad)
        expected_delta = lr * 0.3 / (0.3 + eps)  # bias correction gives mhat=g, vhat=g^2
        assert theta[0] == pytest.approx(1.0 - expected_delta, rel=1e-12)
        assert opt.step_count == 1

    def test_zero_gradient_is_a_noop(self):
        theta = np.array([0.7, -0.2])
        opt = Adam(theta, learning_rate=0.0005)
        opt.step(theta, np.zeros(2))
        assert np.array_equal(theta, [0.7, -0.2])

    def test_identical_inputs_give_identical_outputs(self):
        def run():
            theta = np.array([[0.5, -1.0], [2.0, 0.0]])
            opt = Adam(theta, learning_rate=0.01)
            for _ in range(5):
                opt.step(theta, np.array([[0.1, -0.2], [0.3, 0.4]]))
            return theta

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        theta = np.array([1.0])
        opt = Adam(theta, learning_rate=0.0005)
        with pytest.raises(ValueError):
            opt.step(theta, np.zeros(2))

    def test_single_step_decreases_loss(self):
        """A small-lr Adam step strictly reduces the loss on a fixed batch."""
        for seed in range(10):
            model = init_model(small_spec(), seed=seed)
            rng = np.random.default_rng(2000 + seed)
            x, y = random_batch(rng, b=32)
            out, cache = model.forward_train(x)
            before = mse_loss(out, y)
            grads = backward(model, cache, y)
            assert np.any(grads != 0)  # not an all-dead start
            Adam(model.params, learning_rate=1e-5).step(model.params, grads)
            after, _ = model.forward_train(x)
            assert mse_loss(after, y) < before


def per_tensor_step(model, x, y, moments, step_count, lr, folded):
    """One training step written the way the per-tensor implementation did it:
    batchnorm statistics from x.var(), gradients as a list of fresh arrays,
    and a per-tensor Adam loop.  moments holds one (m, v) pair per tensor.

    folded=True takes network's formulas in its order of operations: batchnorm
    caches the centred input and its backward starts from dbeta and dgamma, and
    Adam folds its bias corrections into a step size and epsilon.  folded=False
    takes the textbook formulas, which equal them up to rounding."""
    block_inputs, pre_activations, bn_caches = [], [], []
    for dense, bn in model.blocks:
        block_inputs.append(x)
        z = x @ dense.weights.T + dense.bias
        pre_activations.append(z)
        x = np.maximum(z, 0.0)
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + bn.epsilon)
        xc = x - mean
        bn.running_mean[...] = bn.momentum * bn.running_mean + (1.0 - bn.momentum) * mean
        bn.running_var[...] = bn.momentum * bn.running_var + (1.0 - bn.momentum) * var
        if folded:
            x = xc * (bn.gamma * inv_std) + bn.beta
            bn_caches.append((xc, inv_std))
        else:
            xhat = xc * inv_std
            x = bn.gamma * xhat + bn.beta
            bn_caches.append((xhat, inv_std))
    out_layer = model.output_layer
    out = x @ out_layer.weights.T + out_layer.bias

    g = 2.0 * (out - y) / out.size
    grads = [g.T @ x, g.sum(axis=0)]
    g = g @ out_layer.weights
    for i in range(len(model.blocks) - 1, -1, -1):
        dense, bn = model.blocks[i]
        batch = g.shape[0]
        dbeta = np.sum(g, axis=0)
        if folded:
            xc, inv_std = bn_caches[i]
            dgamma = np.sum(g * xc, axis=0) * inv_std
            g = (g - dbeta / batch - xc * (dgamma * inv_std / batch)) * (bn.gamma * inv_std)
        else:
            xhat, inv_std = bn_caches[i]
            dgamma = np.sum(g * xhat, axis=0)
            dxhat = g * bn.gamma
            g = (inv_std / batch) * (
                batch * dxhat - np.sum(dxhat, axis=0) - xhat * np.sum(dxhat * xhat, axis=0)
            )
        g = g * (pre_activations[i] > 0.0)
        grads[:0] = [g.T @ block_inputs[i], g.sum(axis=0), dgamma, dbeta]
        g = g @ dense.weights

    beta1, beta2, eps = 0.9, 0.999, 1e-7
    bc1 = 1.0 - beta1**step_count
    bc2 = 1.0 - beta2**step_count
    for p, g, (m, v) in zip(model.parameters(), grads, moments):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        if folded:
            p -= m / (np.sqrt(v) + eps * math.sqrt(bc2)) * (lr * math.sqrt(bc2) / bc1)
        else:
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def reference_step(model, x, y, moments, step_count, lr):
    """network's training step, per tensor; see per_tensor_step."""
    per_tensor_step(model, x, y, moments, step_count, lr, folded=True)


def textbook_step(model, x, y, moments, step_count, lr):
    """The textbook batchnorm and Adam formulas, per tensor; see per_tensor_step."""
    per_tensor_step(model, x, y, moments, step_count, lr, folded=False)


class TestFlatState:
    @pytest.mark.parametrize(
        "spec, batch", [(small_spec(hidden=(8, 6)), 16), (ArchitectureSpec(), 64)], ids=["16", "64"]
    )
    def test_training_steps_match_the_per_tensor_reference_bit_for_bit(self, spec, batch):
        """Six steps of forward_train/backward/Adam.step on the flat state equal
        the per-tensor reference in every parameter, moment and running stat: a
        small spec at B = 16, the stock one at B = 64."""
        lr = 0.01
        model = init_model(spec, seed=11)
        reference = init_model(spec, seed=11)
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in reference.parameters()]
        adam = Adam(model.params, learning_rate=lr)
        rng = np.random.default_rng(11)
        for step in range(1, 7):
            x, y = random_batch(rng, b=batch)
            out, cache = model.forward_train(x)
            adam.step(model.params, backward(model, cache, y))
            reference_step(reference, x, y, moments, step, lr)
            for a, b in zip(model.state_arrays(), reference.state_arrays()):
                assert np.array_equal(a, b), f"step {step}"
            assert np.array_equal(adam.first_moment, np.concatenate([m.ravel() for m, _ in moments]))
            assert np.array_equal(adam.second_moment, np.concatenate([v.ravel() for _, v in moments]))

    @pytest.mark.parametrize(
        "spec, batch", [(small_spec(hidden=(8, 6)), 16), (ArchitectureSpec(), 64)], ids=["16", "64"]
    )
    def test_training_steps_agree_with_the_textbook_formulas(self, spec, batch):
        """Six steps of forward_train/backward/Adam.step agree with the textbook
        batchnorm and Adam formulas to rounding, in every parameter, moment and
        running stat: the folded forms are the same mathematics."""
        lr = 0.01
        model = init_model(spec, seed=11)
        textbook = init_model(spec, seed=11)
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in textbook.parameters()]
        adam = Adam(model.params, learning_rate=lr)
        rng = np.random.default_rng(11)
        for step in range(1, 7):
            x, y = random_batch(rng, b=batch)
            out, cache = model.forward_train(x)
            adam.step(model.params, backward(model, cache, y))
            textbook_step(textbook, x, y, moments, step, lr)
            close = dict(rtol=1e-9, atol=1e-12, err_msg=f"step {step}")
            np.testing.assert_allclose(model.state, textbook.state, **close)
            for i, moment in enumerate((adam.first_moment, adam.second_moment)):
                np.testing.assert_allclose(moment, np.concatenate([mv[i].ravel() for mv in moments]),
                                           **close)

    def test_backward_raises_a_failed_weight_gradient_and_then_recovers(self):
        """A weight-gradient matmul with a wrong-shaped out= fails; backward
        raises its error, and the next call works again."""
        model = init_model(small_spec(hidden=(8, 6)), seed=13)
        x, y = random_batch(np.random.default_rng(13))
        _, cache = model.forward_train(x)
        grad_out = model._grad_layers[1]
        weights = grad_out.weights
        grad_out.weights = np.empty((3, 3))
        with pytest.raises(ValueError, match="Output operand"):
            backward(model, cache, y)
        grad_out.weights = weights
        expected = backward(model, cache, y).copy()
        assert np.array_equal(backward(model, cache, y), expected)

    def test_adam_step_raises_a_moment_that_mismatches_the_gradient(self):
        """The second moment has one slot too many, which the shape check on
        params and grads does not see; Adam.step raises the update's error."""
        params = np.arange(10.0)
        adam = Adam(params, learning_rate=0.01)
        adam.second_moment = np.zeros(11)
        with pytest.raises(ValueError):
            adam.step(params, np.ones(10))

    @pytest.mark.parametrize("source", ["init_model", "load_model"])
    def test_layer_tensors_are_views_into_the_state(self, source, tmp_path):
        def build(spec):
            model = init_model(spec, seed=12)
            if source == "load_model":
                save_model(model, tmp_path / "model.bin")
                model = load_model(tmp_path / "model.bin")
            return model

        def tensors(layers):
            blocks, output_layer = layers
            held = [layer for block in blocks for layer in block]
            return [t for layer in held + [output_layer] for t in vars(layer).values()
                    if isinstance(t, np.ndarray)]

        for spec in (small_spec(hidden=(8, 6)), small_spec(hidden=())):
            model = build(spec)
            layer_tensors = tensors((model.blocks, model.output_layer))
            assert {id(t) for t in layer_tensors} == {id(t) for t in model.state_arrays()}
            # The gradient walk's running statistics are scratch, not gradient views.
            grad_tensors = [t for t in tensors(model._grad_layers) if np.shares_memory(t, model.grad)]
            assert [g.shape for g in grad_tensors] == [p.shape for p in model.parameters()]
            x, y = random_batch(np.random.default_rng(12))
            _, cache = model.forward_train(x)
            assert backward(model, cache, y) is model.grad
            # Distinct values in the buffer: each view reads exactly its own slots, in order.
            for buffer, views in ((model.state, model.state_arrays()), (model.grad, grad_tensors)):
                buffer[...] = np.arange(buffer.size)
                assert all(np.shares_memory(v, buffer) for v in views)
                assert np.array_equal(np.concatenate([v.ravel() for v in views]), buffer)

        model = build(small_spec(hidden=(8, 6)))
        dense, bn = model.blocks[0]
        weights, gamma = dense.weights, bn.gamma
        weights_before, gamma_before = weights.copy(), gamma.copy()
        before = model.snapshot()
        saved = [a.copy() for a in model.state_arrays()]

        x, y = random_batch(np.random.default_rng(12))
        _, cache = model.forward_train(x)
        Adam(model.params, learning_rate=0.01).step(model.params, backward(model, cache, y))
        assert dense.weights is weights and bn.gamma is gamma
        assert np.shares_memory(weights, model.params) and np.shares_memory(gamma, model.params)
        assert not np.array_equal(weights, weights_before)
        assert not np.array_equal(gamma, gamma_before)
        assert not np.array_equal(bn.running_mean, np.zeros(8))

        model.restore(before)
        for a, b in zip(model.state_arrays(), saved):
            assert np.array_equal(a, b)
        assert dense.weights is weights


def per_layer_forward(model, x, folded):
    """The inference pass written as one expression per layer, each allocating
    its result: bias added to a fresh product, ReLU by np.maximum, then batchnorm.

    folded=True takes network's batchnorm, the per-feature affine map
    x * scale + (beta - running_mean * scale) with scale = gamma / sqrt(running_var + eps).
    folded=False takes the textbook gamma * (x - running_mean) * inv_std + beta,
    which equals it up to rounding."""
    for dense, bn in model.blocks:
        x = np.maximum(x @ dense.weights.T + dense.bias, 0.0)
        if folded:
            scale = bn.gamma / np.sqrt(bn.running_var + bn.epsilon)
            x = x * scale + (bn.beta - bn.running_mean * scale)
        else:
            inv_std = 1.0 / np.sqrt(bn.running_var + bn.epsilon)
            x = bn.gamma * (x - bn.running_mean) * inv_std + bn.beta
    return x @ model.output_layer.weights.T + model.output_layer.bias


def reference_forward(model, x):
    """network's inference pass, one allocating expression per layer; see per_layer_forward."""
    return per_layer_forward(model, x, folded=True)


def textbook_forward(model, x):
    """The textbook batchnorm at inference, one allocating expression per layer;
    see per_layer_forward."""
    return per_layer_forward(model, x, folded=False)


@pytest.fixture(scope="module")
def stock_trained_model():
    """The stock architecture after 25 steps at B = 64, its running statistics
    off the identity."""
    model = init_model(ArchitectureSpec(), seed=1)
    adam = Adam(model.params, learning_rate=0.0005)
    rng = np.random.default_rng(1)
    for _ in range(25):
        x, y = random_batch(rng, b=64)
        _, cache = model.forward_train(x)
        adam.step(model.params, backward(model, cache, y))
    return model


class TestInferencePass:
    @pytest.mark.parametrize("batch", [1, 64, 1000])
    def test_forward_matches_the_allocating_reference_bit_for_bit(self, stock_trained_model, batch):
        model = stock_trained_model
        for _, bn in model.blocks:
            assert not np.allclose(bn.running_mean, 0.0) and not np.allclose(bn.running_var, 1.0)
        x = np.random.default_rng(batch).normal(size=(batch, 4))
        assert np.array_equal(model.forward(x), reference_forward(model, x))

    def test_forward_agrees_with_the_textbook_batchnorm_to_rounding(self, stock_trained_model):
        """The scale-and-shift batchnorm is the textbook one up to rounding: over
        10,000 rows no output differs by more than 1e-12 of the largest output."""
        x = np.random.default_rng(10_000).normal(size=(10_000, 4))
        found, textbook = stock_trained_model.forward(x), textbook_forward(stock_trained_model, x)
        assert np.max(np.abs(found - textbook)) <= 1e-12 * np.max(np.abs(textbook))

    @pytest.mark.parametrize("batch", [INFER_TILE_ROWS, INFER_TILE_ROWS + 1, 2 * INFER_TILE_ROWS + 1])
    def test_each_tile_equals_that_tile_forwarded_alone(self, stock_trained_model, batch):
        model = stock_trained_model
        x = np.random.default_rng(batch).normal(size=(batch, 4))
        x_before = x.copy()
        out = model.forward(x)
        assert np.array_equal(x, x_before)
        assert out.shape == (batch, 4)
        for start in range(0, batch, INFER_TILE_ROWS):  # the last tile of 1 row runs batchnorm too
            tile = slice(start, start + INFER_TILE_ROWS)
            assert np.array_equal(out[tile], model.forward(x[tile])), f"rows from {start}"

    @pytest.mark.parametrize("batch", [INFER_TILE_ROWS, 2 * INFER_TILE_ROWS + 1])
    def test_a_warm_forward_allocates_far_less_than_one_tile(self, stock_trained_model, batch):
        """The hidden activations go through this thread's scratch buffers, so after
        one call the heap sees only the result: no 1024 x 256 tile, whatever it last freed."""
        x = np.random.default_rng(batch).normal(size=(batch, 4))
        stock_trained_model.forward(x)
        tracemalloc.start()
        try:
            stock_trained_model.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < INFER_TILE_ROWS * 256 * 8 / 8

    @pytest.mark.parametrize("batch", [64, 2 * INFER_TILE_ROWS + 1])
    def test_a_result_is_not_overwritten_by_the_next_call(self, stock_trained_model, batch):
        rng = np.random.default_rng(batch)
        first = stock_trained_model.forward(rng.normal(size=(batch, 4)))
        kept = first.copy()
        stock_trained_model.forward(rng.normal(size=(batch, 4)))
        assert np.array_equal(first, kept)

    def test_threads_forwarding_at_once_match_the_serial_results(self, stock_trained_model):
        """More threads than cores, switching often, each forwarding its own batch size
        through its own scratch buffers: every output equals the serial one."""
        model = stock_trained_model
        sizes = (1, 64, 700, 1500, 2 * INFER_TILE_ROWS + 1, 300)
        batches = [np.random.default_rng(seed).normal(size=(b, 4)) for seed, b in enumerate(sizes)]
        serial = [model.forward(x) for x in batches]
        start = threading.Barrier(len(batches))
        found = [[] for _ in batches]

        def forward_many(i):
            start.wait()
            found[i].extend(model.forward(batches[i]) for _ in range(10))

        threads = [threading.Thread(target=forward_many, args=(i,)) for i in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for expected, outputs in zip(serial, found):
            assert len(outputs) == 10 and all(np.array_equal(y, expected) for y in outputs)

    def test_threads_forwarding_at_once_on_a_cold_memo_match_the_serial_results(
        self, stock_trained_model, tmp_path
    ):
        """A freshly loaded model has computed no batchnorm affine yet: threads that
        forward it at once, each at its own batch size, race to fill the memos, and
        every output still equals the serial one from another loaded copy.  Twenty
        fresh loads, since a race shows only on some of them."""
        path = tmp_path / "model.bin"
        save_model(stock_trained_model, path)
        sizes = (1, 2, 64, 300, 1500)
        batches = [np.random.default_rng(seed).normal(size=(b, 4)) for seed, b in enumerate(sizes)]
        serial = [load_model(path).forward(x) for x in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                model = load_model(path)
                assert all(bn._affine is None for _, bn in model.blocks)
                start = threading.Barrier(len(batches))
                found = [[] for _ in batches]

                def forward_many(i):
                    start.wait()
                    found[i].extend(model.forward(batches[i]) for _ in range(3))

                threads = [threading.Thread(target=forward_many, args=(i,)) for i in range(len(batches))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                for expected, outputs in zip(serial, found):
                    assert len(outputs) == 3 and all(np.array_equal(y, expected) for y in outputs)
        finally:
            sys.setswitchinterval(interval)


def state_slice(model, vector):
    """The slice of model.state that the view `vector` covers."""
    start = (vector.ctypes.data - model.state.ctypes.data) // vector.itemsize
    return slice(start, start + vector.size)


def moved_model(seed=5):
    """A small model after three training steps: every batchnorm vector off its default."""
    model = init_model(small_spec(hidden=(16, 8)), seed=seed)
    adam, rng = Adam(model.params, learning_rate=0.01), np.random.default_rng(seed)
    for _ in range(3):
        x, y = random_batch(rng, b=32)
        _, cache = model.forward_train(x)
        adam.step(model.params, backward(model, cache, y))
    return model


class TestAffineMemo:
    """forward_infer computes scale and shift once per set of values: every writer
    of epsilon or of the four vectors is seen, and unchanged values reuse the arrays."""

    @staticmethod
    def affines(model):
        """Each batchnorm's memoized scale and shift arrays, in block order."""
        return [array for _, bn in model.blocks for array in bn._affine[1:]]

    @staticmethod
    def write(model, writer, tmp_path):
        """Apply `writer` to a model whose memos are warm; returns the model to forward."""
        rng = np.random.default_rng(17)
        if writer == "forward_train":
            model.forward_train(rng.normal(size=(32, 4)))
        elif writer == "adam_step":
            Adam(model.params, learning_rate=0.01).step(model.params, rng.normal(size=model.params.size))
        elif writer == "restore":  # the state moved_model started from
            model.restore(init_model(model.spec, seed=5).snapshot())
        elif writer.startswith("state."):
            for _, bn in model.blocks:
                model.state[state_slice(model, getattr(bn, writer[len("state."):]))] *= 1.25
        elif writer == "epsilon":
            for _, bn in model.blocks:
                bn.epsilon = 0.25
        elif writer == "load_model":
            save_model(moved_model(seed=6), tmp_path / "model.bin")
            model = load_model(tmp_path / "model.bin")
        return model

    @pytest.mark.parametrize("writer", [
        "forward_train", "adam_step", "restore", "state.gamma", "state.beta",
        "state.running_mean", "state.running_var", "epsilon", "load_model",
    ])
    def test_every_writer_is_seen_and_unchanged_values_reuse_the_affine(self, writer, tmp_path):
        model = moved_model()
        x = np.random.default_rng(8).normal(size=(64, 4))
        before = model.forward(x)
        assert np.array_equal(before, reference_forward(model, x))
        kept = self.affines(model)
        model.forward(x[:1])
        assert all(a is b for a, b in zip(self.affines(model), kept))

        model = self.write(model, writer, tmp_path)
        found = model.forward(x)
        assert not np.array_equal(found, before)
        assert np.array_equal(found, reference_forward(model, x))
        fresh = self.affines(model)
        assert not any(a is b for a, b in zip(fresh, kept))
        model.forward(x[:1])
        assert all(a is b for a, b in zip(self.affines(model), fresh))


class TestSerialization:
    def trained_ish_model(self, seed=0, spec=None):
        model = init_model(spec or small_spec(hidden=(8, 6)), seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(3):  # move parameters and running stats off their defaults
            x, y = random_batch(rng, b=16)
            out, cache = model.forward_train(x)
            Adam(model.params, learning_rate=0.0005).step(model.params, backward(model, cache, y))
        return model

    def test_round_trip_preserves_inference(self, tmp_path):
        model = self.trained_ish_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        probe = np.random.default_rng(9).normal(size=(12, 4))
        assert np.array_equal(model.forward(probe), loaded.forward(probe))
        for a, b in zip(model.state_arrays(), loaded.state_arrays()):
            assert np.array_equal(a, b)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = self.trained_ish_model(seed=3)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("spec", [small_spec(hidden=())], ids=["no-hidden-layer"])
    def test_save_load_save_is_byte_identical_for_every_layout(self, tmp_path, spec):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(self.trained_ish_model(seed=3, spec=spec), p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_the_text_header_then_the_state_as_little_endian_float64(self, tmp_path):
        model = self.trained_ish_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        header = (
            "wignernet model v2\ninput_dim 4\nhidden_dims 8 6\noutput_dim 4\nbatchnorm 1\n"
            "init_seed 0\nmomentum 0.98999999999999999\nepsilon 0.001\nstate 178\n"
        ).encode()
        assert path.read_bytes() == header + struct.pack("<178d", *model.state)
        save_model(model, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(state=arrays(np.float64, 178, elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(state=np.array([-0.0, 5e-324, -2.2250738585072009e-308, MAX, -MAX] * 35 + [0.0] * 3))
    def test_any_finite_state_round_trips_bit_for_bit(self, state):
        model = MlpModel(small_spec(hidden=(8, 6)), init_seed=0)
        model.state[...] = state
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.bin")
            save_model(model, path)
            loaded = load_model(path)
        assert loaded.state.tobytes() == state.tobytes()  # -0.0 and 0.0 differ here

    def test_constant_line_is_compared_by_value(self, tmp_path):
        path = self.edited_file(tmp_path, "momentum 0.98999999999999999\n", "momentum 0.99\n")
        assert np.array_equal(load_model(path).state, self.trained_ish_model().state)

    def test_truncated_file_is_a_structured_error(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(self.trained_ish_model(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 8])
        with pytest.raises(FormatError) as excinfo:
            load_model(path)
        expected = "line 9: expected 1424 bytes of state after it, got 1416"
        assert str(excinfo.value) == f"{path}: {expected}"

    def test_unknown_version_rejected(self, tmp_path):
        """A v1 file, the text format before this one, fails on its first line."""
        path = self.edited_file(tmp_path, "wignernet model v2\n", "wignernet model v1\n")
        with pytest.raises(FormatError) as excinfo:
            load_model(path)
        expected = "line 1: expected 'wignernet model v2', got 'wignernet model v1'"
        assert str(excinfo.value) == f"{path}: {expected}"

    def edited_file(self, tmp_path, old, new):
        """A saved model file with the text `old` replaced by `new`; with old None,
        `new` is appended to the file."""
        path = tmp_path / "model.bin"
        save_model(self.trained_ish_model(), path)
        data = path.read_bytes()
        if old is None:
            data += new.encode()
        else:
            assert old.encode() in data
            data = data.replace(old.encode(), new.encode(), 1)
        path.write_bytes(data)
        return path

    @pytest.mark.parametrize(
        "old, new, lineno",
        [
            ("hidden_dims 8 6\n", "hidden_dims 8 6.5\n", 3),
            ("hidden_dims 8 6\n", "hidden_dims 8 x\n", 3),
            ("init_seed 0\n", "init_seed 1.5\n", 6),
            (None, "w 1 2 3 4\n", 9),
            (None, "\n", 9),
            ("hidden_dims 8 6\n", "hidden_dims 8 0\n", 3),
            ("momentum 0.98999999999999999\n", "momentum 2\n", 7),
            ("momentum 0.98999999999999999\n", "momentum 0.9\n", 7),
            ("epsilon 0.001\n", "epsilon 0\n", 8),
        ],
        ids=[
            "fractional-int",
            "non-int",
            "fractional-seed",
            "line-after-end",
            "blank-after-end",
            "zero-width",
            "momentum-above-1",
            "momentum-not-0.99",
            "epsilon-not-0.001",
        ],
    )
    def test_malformed_line_is_named(self, tmp_path, old, new, lineno):
        path = self.edited_file(tmp_path, old, new)
        with pytest.raises(FormatError, match=f"line {lineno}: ") as excinfo:
            load_model(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize(
        "fixed, edited, lineno",
        [("input_dim 4", "input_dim 3", 2), ("output_dim 4", "output_dim 3", 4),
         ("batchnorm 1", "batchnorm 0", 5), ("batchnorm 1", "batchnorm 2", 5)],
        ids=["input_dim-3", "output_dim-3", "batchnorm-0", "batchnorm-2"],
    )
    def test_fixed_line_must_read_as_written(self, tmp_path, fixed, edited, lineno):
        """The in and out widths are the row layout's and every hidden block has
        batchnorm, so lines 2, 4 and 5 are always `input_dim 4`, `output_dim 4` and
        `batchnorm 1`."""
        path = self.edited_file(tmp_path, fixed + "\n", edited + "\n")
        with pytest.raises(FormatError) as excinfo:
            load_model(path)
        expected = f"line {lineno}: expected {fixed!r}, got {edited!r}"
        assert str(excinfo.value) == f"{path}: {expected}"

    @pytest.mark.parametrize("count", ["177", "179", "0178"])
    def test_state_count_must_match_the_spec(self, tmp_path, count):
        path = self.edited_file(tmp_path, "state 178\n", f"state {count}\n")
        with pytest.raises(FormatError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"{path}: line 9: expected 'state 178', got 'state {count}'"

    @pytest.mark.parametrize(
        "value, index", [(math.nan, 0), (math.inf, 177), (-math.inf, 91)], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_state_value_names_its_index(self, tmp_path, value, index):
        path = tmp_path / "model.bin"
        save_model(self.trained_ish_model(), path)
        data = bytearray(path.read_bytes())
        start = len(data) - 8 * (178 - index)
        data[start : start + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"{path}: line 9: non-finite value at state[{index}]"

    @pytest.mark.parametrize("label, value", [("momentum", "inf"), ("epsilon", "nan")])
    def test_non_finite_header_value_names_its_line(self, tmp_path, label, value):
        line = {"momentum": ("momentum 0.98999999999999999\n", 7), "epsilon": ("epsilon 0.001\n", 8)}
        old, lineno = line[label]
        path = self.edited_file(tmp_path, old, f"{label} {value}\n")
        with pytest.raises(FormatError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"{path}: line {lineno}: non-finite value"

    def test_header_and_tensor_disagreement_rejected(self, tmp_path):
        path = self.edited_file(tmp_path, "hidden_dims 8 6\n", "hidden_dims 16 6\n")
        with pytest.raises(FormatError) as excinfo:  # the stored state is still 8 wide
            load_model(path)
        expected = "line 9: expected 'state 298', got 'state 178'"
        assert str(excinfo.value) == f"{path}: {expected}"
