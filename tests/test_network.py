"""Tests for the dense/batchnorm network, backpropagation, Adam, and serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gradcheck import grad_check
from wignernet.network import (
    Adam,
    ArchitectureSpec,
    BatchNormLayer,
    DenseLayer,
    MlpModel,
    ModelFormatError,
    ModelShapeError,
    ModelVersionError,
    backward,
    init_model,
    load_model,
    mse_loss,
    save_model,
)


def small_spec(hidden=(8,), batchnorm=True):
    return ArchitectureSpec(input_dim=4, hidden_dims=hidden, output_dim=4, batchnorm=batchnorm)


def random_batch(rng, b=16):
    return rng.normal(size=(b, 4)), rng.normal(size=(b, 4))


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
        assert all(bn is not None for _, bn in model.blocks)

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
        bn = BatchNormLayer(1, epsilon=1e-3)
        out, _ = bn.forward_train(np.array([[0.0], [2.0]]))
        expected = 1.0 / math.sqrt(1.0 + 1e-3)
        assert out[0, 0] == pytest.approx(-expected, rel=1e-12)
        assert out[1, 0] == pytest.approx(+expected, rel=1e-12)

    def test_running_statistics_update(self):
        bn = BatchNormLayer(1, momentum=0.99, epsilon=1e-3)
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
        model = init_model(small_spec(batchnorm=False), seed=0)
        out, _ = model.forward_train(np.zeros((1, 4)))
        assert out.shape == (1, 4)

    def test_batchnorm_infer_identity(self):
        """Fresh statistics scale by 1/sqrt(1+eps); eps=0 is the exact identity."""
        x = np.random.default_rng(4).normal(size=(6, 3))
        bn = BatchNormLayer(3, epsilon=1e-3)
        assert np.allclose(bn.forward_infer(x), x / math.sqrt(1.0 + 1e-3), rtol=1e-14)
        bn0 = BatchNormLayer(3, epsilon=0.0)
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
        out, cache = model.forward_train(x, update_running=False)
        grads = backward(model, cache, out.copy())
        for g in per_tensor(grads, model.parameters()):
            assert np.allclose(g, 0.0, atol=1e-15)

    def test_linear_model_matches_closed_form(self):
        """For a bare 4->4 affine map, dW = (2/(B*4)) err^T x and db = (2/(B*4)) sum err."""
        rng = np.random.default_rng(6)
        model = init_model(small_spec(hidden=(), batchnorm=False), seed=6)
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
        model = init_model(small_spec(hidden=(), batchnorm=False), seed=0)
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


class TestAdam:
    def test_first_step_magnitude_and_direction(self):
        lr, eps = 0.0005, 1e-7
        theta = np.array([1.0])
        grad = np.array([0.3])
        opt = Adam(theta, learning_rate=lr, epsilon=eps)
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
            out, cache = model.forward_train(x, update_running=False)
            before = mse_loss(out, y)
            grads = backward(model, cache, y)
            assert np.any(grads != 0)  # not an all-dead start
            Adam(model.params, learning_rate=1e-5).step(model.params, grads)
            after, _ = model.forward_train(x, update_running=False)
            assert mse_loss(after, y) < before


def reference_step(model, x, y, moments, step_count, lr):
    """One training step written the way the per-tensor implementation did it:
    batchnorm statistics from x.var(), gradients as a list of fresh arrays,
    and a per-tensor Adam loop.  moments holds one (m, v) pair per tensor."""
    block_inputs, pre_activations, bn_caches = [], [], []
    for dense, bn in model.blocks:
        block_inputs.append(x)
        z = x @ dense.weights.T + dense.bias
        pre_activations.append(z)
        x = np.maximum(z, 0.0)
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + bn.epsilon)
        xhat = (x - mean) * inv_std
        bn.running_mean[...] = bn.momentum * bn.running_mean + (1.0 - bn.momentum) * mean
        bn.running_var[...] = bn.momentum * bn.running_var + (1.0 - bn.momentum) * var
        x = bn.gamma * xhat + bn.beta
        bn_caches.append((xhat, inv_std))
    out_layer = model.output_layer
    out = x @ out_layer.weights.T + out_layer.bias

    g = 2.0 * (out - y) / out.size
    grads = [g.T @ x, g.sum(axis=0)]
    g = g @ out_layer.weights
    for i in range(len(model.blocks) - 1, -1, -1):
        dense, bn = model.blocks[i]
        xhat, inv_std = bn_caches[i]
        batch = g.shape[0]
        dgamma = np.sum(g * xhat, axis=0)
        dbeta = np.sum(g, axis=0)
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
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


class TestFlatState:
    def test_training_steps_match_the_per_tensor_reference_bit_for_bit(self):
        """Six steps of forward_train/backward/Adam.step on the flat state equal
        the per-tensor reference in every parameter, moment and running stat."""
        lr = 0.01
        model = init_model(small_spec(hidden=(8, 6)), seed=11)
        reference = init_model(small_spec(hidden=(8, 6)), seed=11)
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in reference.parameters()]
        adam = Adam(model.params, learning_rate=lr)
        rng = np.random.default_rng(11)
        for step in range(1, 7):
            x, y = random_batch(rng, b=16)
            out, cache = model.forward_train(x)
            adam.step(model.params, backward(model, cache, y))
            reference_step(reference, x, y, moments, step, lr)
            for a, b in zip(model.state_arrays(), reference.state_arrays()):
                assert np.array_equal(a, b), f"step {step}"
            assert np.array_equal(adam.first_moment, np.concatenate([m.ravel() for m, _ in moments]))
            assert np.array_equal(adam.second_moment, np.concatenate([v.ravel() for _, v in moments]))

    @pytest.mark.parametrize("source", ["init_model", "load_model"])
    def test_layer_tensors_are_views_into_the_state(self, source, tmp_path):
        model = init_model(small_spec(hidden=(8, 6)), seed=12)
        if source == "load_model":
            save_model(model, tmp_path / "model.txt")
            model = load_model(tmp_path / "model.txt")
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


class TestSerialization:
    def trained_ish_model(self, seed=0):
        model = init_model(small_spec(hidden=(8, 6)), seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(3):  # move parameters and running stats off their defaults
            x, y = random_batch(rng, b=16)
            out, cache = model.forward_train(x)
            Adam(model.params, learning_rate=0.0005).step(model.params, backward(model, cache, y))
        return model

    def test_round_trip_preserves_inference(self, tmp_path):
        model = self.trained_ish_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        probe = np.random.default_rng(9).normal(size=(12, 4))
        assert np.array_equal(model.forward(probe), loaded.forward(probe))
        for a, b in zip(model.state_arrays(), loaded.state_arrays()):
            assert np.array_equal(a, b)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = self.trained_ish_model(seed=3)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_is_a_structured_error(self, tmp_path):
        model = self.trained_ish_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path):
        model = self.trained_ish_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines[0] = "wignernet model v999"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_header_and_tensor_disagreement_rejected(self, tmp_path):
        model = self.trained_ish_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        assert lines[2] == "hidden_dims 8 6"
        lines[2] = "hidden_dims 16 6"  # stored matrices are still 8 wide
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelShapeError):
            load_model(path)
