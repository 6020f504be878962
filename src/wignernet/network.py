"""From-scratch feedforward network: dense layers, ReLU, batch normalization,
exact backpropagation, Adam, and text serialization.

Each hidden block applies affine -> ReLU -> batch normalization (activation
belongs to the dense layer; normalization follows it), and the output layer
is a plain affine map.  Batch normalization uses per-batch statistics with
the biased variance while training and running statistics at inference:

    train:  y = gamma * (x - mean(x)) / sqrt(var(x) + eps) + beta
            running <- momentum * running + (1 - momentum) * batch_stat
    infer:  y = gamma * (x - running_mean) / sqrt(running_var + eps) + beta

An MlpModel keeps its state in one float64 vector, `state`, laid out as
[parameters | running statistics]: per block the dense weights (row-major),
bias, and with batchnorm gamma and beta; the output weights and bias; then
running_mean and running_var per batchnorm block.  Every layer tensor is a
view into it; `params` is the parameter part.  backward() returns the exact
gradient (differentiated through the batch statistics) in the layout of
`params`, as a view of a model-owned buffer that the next call overwrites.
All math is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _TextReader, _write_text

MODEL_FILE_MAGIC = "wignernet model v1"

BN_MOMENTUM = 0.99
BN_EPSILON = 1e-3


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed."""


class ModelVersionError(ModelFormatError):
    """Raised when a model file declares an unknown format version."""


class ModelShapeError(ModelFormatError):
    """Raised when stored tensors disagree with the declared architecture."""


@dataclass
class ArchitectureSpec:
    """Layer widths and options; the defaults give 4-128-256-256-128-4."""

    input_dim: int = 4
    hidden_dims: tuple[int, ...] = (128, 256, 256, 128)
    output_dim: int = 4
    batchnorm: bool = True

    def __post_init__(self):
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"all layer widths must be >= 1, got {dims}")


class DenseLayer:
    """Affine map y = x W^T + b with weights of shape (out, in)."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"inconsistent dense shapes: weights {self.weights.shape}, bias {self.bias.shape}"
            )

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights.T + self.bias


class BatchNormLayer:
    """Per-feature normalization with learned scale/shift and running statistics."""

    def __init__(self, width: int, momentum: float = BN_MOMENTUM, epsilon: float = BN_EPSILON):
        if not 0.0 < momentum < 1.0:
            raise ValueError(f"momentum must lie in (0, 1), got {momentum}")
        if not epsilon >= 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
        self.gamma = np.ones(width)
        self.beta = np.zeros(width)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.momentum = momentum
        self.epsilon = epsilon

    @property
    def width(self) -> int:
        return self.gamma.shape[0]

    def forward_train(self, x: np.ndarray, update_running: bool = True):
        """Normalize with batch statistics; returns (y, cache for backward)."""
        # np.add.reduce: the column sums of ndarray.mean and np.sum, minus their Python layer.
        batch = x.shape[0]
        mean = np.add.reduce(x, 0) / batch
        xhat = x - mean
        y = xhat * xhat  # y serves as scratch until the output is written into it
        var = np.add.reduce(y, 0) / batch  # biased, consistent with the backward pass
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        xhat *= inv_std
        if update_running:
            for running, stat in ((self.running_mean, mean), (self.running_var, var)):
                running *= self.momentum
                running += (1.0 - self.momentum) * stat
        np.multiply(xhat, self.gamma, out=y)
        y += self.beta
        return y, (xhat, inv_std)

    def forward_infer(self, x: np.ndarray) -> np.ndarray:
        """Normalize with the frozen running statistics (pure function)."""
        inv_std = 1.0 / np.sqrt(self.running_var + self.epsilon)
        return self.gamma * (x - self.running_mean) * inv_std + self.beta

    def backward(self, dy: np.ndarray, cache, dgamma: np.ndarray, dbeta: np.ndarray) -> np.ndarray:
        """Gradients through the batch-statistic normalization: writes dgamma
        and dbeta and returns dx, through the batch mean and variance of every row.
        """
        xhat, inv_std = cache
        batch = dy.shape[0]
        scratch = dy * xhat
        np.add.reduce(scratch, 0, out=dgamma)
        np.add.reduce(dy, 0, out=dbeta)
        # dx = (inv_std / batch) * (batch * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
        # evaluated in that order, with dxhat = dy * gamma.
        dx = dy * self.gamma
        dxhat_sum = np.add.reduce(dx, 0)
        np.multiply(dx, xhat, out=scratch)
        np.multiply(xhat, np.add.reduce(scratch, 0), out=scratch)
        dx *= batch
        dx -= dxhat_sum
        dx -= scratch
        dx *= inv_std / batch
        return dx


@dataclass
class ForwardCache:
    """Intermediates of one train-mode forward pass, consumed by backward()."""

    block_inputs: list[np.ndarray]
    relu_masks: list[np.ndarray]  # 1.0 where the pre-activation is positive, else 0.0
    bn_caches: list[tuple | None]
    final_input: np.ndarray
    output: np.ndarray


class MlpModel:
    """Dense/ReLU/batchnorm stack with architecture metadata.

    The constructor copies every layer tensor into `state` and rebinds the
    layers' attributes to views into it.  Train-mode forwards mutate running
    statistics and must be serialized by the caller; infer-mode forwards are
    read-only and thread-safe.
    """

    def __init__(
        self,
        spec: ArchitectureSpec,
        blocks: list[tuple[DenseLayer, BatchNormLayer | None]],
        output_layer: DenseLayer,
        init_seed: int,
    ):
        self.spec = spec
        self.blocks = blocks
        self.output_layer = output_layer
        self.init_seed = init_seed
        self._check_dims()
        params, stats = self._slots()
        tensors = [getattr(*slot) for slot in params + stats]
        self.state = np.concatenate([t.ravel() for t in tensors])
        self.params = self.state[: sum(t.size for t in tensors[: len(params)])]
        self.grad = np.zeros_like(self.params)
        self._grads = {}  # (layer, attribute) -> its block of self.grad, for backward()
        offset = 0
        for slot, t in zip(params + stats, tensors):
            setattr(*slot, self.state[offset : offset + t.size].reshape(t.shape))
            if offset < self.grad.size:
                self._grads[slot] = self.grad[offset : offset + t.size].reshape(t.shape)
            offset += t.size

    def _check_dims(self):
        dims = (self.spec.input_dim, *self.spec.hidden_dims, self.spec.output_dim)
        layers = [dense for dense, _ in self.blocks] + [self.output_layer]
        if len(layers) != len(dims) - 1:
            raise ModelShapeError(
                f"expected {len(dims) - 1} dense layers for dims {dims}, got {len(layers)}"
            )
        for i, layer in enumerate(layers):
            expected = (dims[i + 1], dims[i])
            if layer.weights.shape != expected:
                raise ModelShapeError(
                    f"dense layer {i} has shape {layer.weights.shape}, expected {expected}"
                )
        for i, (_, bn) in enumerate(self.blocks):
            if bn is not None and bn.width != dims[i + 1]:
                raise ModelShapeError(
                    f"batchnorm {i} has width {bn.width}, expected {dims[i + 1]}"
                )

    def _slots(self) -> tuple[list[tuple[object, str]], list[tuple[object, str]]]:
        """(layer, attribute) of every parameter and running statistic, in state order."""
        params, stats = [], []
        for dense, bn in self.blocks:
            params += [(dense, "weights"), (dense, "bias")]
            if bn is not None:
                params += [(bn, "gamma"), (bn, "beta")]
                stats += [(bn, "running_mean"), (bn, "running_var")]
        params += [(self.output_layer, "weights"), (self.output_layer, "bias")]
        return params, stats

    def _batch(self, x) -> np.ndarray:
        """x as a float64 batch of shape (B, input_dim)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ValueError(f"batch must have shape (B, {self.spec.input_dim}), got {x.shape}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference pass: running statistics, no state change."""
        x = self._batch(x)
        for dense, bn in self.blocks:
            x = np.maximum(dense.forward(x), 0.0)
            if bn is not None:
                x = bn.forward_infer(x)
        return self.output_layer.forward(x)

    def forward_train(self, x: np.ndarray, update_running: bool = True):
        """Training pass with batch statistics; returns (output, cache).

        Batches of a single row are rejected when batchnorm is present:
        the batch variance of one sample is degenerate.
        """
        x = self._batch(x)
        if x.shape[0] < 2 and any(bn is not None for _, bn in self.blocks):
            raise ValueError(
                f"train-mode batch must have >= 2 rows with batchnorm, got {x.shape[0]}"
            )
        block_inputs, relu_masks, bn_caches = [], [], []
        for dense, bn in self.blocks:
            block_inputs.append(x)
            z = dense.forward(x)
            relu_masks.append(np.greater(z, 0.0, out=np.empty_like(z)))
            x = np.maximum(z, 0.0, out=z)
            cache = None
            if bn is not None:
                x, cache = bn.forward_train(x, update_running=update_running)
            bn_caches.append(cache)
        out = self.output_layer.forward(x)
        return out, ForwardCache(block_inputs, relu_masks, bn_caches, x, out)

    def parameters(self) -> list[np.ndarray]:
        """Trainable tensors, as views into params in its order."""
        return [getattr(*slot) for slot in self._slots()[0]]

    def state_arrays(self) -> list[np.ndarray]:
        """Parameters plus batchnorm running statistics, as views into state."""
        params, stats = self._slots()
        return [getattr(*slot) for slot in params + stats]

    def snapshot(self) -> np.ndarray:
        return self.state.copy()

    def restore(self, snap: np.ndarray) -> None:
        if snap.shape != self.state.shape:
            raise ValueError(f"snapshot has shape {snap.shape}, expected {self.state.shape}")
        self.state[...] = snap


def init_model(spec: ArchitectureSpec, seed: int) -> MlpModel:
    """Glorot-uniform dense weights, zero biases, identity batchnorm."""
    rng = np.random.default_rng(seed)
    dims = (spec.input_dim, *spec.hidden_dims, spec.output_dim)

    def glorot(fan_out: int, fan_in: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_out, fan_in))

    blocks = []
    for i, width in enumerate(spec.hidden_dims):
        dense = DenseLayer(glorot(width, dims[i]), np.zeros(width))
        bn = BatchNormLayer(width) if spec.batchnorm else None
        blocks.append((dense, bn))
    output_layer = DenseLayer(glorot(spec.output_dim, dims[-2]), np.zeros(spec.output_dim))
    return MlpModel(spec, blocks, output_layer, init_seed=seed)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean of squared differences over every entry of the batch."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    return float(np.mean((pred - target) ** 2))


def backward(model: MlpModel, cache: ForwardCache, target: np.ndarray) -> np.ndarray:
    """Exact gradient of mse_loss w.r.t. model.params, returned as model.grad,
    which the next call overwrites."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != cache.output.shape:
        raise ValueError(
            f"target shape {target.shape} does not match cached output {cache.output.shape}"
        )
    g = 2.0 * (cache.output - target) / cache.output.size

    grads = model._grads
    out = model.output_layer
    np.matmul(g.T, cache.final_input, out=grads[out, "weights"])
    np.add.reduce(g, 0, out=grads[out, "bias"])
    g = g @ out.weights

    for i in range(len(model.blocks) - 1, -1, -1):
        dense, bn = model.blocks[i]
        if bn is not None:
            g = bn.backward(g, cache.bn_caches[i], grads[bn, "gamma"], grads[bn, "beta"])
        g *= cache.relu_masks[i]
        np.matmul(g.T, cache.block_inputs[i], out=grads[dense, "weights"])
        np.add.reduce(g, 0, out=grads[dense, "bias"])
        if i:  # block 0's input gradient would be the data's
            g = g @ dense.weights
    return model.grad


class Adam:
    """Adam with bias correction over one parameter array; epsilon is added
    outside the square root."""

    def __init__(
        self,
        params: np.ndarray,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-7,
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.first_moment = np.zeros_like(params)
        self.second_moment = np.zeros_like(params)
        self._scratch = (np.empty_like(params), np.empty_like(params))

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One update of params, in place."""
        if params.shape != self.first_moment.shape or grads.shape != params.shape:
            raise ValueError(
                f"expected shape {self.first_moment.shape}, got {params.shape} and {grads.shape}"
            )
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        m, v = self.first_moment, self.second_moment
        s, t = self._scratch
        m *= self.beta1
        m += np.multiply(grads, 1.0 - self.beta1, out=s)
        v *= self.beta2
        np.multiply(grads, grads, out=s)
        s *= 1.0 - self.beta2
        v += s
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in that order.
        np.divide(m, bc1, out=s)
        s *= self.learning_rate
        np.sqrt(np.divide(v, bc2, out=t), out=t)
        t += self.epsilon
        s /= t
        params -= s


# Per-feature batchnorm vectors, in the order a model file lists them.
_BN_VECTORS = ("gamma", "beta", "running_mean", "running_var")


def save_model(model: MlpModel, path) -> None:
    """Self-describing text container; 17 significant digits round-trip floats."""
    _write_text(path, _model_lines(model))


def _model_lines(model: MlpModel):
    spec = model.spec
    yield MODEL_FILE_MAGIC
    yield f"input_dim {spec.input_dim}"
    yield "hidden_dims " + " ".join(str(d) for d in spec.hidden_dims)
    yield f"output_dim {spec.output_dim}"
    yield f"batchnorm {int(spec.batchnorm)}"
    yield f"init_seed {model.init_seed}"
    for i, (dense, bn) in enumerate(model.blocks):
        yield f"block {i} dense {dense.weights.shape[0]} {dense.weights.shape[1]}"
        yield from (("w", row) for row in dense.weights)
        yield ("b", dense.bias)
        if bn is not None:
            yield f"block {i} batchnorm {bn.width}"
            yield ("momentum", [bn.momentum])
            yield ("epsilon", [bn.epsilon])
            yield from ((name, getattr(bn, name)) for name in _BN_VECTORS)
    out = model.output_layer
    yield f"output dense {out.weights.shape[0]} {out.weights.shape[1]}"
    yield from (("w", row) for row in out.weights)
    yield ("b", out.bias)
    yield "end"


def load_model(path) -> MlpModel:
    """Parse a file written by save_model; every parameter is restored bit-exactly.

    Each `block i dense r c`, `block i batchnorm w` and `output dense r c`
    line must declare the shape the architecture lines imply.
    """
    reader = _TextReader(path, ModelFormatError)
    reader.line(MODEL_FILE_MAGIC, error=ModelVersionError)
    spec = ArchitectureSpec(
        input_dim=reader.value("input_dim", int),
        hidden_dims=reader.values("hidden_dims", kind=int),
        output_dim=reader.value("output_dim", int),
        batchnorm=bool(reader.value("batchnorm", int)),
    )
    init_seed = reader.value("init_seed", int)
    dims = (spec.input_dim, *spec.hidden_dims)

    def shape_line(label: str, shape: tuple[int, ...]) -> None:
        stored = tuple(reader.values(label, len(shape), int).tolist())
        if stored != shape:
            reader.fail(f"shape {stored}, the architecture implies {shape}", error=ModelShapeError)

    def dense(label: str, rows: int, cols: int) -> DenseLayer:
        shape_line(label, (rows, cols))
        weights = [reader.values("w", cols, error=ModelShapeError) for _ in range(rows)]
        return DenseLayer(np.array(weights), reader.values("b", rows, error=ModelShapeError))

    blocks: list[tuple[DenseLayer, BatchNormLayer | None]] = []
    for i, width in enumerate(spec.hidden_dims):
        block = dense(f"block {i} dense", width, dims[i])
        bn = None
        if spec.batchnorm:
            shape_line(f"block {i} batchnorm", (width,))
            bn = BatchNormLayer(
                width, momentum=reader.value("momentum"), epsilon=reader.value("epsilon")
            )
            for name in _BN_VECTORS:
                setattr(bn, name, reader.values(name, width, error=ModelShapeError))
        blocks.append((block, bn))
    output_layer = dense("output dense", spec.output_dim, dims[-1])
    reader.line("end")
    reader.done()
    return MlpModel(spec, blocks, output_layer, init_seed=init_seed)
