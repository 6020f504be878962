"""From-scratch feedforward network: dense layers, ReLU, batch normalization,
exact backpropagation, Adam, and serialization.

The network maps an oscillator.INPUTS row to a STATE row, so its in and out widths
are the row layout's and only the hidden widths are set.  Every hidden block applies
affine -> ReLU -> batch normalization (the paper's enhanced architecture), and the
output layer is a plain affine map.  Batch normalization uses per-batch statistics
with the biased variance while training and running statistics at inference:

    train:  y = xc * (gamma * inv_std) + beta,  xc = x - mean(x),  inv_std = 1 / sqrt(var(x) + eps)
            running <- momentum * running + (1 - momentum) * batch_stat
    infer:  y = x * scale + shift,  scale = gamma / sqrt(running_var + eps),  shift = beta - running_mean * scale,
            both computed once per set of values of eps, gamma, beta and the running statistics

The train-mode backward takes the two column sums dbeta = sum(dy) and
dgamma = inv_std * sum(dy * xc), then

    dx = gamma * inv_std * (dy - dbeta / B - xc * (dgamma * inv_std / B))

An MlpModel is its ArchitectureSpec plus one float64 vector, `state`, laid
out as [parameters | running statistics]: per block the dense weights
(row-major), bias, gamma and beta; the output weights and bias; then
running_mean and running_var per block.  The model sizes `state` from the
spec and builds its layers as views of it, so a layer never owns storage;
`params` is the parameter part.  backward() returns the exact gradient
(differentiated through the batch statistics) in the layout of `params`, as
the model-owned buffer `grad`, which the next call overwrites.  All math is
float64.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .data import _TextReader, _write_text
from .oscillator import INPUTS, STATE

MODEL_FILE_MAGIC = "wignernet model v2"
# Lines 2, 4 and 5 of a model file: the row layout's widths, and every hidden block has batchnorm.
_INPUT_DIM_LINE = f"input_dim {len(INPUTS)}"
_OUTPUT_DIM_LINE = f"output_dim {len(STATE)}"
_BATCHNORM_LINE = "batchnorm 1"

# Batch normalization's fixed hyperparameters (Ioffe & Szegedy, ICML 2015).
BN_MOMENTUM = 0.99
BN_EPSILON = 1e-3

# Inference runs a larger batch in tiles of this many rows: a 1024 x 256 float64
# activation is 2 MiB, the L2 cache of one core.  It is >= 1000, the largest batch
# the stock CLI or validation forwards, so those stay one pass.
INFER_TILE_ROWS = 1024


# Per thread, by hidden widths: MlpModel.forward's tiles, views of two buffers of this
# thread, kept between calls, shared by every model and grown to the largest tile.
_scratch = threading.local()


@dataclass
class ArchitectureSpec:
    """The hidden widths; `dims` adds the row layout's in and out: 4-128-256-256-128-4 by default."""

    hidden_dims: tuple[int, ...] = (128, 256, 256, 128)

    def __post_init__(self):
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if any(d < 1 for d in self.dims):
            raise ValueError(f"hidden_dims and the in and out widths must be >= 1, got {self.dims}")

    @property
    def dims(self) -> tuple[int, ...]:
        return (len(INPUTS), *self.hidden_dims, len(STATE))


class DenseLayer:
    """Affine map y = x W^T + b over weights of shape (out, in) and their bias."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = weights
        self.bias = bias

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        y = np.matmul(x, self.weights.T, out=out)
        y += self.bias
        return y


class BatchNormLayer:
    """Per-feature normalization with learned scale/shift and running statistics,
    over the four per-feature vectors it is given."""

    momentum = BN_MOMENTUM
    epsilon = BN_EPSILON

    def __init__(self, gamma, beta, running_mean, running_var):
        self.gamma, self.beta = gamma, beta
        self.running_mean, self.running_var = running_mean, running_var
        self._affine = None  # (key, scale, shift) of forward_infer, replaced whole

    def forward_train(self, x: np.ndarray):
        """Normalize by batch statistics and update the running ones; returns (y, (xc, inv_std))."""
        # np.add.reduce: the column sums of ndarray.mean and np.sum, minus their Python layer.
        batch = x.shape[0]
        mean = np.add.reduce(x, 0) / batch
        xc = x - mean
        y = xc * xc  # y serves as scratch until the output is written into it
        var = np.add.reduce(y, 0) / batch  # biased, consistent with the backward pass
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        for running, stat in ((self.running_mean, mean), (self.running_var, var)):
            running *= self.momentum
            running += (1.0 - self.momentum) * stat
        np.multiply(xc, self.gamma * inv_std, out=y)
        y += self.beta
        return y, (xc, inv_std)

    def forward_infer(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Normalize with the frozen running statistics into out (x itself, or by default new),
        as the per-feature affine map x * scale + shift: two passes over x.  scale and
        shift are computed once per set of values, kept under a key of epsilon and the
        four vectors' bytes: whatever writes a value changes the key.  The key is read
        before them, so a value written meanwhile misses on the next call."""
        key = (self.epsilon, self.gamma.tobytes(), self.beta.tobytes(),
               self.running_mean.tobytes(), self.running_var.tobytes())
        affine = self._affine
        if affine is None or affine[0] != key:
            scale = self.gamma / np.sqrt(self.running_var + self.epsilon)
            affine = self._affine = (key, scale, self.beta - self.running_mean * scale)
        _, scale, shift = affine
        y = np.multiply(x, scale, out=out)
        y += shift
        return y

    def backward(self, dy: np.ndarray, cache, dgamma: np.ndarray, dbeta: np.ndarray) -> np.ndarray:
        """Gradients through the batch-statistic normalization: writes dgamma
        and dbeta and returns dx, through the batch mean and variance of every row."""
        xc, inv_std = cache
        batch = dy.shape[0]
        scratch = dy * xc
        np.add.reduce(scratch, 0, out=dgamma)
        dgamma *= inv_std
        np.add.reduce(dy, 0, out=dbeta)
        # The module docstring's dx, evaluated in its order.
        dx = dy - dbeta / batch
        dx -= np.multiply(xc, dgamma * inv_std / batch, out=scratch)
        dx *= self.gamma * inv_std
        return dx


@dataclass
class ForwardCache:
    """Intermediates of one train-mode forward pass, consumed by backward()."""

    block_inputs: list[np.ndarray]
    relu_masks: list[np.ndarray]  # 1.0 where the pre-activation is positive, else 0.0
    bn_caches: list[tuple]  # (xc, inv_std) per block: the centred input and 1 / sqrt(var + eps)
    final_input: np.ndarray
    output: np.ndarray


def _views(buffer: np.ndarray, taken: list[np.ndarray]):
    """take(*shape): the view of buffer that follows the views in `taken`, appended to them."""

    def take(*shape: int) -> np.ndarray:
        start = sum(view.size for view in taken)
        taken.append(buffer[start : start + math.prod(shape)].reshape(shape))
        return taken[-1]

    return take


def _layers(spec: ArchitectureSpec, param, stat):
    """The blocks and the output layer, their tensors taken in state order from
    param (parameters) and stat (running statistics)."""
    blocks = [(DenseLayer(param(width, fan_in), param(width)),
               BatchNormLayer(param(width), param(width), stat(width), stat(width)))
              for fan_in, width in zip(spec.dims, spec.hidden_dims)]
    return blocks, DenseLayer(param(spec.dims[-1], spec.dims[-2]), param(spec.dims[-1]))


class MlpModel:
    """Dense -> ReLU -> batchnorm blocks and an affine output layer over one state vector.

    The constructor sizes `state` and `grad` from the spec, zeroed, and builds
    every layer over views of `state`; the same walk over `grad` gives the
    gradient views that backward() writes.  Train-mode forwards mutate
    running statistics and must be serialized by the caller; infer-mode
    forwards write no model state and are thread-safe: each batchnorm keeps a
    memo of its inference affine, replaced whole when its values change.
    """

    def __init__(self, spec: ArchitectureSpec, init_seed: int):
        self.spec = spec
        self.init_seed = init_seed
        dims = spec.dims
        n_stats = 2 * sum(spec.hidden_dims)  # as many as gamma and beta
        n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:])) + n_stats
        # From a 64-byte line wherever the heap puts it: then no SIMD load of a weight
        # row splits a cache line, which costs 10 % of a one-row forward.
        raw = np.zeros(n_params + n_stats + 7)
        self.state = raw[-raw.ctypes.data % 64 // 8 :][: n_params + n_stats]
        self.params = self.state[:n_params]
        self.grad = np.zeros(n_params)
        self._tensors = param, stat = [], []  # the views of params, then of the statistics
        self.blocks, self.output_layer = _layers(
            spec, _views(self.params, param), _views(self.state[n_params:], stat)
        )
        # Running statistics have no gradient: the gradient walk takes theirs from scratch.
        self._grad_layers = _layers(spec, _views(self.grad, []), _views(np.empty(n_stats), []))

    def _batch(self, x) -> np.ndarray:
        """x as a float64 batch of INPUTS rows, of shape (B, len(INPUTS))."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != len(INPUTS):
            raise ValueError(f"batch must have shape (B, {len(INPUTS)}), got {x.shape}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference pass: running statistics, no state change.  A batch of more
        than INFER_TILE_ROWS rows is forwarded one tile of that many rows at a time.
        Block i's activation goes to this thread's tiles[i]: only the output is new."""
        x = self._batch(x)
        rows, widths = min(x.shape[0], INFER_TILE_ROWS), self.spec.hidden_dims
        tiles = vars(_scratch).get(widths)
        if not tiles or rows > len(tiles[0]):
            buffers = np.empty((2, rows * max(widths, default=0)))
            tiles = vars(_scratch)[widths] = [buffers[i % 2, : rows * width].reshape(rows, width)
                                              for i, width in enumerate(widths)]
        if x.shape[0] <= INFER_TILE_ROWS:
            return self._infer(x, tiles)
        out = np.empty((x.shape[0], len(STATE)))
        for start in range(0, x.shape[0], INFER_TILE_ROWS):
            tile = slice(start, start + INFER_TILE_ROWS)
            out[tile] = self._infer(x[tile], tiles)
        return out

    def _infer(self, x: np.ndarray, tiles: list[np.ndarray]) -> np.ndarray:
        """The inference pass over one tile, through `tiles`; only its output is a new array."""
        for (dense, bn), tile in zip(self.blocks, tiles):
            x = dense.forward(x, out=tile[: len(x)])
            bn.forward_infer(np.maximum(x, 0.0, out=x), out=x)
        return self.output_layer.forward(x)

    def forward_train(self, x: np.ndarray):
        """Training pass with batch statistics; returns (output, cache).

        Batches of a single row are rejected when the model has a hidden
        block: the batch variance of one sample is degenerate.
        """
        x = self._batch(x)
        if x.shape[0] < 2 and self.blocks:
            raise ValueError(f"train-mode batch must have >= 2 rows with batchnorm, got {x.shape[0]}")
        block_inputs, relu_masks, bn_caches = [], [], []
        for dense, bn in self.blocks:
            block_inputs.append(x)
            z = dense.forward(x)
            relu_masks.append(np.greater(z, 0.0, out=np.empty_like(z)))
            x, cache = bn.forward_train(np.maximum(z, 0.0, out=z))
            bn_caches.append(cache)
        out = self.output_layer.forward(x)
        return out, ForwardCache(block_inputs, relu_masks, bn_caches, x, out)

    def parameters(self) -> list[np.ndarray]:
        """Trainable tensors, as views into params in its order."""
        return list(self._tensors[0])

    def state_arrays(self) -> list[np.ndarray]:
        """Parameters plus batchnorm running statistics, as views into state."""
        return self._tensors[0] + self._tensors[1]

    def snapshot(self) -> np.ndarray:
        return self.state.copy()

    def restore(self, snap: np.ndarray) -> None:
        if snap.shape != self.state.shape:
            raise ValueError(f"snapshot has shape {snap.shape}, expected {self.state.shape}")
        self.state[...] = snap


def init_model(spec: ArchitectureSpec, seed: int) -> MlpModel:
    """Glorot-uniform dense weights, zero biases, identity batchnorm."""
    model = MlpModel(spec, init_seed=seed)
    rng = np.random.default_rng(seed)
    for dense in [dense for dense, _ in model.blocks] + [model.output_layer]:
        fan_out, fan_in = dense.weights.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        dense.weights[...] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
    for _, bn in model.blocks:
        bn.gamma[...] = bn.running_var[...] = 1.0
    return model


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

    grad_blocks, grad_out = model._grad_layers
    _dense_grad(g, cache.final_input, grad_out)
    g = g @ model.output_layer.weights
    for i in range(len(model.blocks) - 1, -1, -1):
        (dense, bn), (grad_dense, grad_bn) = model.blocks[i], grad_blocks[i]
        g = bn.backward(g, cache.bn_caches[i], grad_bn.gamma, grad_bn.beta)
        g *= cache.relu_masks[i]
        _dense_grad(g, cache.block_inputs[i], grad_dense)
        if i:  # block 0's input gradient would be the data's
            g = g @ dense.weights
    return model.grad


def _dense_grad(g: np.ndarray, layer_input: np.ndarray, grad: DenseLayer) -> None:
    """A dense layer's weight gradient and bias sum from its output gradient g,
    written into the views `grad` holds."""
    np.matmul(g.T, layer_input, out=grad.weights)
    np.add.reduce(g, 0, out=grad.bias)


class Adam:
    """Adam with bias correction over one parameter array; epsilon is added
    outside the square root.  lr * (m / bc1) / (sqrt(v / bc2) + eps) is taken in the
    folded form alpha * m / (sqrt(v) + eps_hat), alpha = lr * sqrt(bc2) / bc1 and
    eps_hat = eps * sqrt(bc2) (Kingma & Ba, ICLR 2015, Sec. 2).
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-7

    def __init__(self, params: np.ndarray, learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.first_moment = np.zeros_like(params)
        self.second_moment = np.zeros_like(params)
        self._scratch = np.empty_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One update of params, in place."""
        if params.shape != self.first_moment.shape or grads.shape != params.shape:
            raise ValueError(
                f"expected shape {self.first_moment.shape}, got {params.shape} and {grads.shape}"
            )
        self.step_count += 1
        root_bc2 = math.sqrt(1.0 - self.BETA2**self.step_count)
        alpha = self.learning_rate * root_bc2 / (1.0 - self.BETA1**self.step_count)
        eps_hat = self.EPSILON * root_bc2
        m, v, s = self.first_moment, self.second_moment, self._scratch
        m *= self.BETA1
        m += np.multiply(grads, 1.0 - self.BETA1, out=s)
        v *= self.BETA2
        np.multiply(grads, grads, out=s)
        s *= 1.0 - self.BETA2
        v += s
        # p -= alpha * m / (sqrt(v) + eps_hat), as m / (sqrt(v) + eps_hat) times alpha.
        np.sqrt(v, out=s)
        s += eps_hat
        np.divide(m, s, out=s)
        s *= alpha
        params -= s


def save_model(model: MlpModel, path) -> None:
    """Model format v2: nine text lines, the last `state <n>`, then the n values of
    model.state as little-endian float64 bytes, bit for bit."""
    dims = " ".join(str(d) for d in model.spec.hidden_dims)
    _write_text(path, [MODEL_FILE_MAGIC, _INPUT_DIM_LINE, f"hidden_dims {dims}",
                       _OUTPUT_DIM_LINE, _BATCHNORM_LINE, f"init_seed {model.init_seed}",
                       ("momentum", [BN_MOMENTUM]), ("epsilon", [BN_EPSILON]), f"state {model.state.size}"])
    with open(path, "ab") as fh:
        fh.write(model.state.astype("<f8").tobytes())


def load_model(path) -> MlpModel:
    """Read a file written by save_model; every value of state is restored bit-exactly.

    The text lines must be those save_model writes for their hidden widths, momentum
    and epsilon equal in value, and exactly n finite values must follow `state <n>`;
    anything else raises FormatError naming the line.
    """
    with open(path, "rb") as fh:  # the nine text lines, each up to its newline, then the state
        head, payload = [fh.readline() for _ in range(9)], fh.read()
    lines = [line.decode("utf-8", "replace").rstrip("\r\n") for line in head if line]
    reader = _TextReader(path, lines)
    reader.line(MODEL_FILE_MAGIC)
    reader.line(_INPUT_DIM_LINE)
    with reader.group():
        spec = ArchitectureSpec(hidden_dims=reader.values("hidden_dims", kind=int))
    reader.line(_OUTPUT_DIM_LINE)
    reader.line(_BATCHNORM_LINE)
    model = MlpModel(spec, init_seed=reader.value("init_seed", int))
    for label, constant in (("momentum", BN_MOMENTUM), ("epsilon", BN_EPSILON)):
        if (value := reader.value(label)) != constant:
            reader.fail(f"{label} must be {constant}, got {value}")
    n = model.state.size
    reader.line(f"state {n}")
    if len(payload) != 8 * n:
        reader.fail(f"expected {8 * n} bytes of state after it, got {len(payload)}")
    model.state[...] = np.frombuffer(payload, "<f8")
    if not np.isfinite(model.state).all():
        reader.fail(f"non-finite value at state[{int(np.argmin(np.isfinite(model.state)))}]")
    return model
