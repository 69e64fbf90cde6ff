"""Minimal dense-network stack: forward, backprop, losses, Adam, checkpoints.

Everything here runs on plain numpy. Parameters default to float32 with
losses accumulated in float64; float64 networks are supported for
numerical checks (e.g. finite-difference gradient verification).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError

ACTIVATIONS = ("relu", "tanh")
_ACT_TAGS = {"relu": 0, "tanh": 1}
_TAG_ACTS = {v: k for k, v in _ACT_TAGS.items()}

# Bounds for the std head of Gaussian outputs, in normalized units.
SIGMA_MIN = 1e-3
SIGMA_MAX = 5.0

LOG_2PI = math.log(2.0 * math.pi)

# Floor of a normalization std, so constant columns normalize to finite values.
NORM_STD_FLOOR = 1e-6

# Row block of forward: a 256 x 500 float32 activation (512 KB) stays in L2.
FORWARD_BLOCK_ROWS = 256

NET_MAGIC = b"MOPPNN1\x00"


class DenseNet:
    """Fully connected network; activation on hidden layers, linear output."""

    def __init__(self, layer_sizes, activation="relu", rng=None, dtype=np.float32):
        layer_sizes = [int(n) for n in layer_sizes]
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(n <= 0 for n in layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.layer_sizes = layer_sizes
        self.activation = activation
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(rng)
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            limit = math.sqrt(6.0 / (n_in + n_out))
            w = rng.uniform(-limit, limit, size=(n_in, n_out)).astype(self.dtype)
            self.weights.append(w)
            self.biases.append(np.zeros(n_out, dtype=self.dtype))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def params(self):
        """Flat parameter list [W0, b0, W1, b1, ...], aliasing the live arrays."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "DenseNet":
        dup = DenseNet(self.layer_sizes, self.activation, rng=0, dtype=self.dtype)
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        return dup


def column_stats(x: np.ndarray):
    """Per-column float32 mean and std (floored at NORM_STD_FLOOR), accumulated in float64."""
    return (
        x.mean(axis=0, dtype=np.float64).astype(np.float32),
        np.maximum(x.std(axis=0, dtype=np.float64), NORM_STD_FLOOR).astype(np.float32),
    )


def activate(z: np.ndarray, kind: str, out=None) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0, out=out)
    return np.tanh(z, out=out)


def activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(z.dtype)
    t = np.tanh(z)
    return 1 - t * t


def _as_batch(net: DenseNet, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=net.dtype)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(
            f"input shape {x.shape} does not match network input dim {net.input_dim}"
        )
    return x, single


def forward(net: DenseNet, x) -> np.ndarray:
    """Evaluate the network on a vector or a batch of row vectors.

    Rows go through in blocks that start at multiples of FORWARD_BLOCK_ROWS
    (a short tail joins the last block), reusing one activation buffer per
    layer; bias and activation are applied in place.
    """
    xb, single = _as_batch(net, x)
    n, last = xb.shape[0], net.n_layers - 1
    starts = range(0, max(n - FORWARD_BLOCK_ROWS // 2, 1), FORWARD_BLOCK_ROWS)
    rows = min(n, 2 * FORWARD_BLOCK_ROWS)
    bufs = [np.empty((rows, w.shape[1]), np.result_type(xb, w)) for w in net.weights[:-1]]
    out = np.empty((n, net.output_dim), np.result_type(xb, net.weights[-1]))
    for lo, hi in zip(starts, [*starts[1:], n]):
        a = xb[lo:hi]
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            a = np.matmul(a, w, out=out[lo:hi] if i == last else bufs[i][: hi - lo])
            a += b
            if i < last:
                activate(a, net.activation, out=a)
    return out[0] if single else out


def forward_cached(net: DenseNet, x) -> tuple[np.ndarray, tuple]:
    """Forward pass keeping intermediates needed by :func:`backward`."""
    xb, _ = _as_batch(net, x)
    acts = [xb]
    zs = []
    a = xb
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        zs.append(z)
        a = z if i == last else activate(z, net.activation)
        acts.append(a)
    return a, (acts, zs)


def backward(net: DenseNet, cache, d_out: np.ndarray):
    """Backpropagate an output gradient.

    Returns (grads, d_input) where grads aligns with ``net.params()`` and
    d_input is the gradient with respect to the input batch.
    """
    acts, zs = cache
    grads = [None] * (2 * net.n_layers)
    delta = d_out
    d_input = None
    for i in range(net.n_layers - 1, -1, -1):
        grads[2 * i] = acts[i].T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        back = delta @ net.weights[i].T
        if i > 0:
            delta = back * activate_grad(zs[i - 1], net.activation)
        else:
            d_input = back
    return grads, d_input


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # clip keeps exp in range; the transform is flat beyond +-60 anyway
    x = np.clip(x, -60.0, 60.0)
    return 1.0 / (1.0 + np.exp(-x))


def std_from_raw(pre, sigma_min: float = SIGMA_MIN, sigma_max: float = SIGMA_MAX):
    """Smooth positive transform mapping raw head outputs into [sigma_min, sigma_max]."""
    return sigma_min + (sigma_max - sigma_min) * _sigmoid(np.asarray(pre))


def mse_loss_and_grad(y: np.ndarray, target: np.ndarray):
    """Mean over the batch of the per-sample squared-error sum, plus dL/dy."""
    if y.shape != target.shape:
        raise ValueError(f"output shape {y.shape} != target shape {target.shape}")
    batch = y.shape[0]
    diff = y - target
    loss = float(np.sum(diff.astype(np.float64) ** 2)) / batch
    return loss, (2.0 / batch) * diff


def gaussian_loss_and_grad(
    y: np.ndarray,
    target: np.ndarray,
    sigma_min: float = SIGMA_MIN,
    sigma_max: float = SIGMA_MAX,
):
    """Gaussian NLL where the network output packs [means | raw stds].

    ``y`` has 2d columns: the first d are means, the last d pass through
    :func:`std_from_raw`. Returns the batch-mean loss and dL/dy.
    """
    if y.ndim != 2 or y.shape[1] % 2 != 0:
        raise ValueError(f"gaussian head output must have even width, got {y.shape}")
    d = y.shape[1] // 2
    if target.shape != (y.shape[0], d):
        raise ValueError(f"target shape {target.shape} != expected {(y.shape[0], d)}")
    batch = y.shape[0]
    mu = y[:, :d]
    s = _sigmoid(y[:, d:])
    sigma = sigma_min + (sigma_max - sigma_min) * s
    resid = target - mu
    var = sigma * sigma
    per = np.log(sigma) + resid * resid / (2.0 * var) + 0.5 * LOG_2PI
    loss = float(np.sum(per, dtype=np.float64)) / batch
    d_mu = (mu - target) / var / batch
    d_sigma = (1.0 / sigma - resid * resid / (var * sigma)) / batch
    d_pre = d_sigma * (sigma_max - sigma_min) * s * (1.0 - s)
    return loss, np.concatenate([d_mu, d_pre], axis=1)


_LOSSES = ("mse", "gaussian_nll")


def loss_and_grads(
    net: DenseNet,
    x,
    target,
    loss: str = "mse",
    sigma_min: float = SIGMA_MIN,
    sigma_max: float = SIGMA_MAX,
):
    """Mean batch loss and its gradients with respect to every parameter."""
    if loss not in _LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    xb, _ = _as_batch(net, x)
    target = np.asarray(target, dtype=net.dtype)
    if target.ndim == 1:
        target = target[None, :]
    y, cache = forward_cached(net, xb)
    if loss == "mse":
        value, dy = mse_loss_and_grad(y, target)
    else:
        value, dy = gaussian_loss_and_grad(y, target, sigma_min, sigma_max)
    grads, _ = backward(net, cache, dy)
    return value, grads


class AdamState:
    """First/second moment accumulators for an adaptive-moment update."""

    def __init__(self, params, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        if not 0.0 < beta1 < 1.0 or not 0.0 < beta2 < 1.0:
            raise ValueError("moment decay rates must lie in (0, 1)")
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def adam_update(params, grads, state: AdamState) -> None:
    """One adaptive-moment step, updating ``params`` and ``state`` in place."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("parameter / gradient / state length mismatch")
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if p.shape != m.shape:
            raise ValueError("optimizer state shape does not match parameters")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / corr1
        v_hat = v / corr2
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)


def save_net(net: DenseNet, path) -> None:
    """Write the binary checkpoint: magic, sizes, activation tag, float32 params."""
    with open(path, "wb") as f:
        f.write(NET_MAGIC)
        f.write(struct.pack("<I", len(net.layer_sizes)))
        f.write(struct.pack(f"<{len(net.layer_sizes)}I", *net.layer_sizes))
        f.write(struct.pack("<B", _ACT_TAGS[net.activation]))
        for w, b in zip(net.weights, net.biases):
            f.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f4").tobytes())


def load_net(path) -> DenseNet:
    """Read a checkpoint written by :func:`save_net`. Round trip is bit-exact."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as err:
        raise FormatError(f"{path}: cannot read net file ({err.strerror})") from None
    if data[:8] != NET_MAGIC:
        raise FormatError(f"{path}: bad magic at byte offset 0")
    off = 8
    if len(data) < off + 4:
        raise FormatError(f"{path}: truncated header at byte offset {len(data)}")
    (n_sizes,) = struct.unpack_from("<I", data, off)
    off += 4
    if n_sizes < 2:
        raise FormatError(f"{path}: invalid layer count at byte offset 8")
    if len(data) < off + 4 * n_sizes + 1:
        raise FormatError(f"{path}: truncated header at byte offset {len(data)}")
    sizes = list(struct.unpack_from(f"<{n_sizes}I", data, off))
    off += 4 * n_sizes
    (tag,) = struct.unpack_from("<B", data, off)
    off += 1
    if tag not in _TAG_ACTS:
        raise FormatError(f"{path}: unknown activation tag at byte offset {off - 1}")
    net = DenseNet(sizes, _TAG_ACTS[tag], rng=0)
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        need = 4 * n_in * n_out
        if len(data) < off + need:
            raise FormatError(f"{path}: truncated weights at byte offset {len(data)}")
        net.weights[i] = (
            np.frombuffer(data, dtype="<f4", count=n_in * n_out, offset=off)
            .reshape(n_in, n_out)
            .copy()
        )
        off += need
        need = 4 * n_out
        if len(data) < off + need:
            raise FormatError(f"{path}: truncated biases at byte offset {len(data)}")
        net.biases[i] = np.frombuffer(data, dtype="<f4", count=n_out, offset=off).copy()
        off += need
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes at byte offset {off}")
    return net
