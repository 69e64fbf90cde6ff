"""Minimal dense-network stack: forward, backprop, losses, Adam, checkpoints.

Everything here runs on plain numpy. Parameters default to float32 with
losses accumulated in float64; float64 networks are supported for
numerical checks (e.g. finite-difference gradient verification).
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import FormatError

ACTIVATIONS = ("relu", "tanh")
_ACT_TAGS = {"relu": 0, "tanh": 1}
_TAG_ACTS = {v: k for k, v in _ACT_TAGS.items()}

# Bounds for the std head of Gaussian outputs, in normalized units.
SIGMA_MIN = 1e-3
SIGMA_MAX = 5.0

# Adam's moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

LOG_2PI = math.log(2.0 * math.pi)

# Floor of a normalization std, so constant columns normalize to finite values.
NORM_STD_FLOOR = 1e-6

# Row block of forward: a 256 x 500 float32 activation (512 KB) stays in L2.
FORWARD_BLOCK_ROWS = 256

# Least multiply-adds per task for a map to use the pool (about 0.3 ms of sgemm);
# shorter tasks cost more in thread handoffs than the second core gains.
POOL_MIN_MACS = 1 << 24

# Elements per pooled Adam task; an element costs about as much as 256 sgemm
# multiply-adds (3.7-10.5 ns against 0.019 ns on a 2-vCPU x86_64 VM).
ADAM_CHUNK = 1 << 17

NET_MAGIC = b"MOPPNN1\x00"


def _worker_count() -> int:
    """Usable CPUs over BLAS threads: the first positive integer of these variables, else every CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        text = os.environ.get(var, "").strip()
        if text.isdigit() and int(text) > 0:
            return max(1, cpus // int(text))
    return 1


_workers = _worker_count()  # the pool size; BLAS reads its variables when numpy loads, before this
_pools = {}
_pool_lock = threading.Lock()
_in_task = threading.local()
if hasattr(os, "register_at_fork"):  # a forked child has none of the pools' threads
    os.register_at_fork(after_in_child=_pools.clear)


def _macs(nets, rows) -> int:
    """Multiply-adds of a forward pass of each of ``nets`` over ``rows`` rows."""
    return rows * sum(w.size for net in nets for w in net.weights)


def _pool_map(fn, items, macs) -> list:
    """``[fn(x) for x in items]``, shared between this thread and a pool when there are 2+ workers.

    ``macs`` is the work of one task in multiply-adds; below POOL_MIN_MACS the map runs
    inline, as does a map inside a task. Otherwise each worker, this thread included, takes
    the next untaken item until none is left, so a slow worker takes fewer. A task's
    exception reaches the caller unchanged. Callers map independent tasks and combine the
    results in a fixed order, so outputs do not depend on the pool.
    """
    if _workers < 2 or len(items) < 2 or macs < POOL_MIN_MACS or getattr(_in_task, "flag", False):
        return [fn(x) for x in items]
    with _pool_lock:
        if _workers not in _pools:
            _pools[_workers] = ThreadPoolExecutor(_workers - 1, "mopp", lambda: setattr(_in_task, "flag", True))
        pool = _pools[_workers]
    todo, out = iter(range(len(items))), [None] * len(items)  # next() on a range iterator is atomic

    def drain():
        for i in todo:
            out[i] = fn(items[i])

    futures = [pool.submit(drain) for _ in range(min(_workers, len(items)) - 1)]
    _in_task.flag = True
    try:
        drain()
    finally:
        _in_task.flag = False
        wait(futures)
    for f in futures:
        f.result()
    return out


class DenseNet:
    """Fully connected network; activation on hidden layers, linear output."""

    def __init__(self, layer_sizes, activation="relu", rng=None, dtype=np.float32):
        self._set_layout(layer_sizes, activation, dtype)
        rng = np.random.default_rng(rng)
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            limit = math.sqrt(6.0 / (n_in + n_out))
            w = rng.uniform(-limit, limit, size=(n_in, n_out)).astype(self.dtype)
            self.weights.append(w)
            self.biases.append(np.zeros(n_out, dtype=self.dtype))

    def _set_layout(self, layer_sizes, activation, dtype) -> None:
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

    @classmethod
    def from_params(cls, weights, biases, activation="relu") -> "DenseNet":
        """A net holding the arrays ``weights`` and ``biases`` themselves; sizes follow from their shapes."""
        net = cls.__new__(cls)
        net._set_layout([weights[0].shape[0], *(w.shape[1] for w in weights)], activation, weights[0].dtype)
        net.weights, net.biases = list(weights), list(biases)
        return net

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
        return DenseNet.from_params(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases], self.activation
        )


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


def _as_batch(net: DenseNet, x) -> np.ndarray:
    x = np.asarray(x, dtype=net.dtype)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(
            f"input shape {x.shape} does not match network input dim {net.input_dim}"
        )
    return x


def _row_spans(n: int) -> list:
    """(lo, hi) row blocks that start at multiples of FORWARD_BLOCK_ROWS; a short tail joins the last."""
    starts = range(0, max(n - FORWARD_BLOCK_ROWS // 2, 1), FORWARD_BLOCK_ROWS)
    return list(zip(starts, [*starts[1:], n]))


def forward(net: DenseNet, x) -> np.ndarray:
    """Evaluate the network on a batch of row vectors.

    Rows go through in the blocks of :func:`_row_spans`, on the worker pool;
    each block has its own activation buffer per layer, and bias and
    activation are applied in place.
    """
    xb = _as_batch(net, x)
    n, last = xb.shape[0], net.n_layers - 1
    out = np.empty((n, net.output_dim), np.result_type(xb, net.weights[-1]))

    def block(lo_hi):
        lo, hi = lo_hi
        a = xb[lo:hi]
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            buf = out[lo:hi] if i == last else np.empty((hi - lo, w.shape[1]), np.result_type(xb, w))
            a = np.matmul(a, w, out=buf)
            a += b
            if i < last:
                activate(a, net.activation, out=a)

    _pool_map(block, _row_spans(n), _macs([net], FORWARD_BLOCK_ROWS))
    return out


def forward_cached(net: DenseNet, x) -> tuple[np.ndarray, tuple]:
    """Forward pass keeping intermediates needed by :func:`backward`, in the row blocks of :func:`forward`."""
    xb = _as_batch(net, x)
    last = net.n_layers - 1
    zs = [np.empty((len(xb), w.shape[1]), np.result_type(xb, w)) for w in net.weights]
    acts = [xb, *(np.empty_like(z) for z in zs[:-1]), zs[-1]]

    def block(lo_hi):
        lo, hi = lo_hi
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = np.matmul(acts[i][lo:hi], w, out=zs[i][lo:hi])
            z += b
            if i < last:
                activate(z, net.activation, out=acts[i + 1][lo:hi])

    _pool_map(block, _row_spans(len(xb)), _macs([net], FORWARD_BLOCK_ROWS))
    return zs[-1], (acts, zs)


def backward(net: DenseNet, cache, d_out: np.ndarray, input_grad: bool = True):
    """Backpropagate an output gradient.

    Returns (grads, d_input) where grads aligns with ``net.params()`` and
    d_input is the gradient with respect to the input batch, or None when
    ``input_grad`` is False. A layer's weight and input gradients are two
    pool tasks.
    """
    acts, zs = cache
    grads = [None] * (2 * net.n_layers)
    delta = d_out
    d_input = None
    for i in range(net.n_layers - 1, -1, -1):
        w, a = net.weights[i], acts[i]
        products = (lambda: a.T @ delta, lambda: delta @ w.T)[: 2 if i or input_grad else 1]
        grads[2 * i], *back = _pool_map(lambda f: f(), products, w.size * len(delta))
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            delta = back[0] * activate_grad(zs[i - 1], net.activation)
        elif back:
            d_input = back[0]
    return grads, d_input


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # clip keeps exp in range; the transform is flat beyond +-60 anyway
    x = np.clip(x, -60.0, 60.0)
    return 1.0 / (1.0 + np.exp(-x))


def std_from_raw(pre):
    """Smooth positive transform mapping raw head outputs into [SIGMA_MIN, SIGMA_MAX]."""
    return SIGMA_MIN + (SIGMA_MAX - SIGMA_MIN) * _sigmoid(np.asarray(pre))


def mse_loss_and_grad(y: np.ndarray, target: np.ndarray):
    """Mean over the batch of the per-sample squared-error sum, plus dL/dy."""
    if y.shape != target.shape:
        raise ValueError(f"output shape {y.shape} != target shape {target.shape}")
    batch = y.shape[0]
    diff = y - target
    loss = float(np.sum(diff.astype(np.float64) ** 2)) / batch
    return loss, (2.0 / batch) * diff


def gaussian_loss_and_grad(y: np.ndarray, target: np.ndarray):
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
    sigma = SIGMA_MIN + (SIGMA_MAX - SIGMA_MIN) * s
    resid = target - mu
    var = sigma * sigma
    per = np.log(sigma) + resid * resid / (2.0 * var) + 0.5 * LOG_2PI
    loss = float(np.sum(per, dtype=np.float64)) / batch
    d_mu = (mu - target) / var / batch
    d_sigma = (1.0 / sigma - resid * resid / (var * sigma)) / batch
    d_pre = d_sigma * (SIGMA_MAX - SIGMA_MIN) * s * (1.0 - s)
    return loss, np.concatenate([d_mu, d_pre], axis=1)


_LOSSES = ("mse", "gaussian_nll")


def loss_and_grads(net: DenseNet, x, target, loss: str = "mse"):
    """Mean batch loss and its gradients with respect to every parameter."""
    if loss not in _LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    y, cache = forward_cached(net, x)
    target = np.asarray(target, dtype=net.dtype)
    if loss == "mse":
        value, dy = mse_loss_and_grad(y, target)
    else:
        value, dy = gaussian_loss_and_grad(y, target)
    grads, _ = backward(net, cache, dy, input_grad=False)
    return value, grads


class AdamState:
    """First/second moment accumulators for an adaptive-moment update."""

    def __init__(self, params, learning_rate=1e-3):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = float(learning_rate)
        self.step = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def adam_update(params, grads, state: AdamState) -> None:
    """One adaptive-moment step, updating ``params`` and ``state`` in place.

    The update is elementwise, so it runs on the pool in ADAM_CHUNK-element
    ranges of the parameters taken end to end; a parameter cut by a range
    boundary is updated through slices of its flat view.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("parameter / gradient / state length mismatch")
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if p.shape != m.shape:
            raise ValueError("optimizer state shape does not match parameters")
        if not (p.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise ValueError("parameters and optimizer state must be C-contiguous")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    quads = list(zip(params, grads, state.m, state.v))
    starts = [0, *itertools.accumulate(p.size for p in params)]

    def chunk(lo):
        for arrays, start, end in zip(quads, starts, starts[1:]):
            a, b = max(lo, start) - start, min(lo + ADAM_CHUNK, end) - start
            if a >= b:
                continue
            p, g, m, v = arrays if b - a == end - start else (x.reshape(-1)[a:b] for x in arrays)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / corr1
            v_hat = v / corr2
            p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    _pool_map(chunk, range(0, starts[-1], ADAM_CHUNK), 256 * ADAM_CHUNK)


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
    if 0 in sizes:
        raise FormatError(f"{path}: zero layer size at byte offset {off + 4 * sizes.index(0)}")
    off += 4 * n_sizes
    (tag,) = struct.unpack_from("<B", data, off)
    off += 1
    if tag not in _TAG_ACTS:
        raise FormatError(f"{path}: unknown activation tag at byte offset {off - 1}")
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        need = 4 * n_in * n_out
        if len(data) < off + need:
            raise FormatError(f"{path}: truncated weights at byte offset {len(data)}")
        weights.append(
            np.frombuffer(data, dtype="<f4", count=n_in * n_out, offset=off)
            .reshape(n_in, n_out)
            .astype(np.float32)
        )
        off += need
        need = 4 * n_out
        if len(data) < off + need:
            raise FormatError(f"{path}: truncated biases at byte offset {len(data)}")
        biases.append(np.frombuffer(data, dtype="<f4", count=n_out, offset=off).astype(np.float32))
        off += need
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes at byte offset {off}")
    return DenseNet.from_params(weights, biases, _TAG_ACTS[tag])
