import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopp import nn
from mopp.errors import FormatError
from reference import GaussianParams, gaussian_nll


def finite_difference_grads(net, x, t, loss, h=1e-5):
    grads = []
    for p in net.params():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + h
            lp, _ = nn.loss_and_grads(net, x, t, loss=loss)
            p[ix] = orig - h
            lm, _ = nn.loss_and_grads(net, x, t, loss=loss)
            p[ix] = orig
            g[ix] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def relative_gap(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)


def test_forward_identity_single_layer():
    net = nn.DenseNet([2, 2], rng=0)
    net.weights[0] = np.eye(2, dtype=np.float32)
    net.biases[0] = np.zeros(2, dtype=np.float32)
    out = nn.forward(net, np.array([[1.5, -2.0]]))
    np.testing.assert_array_equal(out, np.array([[1.5, -2.0]], dtype=np.float32))


def test_forward_constant_map():
    net = nn.DenseNet([3, 1], rng=0)
    net.weights[0][:] = 0.0
    net.biases[0][:] = 3.0
    for x in (np.zeros((1, 3)), np.array([[5.0, -1.0, 2.0]])):
        np.testing.assert_array_equal(nn.forward(net, x), np.array([[3.0]], dtype=np.float32))


def test_forward_two_layer_relu_hand_computed():
    # by-hand oracle: y = W2 @ relu(W1 @ x + b1) + b2
    net = nn.DenseNet([1, 2, 1], activation="relu", rng=0)
    net.weights[0] = np.array([[2.0, -3.0]], dtype=np.float32)
    net.biases[0] = np.array([-1.0, 0.5], dtype=np.float32)
    net.weights[1] = np.array([[1.0], [4.0]], dtype=np.float32)
    net.biases[1] = np.array([0.25], dtype=np.float32)
    x = np.array([[1.0]])
    hidden = np.maximum(np.array([2.0 * 1 - 1, -3.0 * 1 + 0.5]), 0)  # [1.0, 0.0]
    expected = 1.0 * hidden[0] + 4.0 * hidden[1] + 0.25
    assert nn.forward(net, x)[0, 0] == pytest.approx(expected)


def test_forward_batch_matches_rows():
    net = nn.DenseNet([3, 5, 2], rng=4)
    xs = np.random.default_rng(1).normal(size=(6, 3)).astype(np.float32)
    batch = nn.forward(net, xs)
    for i in range(6):
        np.testing.assert_array_equal(batch[i], nn.forward(net, xs[i : i + 1])[0])


def test_forward_shape_mismatch_raises():
    net = nn.DenseNet([3, 2], rng=0)
    with pytest.raises(ValueError):
        nn.forward(net, np.zeros(4))


def test_forward_deterministic_bitwise():
    net = nn.DenseNet([4, 8, 3], rng=7)
    x = np.random.default_rng(2).normal(size=(1, 4)).astype(np.float32)
    a = nn.forward(net, x)
    b = nn.forward(net, x)
    assert a.tobytes() == b.tobytes()


def layer_loop_forward(net, x):
    """Unblocked reference: one ``a @ w + b`` product per layer over every row."""
    a = np.asarray(x, dtype=net.dtype)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        a = z if i == net.n_layers - 1 else nn.activate(z, net.activation)
    return a


@pytest.mark.parametrize("sizes", [[7, 500, 500, 1], [502, 200, 100, 2]])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_forward_matches_layer_loop(sizes, activation, dtype):
    net = nn.DenseNet(sizes, activation=activation, rng=5, dtype=dtype)
    rng = np.random.default_rng(6)
    for b in net.biases:
        b[:] = rng.normal(size=b.shape)
    x = rng.normal(size=(1500, sizes[0])).astype(dtype)
    # up to 1.5 blocks run as one block: the very same products
    np.testing.assert_array_equal(nn.forward(net, x[:383]), layer_loop_forward(net, x[:383]))
    # five blocks: BLAS may split and round a 256-row product differently
    # from a 1500-row one (thread partition, kernel choice), within a few ulps
    got = nn.forward(net, x)
    assert got.dtype == dtype
    tol = 64 * np.finfo(dtype).eps
    np.testing.assert_allclose(got, layer_loop_forward(net, x), rtol=tol, atol=tol)


def test_forward_empty_batch():
    net = nn.DenseNet([3, 5, 2], rng=0)
    assert nn.forward(net, np.zeros((0, 3))).shape == (0, 2)


def test_param_count_formula():
    sizes = [4, 10, 7, 2]
    net = nn.DenseNet(sizes, rng=0)
    expected = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    assert net.param_count() == expected


def test_invalid_construction():
    with pytest.raises(ValueError):
        nn.DenseNet([3], rng=0)
    with pytest.raises(ValueError):
        nn.DenseNet([3, 0, 2], rng=0)
    with pytest.raises(ValueError):
        nn.DenseNet([3, 2], activation="gelu", rng=0)


def test_gaussian_nll_zero_residual():
    p = GaussianParams(mean=np.array([0.7]), std=np.array([1.0]))
    assert gaussian_nll(p, np.array([0.7])) == pytest.approx(0.5 * math.log(2 * math.pi))


def test_gaussian_nll_forced_quadratic():
    p = GaussianParams(mean=np.array([0.0]), std=np.array([1.0]))
    assert gaussian_nll(p, np.array([2.0])) == pytest.approx(2.0 + 0.5 * math.log(2 * math.pi))


def test_gaussian_nll_closed_form_oracle():
    # independent evaluation through the log-density of each dimension
    mean = np.array([1.0, 1.0])
    std = np.array([0.5, 2.0])
    target = np.array([0.0, 3.0])
    expected = -sum(
        -math.log(s) - 0.5 * math.log(2 * math.pi) - (t - m) ** 2 / (2 * s * s)
        for m, s, t in zip(mean, std, target)
    )
    p = GaussianParams(mean=mean, std=std)
    assert gaussian_nll(p, target) == pytest.approx(expected, rel=1e-12)


def test_gaussian_params_rejects_nonpositive_std():
    with pytest.raises(ValueError):
        GaussianParams(mean=np.array([0.0]), std=np.array([0.0]))
    with pytest.raises(ValueError):
        GaussianParams(mean=np.array([0.0]), std=np.array([-1.0]))


def test_gaussian_nll_length_mismatch():
    p = GaussianParams(mean=np.array([0.0, 1.0]), std=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        gaussian_nll(p, np.array([0.0]))


@given(
    mean=st.lists(st.floats(-5, 5), min_size=1, max_size=4),
    logstd=st.lists(st.floats(-2, 1.5), min_size=1, max_size=4),
    shift=st.lists(st.floats(-5, 5), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_gaussian_nll_lower_bound(mean, logstd, shift):
    d = min(len(mean), len(logstd), len(shift))
    mean = np.array(mean[:d])
    std = np.exp(np.array(logstd[:d]))
    p = GaussianParams(mean=mean, std=std)
    floor = float(np.sum(np.log(std))) + d * 0.5 * math.log(2 * math.pi)
    at_mean = gaussian_nll(p, mean)
    shifted = gaussian_nll(p, mean + np.array(shift[:d]))
    assert at_mean == pytest.approx(floor, rel=1e-9)
    assert shifted >= at_mean - 1e-12
    if any(abs(v) > 1e-6 for v in shift[:d]):
        assert shifted > at_mean


def test_std_from_raw_stays_in_bounds():
    pre = np.array([-1e6, -3.0, 0.0, 3.0, 1e6])
    sigma = nn.std_from_raw(pre)
    assert np.all(sigma >= 1e-3 - 1e-12)
    assert np.all(sigma <= 5.0 + 1e-12)
    assert np.all(np.diff(sigma) >= 0)


def test_backprop_zero_at_mse_minimum():
    net = nn.DenseNet([2, 3], rng=3)
    x = np.random.default_rng(0).normal(size=(5, 2)).astype(np.float32)
    t = nn.forward(net, x)
    _, grads = nn.loss_and_grads(net, x, t, loss="mse")
    for g in grads:
        np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_backprop_linear_in_residual():
    # doubling every residual doubles every gradient entry exactly
    net = nn.DenseNet([3, 4, 2], rng=5)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3)).astype(np.float32)
    y = nn.forward(net, x)
    t1 = y - rng.normal(size=y.shape).astype(np.float32)
    t2 = y - 2.0 * (y - t1)
    _, g1 = nn.loss_and_grads(net, x, t1, loss="mse")
    _, g2 = nn.loss_and_grads(net, x, t2, loss="mse")
    for a, b in zip(g1, g2):
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("loss", ["mse", "gaussian_nll"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_gradients_match_finite_differences(loss, activation):
    rng = np.random.default_rng(11)
    net = nn.DenseNet([3, 6, 4], activation=activation, rng=9, dtype=np.float64)
    x = rng.normal(size=(5, 3))
    t = rng.normal(size=(5, 4 if loss == "mse" else 2))
    _, grads = nn.loss_and_grads(net, x, t, loss=loss)
    fd = finite_difference_grads(net, x, t, loss)
    for g, f in zip(grads, fd):
        assert relative_gap(g, f).max() < 1e-4


def test_loss_and_grads_unknown_loss():
    net = nn.DenseNet([2, 2], rng=0)
    with pytest.raises(ValueError):
        nn.loss_and_grads(net, np.zeros((1, 2)), np.zeros((1, 2)), loss="hinge")


def test_adam_zero_gradient_is_fixed_point():
    net = nn.DenseNet([3, 4, 2], rng=1)
    before = [p.copy() for p in net.params()]
    state = nn.AdamState(net.params(), learning_rate=0.1)
    zeros = [np.zeros_like(p) for p in net.params()]
    nn.adam_update(net.params(), zeros, state)
    nn.adam_update(net.params(), zeros, state)
    for p, q in zip(net.params(), before):
        np.testing.assert_array_equal(p, q)
    assert state.step == 2


def test_adam_one_step_matches_hand_rolled_update():
    # hand-rolled oracle: m=(1-b1)g, v=(1-b2)g^2, bias-corrected step == lr * sign(g)
    net = nn.DenseNet([1, 1], rng=0)
    net.weights[0][:] = 0.5
    state = nn.AdamState(net.params(), learning_rate=0.01)
    grads = [np.ones_like(net.weights[0]), np.zeros_like(net.biases[0])]
    nn.adam_update(net.params(), grads, state)
    expected = 0.01 * 1.0 / (1.0 + nn.ADAM_EPS)
    assert 0.5 - float(net.weights[0][0, 0]) == pytest.approx(expected, rel=1e-5)
    assert state.step == 1


def test_adam_regression_loss_non_increasing():
    # scripted oracle: full-batch steps on a linear least-squares problem
    rng = np.random.default_rng(0)
    net = nn.DenseNet([2, 1], rng=2)
    x = rng.normal(size=(32, 2)).astype(np.float32)
    t = (x @ np.array([[1.0], [-2.0]]) + 0.5).astype(np.float32)
    state = nn.AdamState(net.params(), learning_rate=0.01)
    losses = []
    for _ in range(100):
        loss, grads = nn.loss_and_grads(net, x, t, loss="mse")
        losses.append(loss)
        nn.adam_update(net.params(), grads, state)
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0] * 0.5


def test_adam_shape_mismatch_raises():
    net = nn.DenseNet([2, 2], rng=0)
    state = nn.AdamState(net.params())
    bad = [np.zeros((3, 3)), np.zeros(2)]
    with pytest.raises(ValueError):
        nn.adam_update(net.params(), bad, state)


def test_adam_state_accumulator_shapes_track_params():
    net = nn.DenseNet([4, 6, 2], rng=0)
    state = nn.AdamState(net.params())
    for p, m, v in zip(net.params(), state.m, state.v):
        assert p.shape == m.shape == v.shape


def test_checkpoint_round_trip_bit_exact(tmp_path, monkeypatch):
    net = nn.DenseNet([3, 7, 2], activation="tanh", rng=13)
    p1 = tmp_path / "a.nn"
    p2 = tmp_path / "b.nn"
    nn.save_net(net, p1)
    with monkeypatch.context() as m:  # loading builds the net from the file's arrays alone
        m.setattr(nn.DenseNet, "__init__", None)
        loaded = nn.load_net(p1)
    nn.save_net(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.layer_sizes == net.layer_sizes
    assert loaded.activation == net.activation
    for a, b in zip(net.params(), loaded.params()):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.nn"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(FormatError, match="offset 0"):
        nn.load_net(p)


def test_checkpoint_truncation_names_offset(tmp_path):
    net = nn.DenseNet([3, 5, 2], rng=1)
    p = tmp_path / "net.nn"
    nn.save_net(net, p)
    blob = p.read_bytes()
    cut = p.with_suffix(".cut")
    cut.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(FormatError, match="byte offset"):
        nn.load_net(cut)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    net = nn.DenseNet([2, 2], rng=1)
    p = tmp_path / "net.nn"
    nn.save_net(net, p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        nn.load_net(p)


def test_checkpoint_zero_layer_size_names_offset(tmp_path):
    net = nn.DenseNet([3, 5, 2], rng=1)
    p = tmp_path / "net.nn"
    nn.save_net(net, p)
    blob = bytearray(p.read_bytes())
    blob[16:20] = (0).to_bytes(4, "little")  # the hidden size, second of three
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="zero layer size at byte offset 16"):
        nn.load_net(p)


def test_copy_is_an_independent_equal_net():
    net = nn.DenseNet([3, 5, 2], activation="tanh", rng=2)
    dup = net.copy()
    assert dup.layer_sizes == net.layer_sizes and dup.activation == net.activation
    for a, b in zip(net.params(), dup.params()):
        np.testing.assert_array_equal(a, b)
        assert a is not b
